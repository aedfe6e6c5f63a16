// Package workload generates synthetic but structurally realistic
// automotive systems: period classes from the automotive literature
// (1–1000 ms), and whole-vehicle models with the four distributed
// application subsystems (DASes) §4 names — power-train, chassis,
// body/comfort and telematics — each a set of SWCs with
// sensor→controller→actuator chains.
package workload

import (
	"fmt"

	"autorte/internal/model"
	"autorte/internal/sim"
)

// AutomotivePeriods are the canonical period classes (Kramer et al.'s
// distribution simplified): fast chassis loops to slow body functions.
var AutomotivePeriods = []sim.Duration{
	sim.MS(1), sim.MS(2), sim.MS(5), sim.MS(10), sim.MS(20),
	sim.MS(50), sim.MS(100), sim.MS(200), sim.MS(1000),
}

// DASSpec parameterizes one subsystem's generation.
type DASSpec struct {
	Name string
	// Supplier owning the subsystem's components.
	Supplier string
	// Chains is the number of sensor→controller→actuator chains.
	Chains int
	// Utilization is the total CPU demand across all runnables.
	Utilization float64
	// ASIL applies to every component.
	ASIL model.ASIL
	// PeriodClasses restricts the candidate periods (defaults to all).
	PeriodClasses []sim.Duration
	// MemoryKB per component (default 16).
	MemoryKB int
}

// GenerateDAS creates the components, interfaces and connectors of one
// subsystem. Component names are prefixed with the DAS name.
func GenerateDAS(spec DASSpec, r *sim.Rand) ([]*model.SWC, []*model.PortInterface, []model.Connector, error) {
	if spec.Chains < 1 {
		return nil, nil, nil, fmt.Errorf("workload: DAS %s: need at least one chain", spec.Name)
	}
	if spec.Utilization <= 0 || spec.Utilization >= float64(spec.Chains)*3 {
		return nil, nil, nil, fmt.Errorf("workload: DAS %s: utilization %g unreasonable", spec.Name, spec.Utilization)
	}
	periods := spec.PeriodClasses
	if len(periods) == 0 {
		periods = AutomotivePeriods
	}
	mem := spec.MemoryKB
	if mem == 0 {
		mem = 16
	}
	var comps []*model.SWC
	var ifaces []*model.PortInterface
	var conns []model.Connector
	// Each chain gets an equal utilization share, split 20/60/20 over
	// sensor, controller, actuator.
	uChain := spec.Utilization / float64(spec.Chains)
	for c := 0; c < spec.Chains; c++ {
		base := fmt.Sprintf("%s_c%d", spec.Name, c)
		period := periods[r.Intn(len(periods))]
		ifS := &model.PortInterface{
			Name: base + "_IfS", Kind: model.SenderReceiver,
			Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
		}
		ifA := &model.PortInterface{
			Name: base + "_IfA", Kind: model.SenderReceiver,
			Elements: []model.DataElement{{Name: "u", Type: model.UInt16}},
		}
		ifaces = append(ifaces, ifS, ifA)
		wcet := func(share float64) sim.Duration {
			w := sim.Duration(share * float64(period))
			if w < sim.US(1) {
				w = sim.US(1)
			}
			return w
		}
		sensor := &model.SWC{
			Name: base + "_sensor", Supplier: spec.Supplier, DAS: spec.Name, ASIL: spec.ASIL, MemoryKB: mem,
			Ports: []model.Port{{Name: "out", Direction: model.Provided, Interface: ifS}},
			Runnables: []model.Runnable{{
				Name: "sample", WCETNominal: wcet(uChain * 0.2),
				Trigger: model.Trigger{Kind: model.TimingEvent, Period: period},
				Writes:  []model.PortRef{{Port: "out", Elem: "v"}},
			}},
		}
		ctrl := &model.SWC{
			Name: base + "_ctrl", Supplier: spec.Supplier, DAS: spec.Name, ASIL: spec.ASIL, MemoryKB: 2 * mem,
			Ports: []model.Port{
				{Name: "in", Direction: model.Required, Interface: ifS},
				{Name: "cmd", Direction: model.Provided, Interface: ifA},
			},
			Runnables: []model.Runnable{{
				// The controller is modelled as a periodic sampler at the
				// chain period (time-triggered control law).
				Name: "law", WCETNominal: wcet(uChain * 0.6),
				Trigger: model.Trigger{Kind: model.TimingEvent, Period: period, Offset: period / 4},
				Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
				Writes:  []model.PortRef{{Port: "cmd", Elem: "u"}},
			}},
		}
		act := &model.SWC{
			Name: base + "_act", Supplier: spec.Supplier, DAS: spec.Name, ASIL: spec.ASIL, MemoryKB: mem,
			Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: ifA}},
			Runnables: []model.Runnable{{
				Name: "apply", WCETNominal: wcet(uChain * 0.2),
				Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "u"},
				Reads:   []model.PortRef{{Port: "in", Elem: "u"}},
			}},
		}
		comps = append(comps, sensor, ctrl, act)
		conns = append(conns,
			model.Connector{FromSWC: sensor.Name, FromPort: "out", ToSWC: ctrl.Name, ToPort: "in"},
			model.Connector{FromSWC: ctrl.Name, FromPort: "cmd", ToSWC: act.Name, ToPort: "in"},
		)
	}
	return comps, ifaces, conns, nil
}

// VehicleSpec parameterizes a whole federated vehicle.
type VehicleSpec struct {
	// DASes to generate; zero value gets the canonical four.
	DASes []DASSpec
	// ECUsPerDAS is the federated ECU count per subsystem (default 3).
	ECUsPerDAS int
	// BusKind is the vehicle backbone (default CAN at 500k).
	BusKind model.BusKind
	// CrossDASLinks adds inter-subsystem signal flows (e.g. a chassis
	// wheel-speed feeding the power-train controller): link i connects
	// DAS[i]'s first sensor to DAS[i+1]'s first controller. Cross-domain
	// traffic is what makes consolidation and bus planning interesting.
	CrossDASLinks int
	// ChainConstraints attaches one end-to-end latency constraint per
	// generated sensor→controller→actuator chain (budget: four chain
	// periods — three hops plus the controller's sampling delay — which
	// holistic analysis meets on a healthy deployment). Off by default so
	// existing callers see no chains.
	ChainConstraints bool
	// BusBitRate overrides the backbone bit rate (default 500 kbit/s).
	// Large vehicles with chain verification enabled need headroom, since
	// every remote connector element becomes a periodic frame.
	BusBitRate int64
}

// DefaultDASes returns the canonical four-subsystem vehicle load.
func DefaultDASes() []DASSpec {
	return []DASSpec{
		{Name: "powertrain", Supplier: "tierP", Chains: 4, Utilization: 0.8, ASIL: model.ASILC,
			PeriodClasses: []sim.Duration{sim.MS(5), sim.MS(10), sim.MS(20)}},
		{Name: "chassis", Supplier: "tierC", Chains: 4, Utilization: 0.9, ASIL: model.ASILD,
			PeriodClasses: []sim.Duration{sim.MS(2), sim.MS(5), sim.MS(10)}},
		{Name: "body", Supplier: "tierB", Chains: 3, Utilization: 0.4, ASIL: model.ASILA,
			PeriodClasses: []sim.Duration{sim.MS(50), sim.MS(100), sim.MS(200)}},
		{Name: "telematics", Supplier: "tierT", Chains: 2, Utilization: 0.5, ASIL: model.QM,
			PeriodClasses: []sim.Duration{sim.MS(100), sim.MS(200), sim.MS(1000)}},
	}
}

// GenerateVehicle builds a federated vehicle: each DAS on its own ECUs
// (one chain component group per ECU, round-robin), all ECUs on one
// backbone bus, mapped federated-style. The result validates and is ready
// for rte.Build or deploy consolidation.
func GenerateVehicle(spec VehicleSpec, r *sim.Rand) (*model.System, error) {
	dases := spec.DASes
	if len(dases) == 0 {
		dases = DefaultDASes()
	}
	perDAS := spec.ECUsPerDAS
	if perDAS == 0 {
		perDAS = 3
	}
	bitRate := spec.BusBitRate
	if bitRate == 0 {
		bitRate = 500_000
	}
	busName := "backbone"
	sys := &model.System{
		Name:    "vehicle",
		Buses:   []*model.Bus{{Name: busName, Kind: spec.BusKind, BitRate: bitRate}},
		Mapping: map[string]string{},
	}
	ecuIdx := 0
	for _, das := range dases {
		comps, ifaces, conns, err := GenerateDAS(das, r)
		if err != nil {
			return nil, err
		}
		sys.Components = append(sys.Components, comps...)
		sys.Interfaces = append(sys.Interfaces, ifaces...)
		sys.Connectors = append(sys.Connectors, conns...)
		// Federated: this DAS owns perDAS ECUs, positioned in a cluster.
		var names []string
		for i := 0; i < perDAS; i++ {
			name := fmt.Sprintf("ecu_%s_%d", das.Name, i)
			sys.ECUs = append(sys.ECUs, &model.ECU{
				Name: name, Speed: 1, MemoryKB: 512,
				Buses:   []string{busName},
				MaxASIL: model.ASILD,
				Position: [2]float64{
					float64(ecuIdx%4) + r.Float64(),
					float64(ecuIdx/4) + r.Float64(),
				},
			})
			names = append(names, name)
			ecuIdx++
		}
		for i, c := range comps {
			sys.Mapping[c.Name] = names[i%len(names)]
		}
		if spec.ChainConstraints {
			for c := 0; c < das.Chains; c++ {
				base := fmt.Sprintf("%s_c%d", das.Name, c)
				period := comps[c*3].Runnables[0].Trigger.Period
				sys.Constraints = append(sys.Constraints, model.LatencyConstraint{
					Name:   base + "_e2e",
					Budget: 4 * period,
					Chain: []model.PortRef2{
						{SWC: base + "_sensor", Port: "out"},
						{SWC: base + "_ctrl", Port: "in"},
						{SWC: base + "_ctrl", Port: "cmd"},
						{SWC: base + "_act", Port: "in"},
					},
				})
			}
		}
	}
	if spec.CrossDASLinks > len(dases)-1 {
		return nil, fmt.Errorf("workload: %d cross-DAS links need at least %d subsystems", spec.CrossDASLinks, spec.CrossDASLinks+1)
	}
	for i := 0; i < spec.CrossDASLinks; i++ {
		src := fmt.Sprintf("%s_c0_sensor", dases[i].Name)
		dst := fmt.Sprintf("%s_c0_ctrl", dases[i+1].Name)
		consumer := sys.Component(dst)
		producer := sys.Component(src)
		if consumer == nil || producer == nil {
			return nil, fmt.Errorf("workload: cross link endpoints missing (%s -> %s)", src, dst)
		}
		// The consumer grows an extra required port compatible with the
		// producer's interface, read by its control law.
		consumer.Ports = append(consumer.Ports, model.Port{
			Name: "xin", Direction: model.Required, Interface: producer.Ports[0].Interface,
		})
		consumer.Runnables[0].Reads = append(consumer.Runnables[0].Reads,
			model.PortRef{Port: "xin", Elem: "v"})
		sys.Connectors = append(sys.Connectors, model.Connector{
			FromSWC: src, FromPort: "out", ToSWC: dst, ToPort: "xin",
		})
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated vehicle invalid: %w", err)
	}
	return sys, nil
}
