package experiments

import (
	"fmt"

	"autorte/internal/deploy"
	"autorte/internal/fault"
	"autorte/internal/health"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
)

// E13Config parameterizes the fail-operational deployment study: the same
// logical chain is deployed in federated, integrated and redundant
// shapes, and every candidate faces the same fault campaign (an ECU kill
// per used ECU, a CAN error burst, and a fault-free baseline). Candidates
// are scored by the availability of the actuation service, giving the
// availability-per-ECU-count curve the redundancy weight of the DSE
// objective (Objective.WAvail) prices.
type E13Config struct {
	Horizon  sim.Time
	InjectAt sim.Time
	// BurstWindow bounds the transient CAN error burst.
	BurstWindow sim.Duration
	// Workers bounds campaign parallelism (<= 0: GOMAXPROCS).
	Workers int
	Seed    uint64
}

// DefaultE13 is the published configuration.
func DefaultE13() E13Config {
	return E13Config{
		Horizon: 600 * sim.Millisecond, InjectAt: 150 * sim.Millisecond,
		BurstWindow: sim.MS(60), Workers: 0, Seed: 13,
	}
}

// e13Candidate is one deployment alternative of the logical chain.
type e13Candidate struct {
	name string
	// redundant materializes a passive standby for the controller via
	// deploy.Replicate before mapping.
	redundant bool
	mapping   map[string]string
}

// e13Candidates spans the ECU-count axis: consolidation on one ECU, the
// same chain federated over two and three ECUs, and the fail-operational
// shape — three ECUs where the third hosts a passive controller standby
// instead of a third partition island.
func e13Candidates() []e13Candidate {
	return []e13Candidate{
		{name: "integrated", mapping: map[string]string{
			"Sensor": "e1", "Ctrl": "e1", "Act": "e1", "Watch": "e1"}},
		{name: "federated-2", mapping: map[string]string{
			"Sensor": "e1", "Ctrl": "e2", "Act": "e1", "Watch": "e1"}},
		{name: "federated-3", mapping: map[string]string{
			"Sensor": "e1", "Ctrl": "e2", "Act": "e3", "Watch": "e3"}},
		{name: "redundant-3", redundant: true, mapping: map[string]string{
			"Sensor": "e1", "Ctrl": "e2", "Act": "e1", "Watch": "e1", "Ctrl#1": "e3"}},
	}
}

// usedECUs returns the distinct target ECUs of a mapping, in name order.
func usedECUs(mapping map[string]string) []string {
	targets := map[string]bool{}
	for _, t := range mapping {
		targets[t] = true
	}
	var out []string
	for _, e := range []string{"e1", "e2", "e3"} {
		if targets[e] {
			out = append(out, e)
		}
	}
	return out
}

// e13Outcome is one scored scenario: the campaign result plus the replica
// switchovers the health ladder performed during the run.
type e13Outcome struct {
	fault.Result
	Failovers uint64
}

// e13Run is one candidate's campaign: an outcome per scenario, in
// scenario order (fault-free, one kill per used ECU, can-burst).
type e13Run struct {
	cand     e13Candidate
	ecus     int
	outcomes []e13Outcome
}

// runE13 executes the full campaign for every candidate. Scenarios run in
// parallel but results are slot-indexed, so the output is deterministic.
func runE13(cfg E13Config) ([]e13Run, error) {
	var runs []e13Run
	for _, cand := range e13Candidates() {
		ecus := usedECUs(cand.mapping)
		kills := map[string]string{} // scenario name -> killed ECU
		scenarios := []fault.Scenario{{
			Name: "fault-free", Class: fault.FaultECUKill,
			InjectAt: cfg.InjectAt, Until: cfg.InjectAt, // empty window: no fault armed
		}}
		for _, e := range ecus {
			s := fault.Scenario{
				Name: "ecu-kill:" + e, Class: fault.FaultECUKill,
				InjectAt: cfg.InjectAt, Until: sim.Infinity,
			}
			kills[s.Name] = e
			scenarios = append(scenarios, s)
		}
		scenarios = append(scenarios, fault.Scenario{
			Name: "can-burst", Class: fault.FaultCANBurst,
			InjectAt: cfg.InjectAt, Until: cfg.InjectAt + sim.Time(cfg.BurstWindow),
		})
		outcomes, err := fault.RunCampaign(cfg.Workers, scenarios, func(s fault.Scenario) e13Outcome {
			r, fo := runE13Scenario(cfg, cand, s, kills[s.Name])
			return e13Outcome{Result: r, Failovers: fo}
		})
		if err != nil {
			return nil, err
		}
		runs = append(runs, e13Run{cand: cand, ecus: len(ecus), outcomes: outcomes})
	}
	return runs, nil
}

// runE13Scenario deploys one candidate, arms one fault and measures the
// actuation service. The controller partition is health-supervised: a
// stale command stream qualifies against Ctrl, and the escalation ladder
// — notify, restarts, then the failover rung — is what promotes the
// standby; the experiment never calls FailOver directly.
func runE13Scenario(cfg E13Config, cand e13Candidate, s fault.Scenario, killECU string) (fault.Result, uint64) {
	sys, err := e13System(cand)
	if err != nil {
		return fault.Result{Scenario: s, FinalState: "deploy error: " + err.Error()}, 0
	}
	p, err := rte.Build(sys, rte.Options{})
	if err != nil {
		return fault.Result{Scenario: s, FinalState: "build error: " + err.Error()}, 0
	}
	p.MustBehavior("Sensor", "sample", func(c *rte.Context) { c.Write("out", "v", 100) })
	forward := func(c *rte.Context) { c.Write("cmd", "u", c.Read("in", "v")) } //autovet:allow e2eflow E13 studies ECU loss, not channel tampering; E2E qualification is E12's subject
	p.MustBehavior("Ctrl", "law", forward)
	if sys.Component("Ctrl#1") != nil {
		p.MustBehavior("Ctrl#1", "law", forward)
	}
	p.MustBehavior("Act", "apply", func(c *rte.Context) {})
	// Diagnostic monitor on the actuator's ECU: temporal validity of the
	// command stream, attributed to the controller partition. A silent
	// controller — dead ECU or severed bus — qualifies there.
	p.MustBehavior("Watch", "check", func(c *rte.Context) {
		if age := c.Age("tap", "u"); age >= 0 && age > sim.MS(25) {
			p.Errors.Report("Ctrl", rte.ErrSensor, "stale command stream")
		}
	})
	m := health.NewMonitor(p, health.MonitorOptions{})
	// The cooldown must outlast the staleness residue of an indirect
	// detector: after a promotion the watcher keeps seeing a stale stream
	// until the next end-to-end delivery, and a shorter cooldown would
	// escalate right past the rung that just cured the fault.
	m.MustProtect("Ctrl", stagePolicy("law"))
	switch {
	case killECU != "":
		if err := fault.KillECUAt(p, killECU, s.InjectAt); err != nil {
			return fault.Result{Scenario: s, FinalState: "arm error: " + err.Error()}, 0
		}
	case s.Class == fault.FaultCANBurst:
		if bus := p.CANBus("can0"); bus != nil {
			fault.CANBurst(bus, s.InjectAt, s.Until, 1.0, cfg.Seed)
		}
	}
	p.Run(cfg.Horizon)

	res := scoreActuation(p, s, cfg.Horizon)
	st := m.Status()[0]
	res.Escalations = st.Attempts
	res.FinalState = st.State.String()
	fo := p.Metrics.Counter("deploy_failovers_total", "",
		obs.Label{Key: "swc", Value: "Ctrl"}).Value()
	return res, fo
}

// stagePolicy is the health policy E13 and E14 protect a chain stage
// with.
func stagePolicy(runnable string) health.Policy {
	return health.Policy{
		Debounce:    health.DebounceConfig{Inc: 2, Dec: 1, Threshold: 3},
		MaxAttempts: 1, Cooldown: sim.MS(20),
		ResetDowntime: sim.MS(20), HealAfter: sim.MS(60),
		Runnable: runnable,
	}
}

// scoreActuation scores an E13/E14 scenario run to horizon: detection
// from the sensor-kind error records, and the availability and recovery
// of the actuation service. The service is up whichever controller
// instance feeds it, so the actuation stream itself is the observed
// source, the whole replica group of the actuator scored as a union.
func scoreActuation(p *rte.Platform, s fault.Scenario, horizon sim.Time) fault.Result {
	res := fault.Result{Scenario: s, Errors: p.Errors.Total()}
	res.DetectionLatency, res.Detected = fault.DetectionLatency(p.Errors.Records(), rte.ErrSensor, s.InjectAt)
	var sources []string
	for _, name := range p.ReplicaGroup("Act") {
		sources = append(sources, name+".apply")
	}
	res.Availability, _ = fault.AvailabilityAny(p.Trace, sources, sim.MS(10), s.InjectAt, horizon)
	res.RecoveryLatency, res.Recovered, _ = fault.ServiceRecoveryAny(p.Trace, sources, sim.MS(10), s.InjectAt, horizon)
	return res
}

// E13Availability is the per-scenario detail: every candidate against
// every fault, with detection, ladder effort, switchovers and the
// availability of the actuation service.
func E13Availability(cfg E13Config) (*Table, error) {
	tab := &Table{
		Title: "E13 fail-operational deployment: availability under the fault campaign",
		Columns: []string{"candidate", "ecus", "scenario", "detected", "attempts",
			"failovers", "final state", "recovered", "availability"},
		Notes: []string{
			"ecu-kill is permanent: only a standby replica on a surviving ECU restores service.",
			"the redundant candidate's controller kill is cured by the ladder's failover rung;",
			"killing the standby's own ECU costs nothing (the primary keeps delivering).",
			"killing the actuator's ECU defeats every candidate alike: the observer dies with",
			"it, so nothing is even detected — replicating the controller alone has a limit.",
			"the integrated candidate routes everything locally: the can-burst cannot touch it.",
		},
	}
	runs, err := runE13(cfg)
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		for _, o := range run.outcomes {
			rec := "-"
			if o.Recovered && o.RecoveryLatency > 0 {
				rec = fmt.Sprint(o.RecoveryLatency)
			}
			tab.Add(run.cand.name, run.ecus, o.Scenario.Name, o.Detected,
				o.Escalations, o.Failovers, o.FinalState, rec, o.Availability)
		}
	}
	return tab, nil
}

// E13Curve condenses the campaign into the availability-per-ECU-count
// curve: what another ECU buys depends on what it hosts. A third
// federated island buys nothing against ECU loss; a standby replica on
// the same third ECU lifts mean kill availability far above every
// non-redundant shape.
func E13Curve(cfg E13Config) (*Table, error) {
	tab := &Table{
		Title:   "E13 availability per ECU count: redundancy beats federation",
		Columns: []string{"candidate", "ecus", "fault-free", "mean kill", "worst kill", "can-burst", "failovers"},
		Notes: []string{
			"mean/worst kill aggregate the per-ECU kill scenarios of each candidate.",
			"same ECU count, different availability: federated-3 vs redundant-3 is the",
			"paper's fail-operational argument in one row pair.",
		},
	}
	runs, err := runE13(cfg)
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		var faultFree, burst float64
		killSum, killMin, kills := 0.0, 1.0, 0
		var failovers uint64
		for _, o := range run.outcomes {
			failovers += o.Failovers
			switch o.Scenario.Name {
			case "fault-free":
				faultFree = o.Availability
			case "can-burst":
				burst = o.Availability
			default:
				killSum += o.Availability
				if o.Availability < killMin {
					killMin = o.Availability
				}
				kills++
			}
		}
		meanKill := 0.0
		if kills > 0 {
			meanKill = killSum / float64(kills)
		}
		tab.Add(run.cand.name, run.ecus, faultFree, meanKill, killMin, burst, failovers)
	}
	return tab, nil
}

// e13System builds the candidate's deployed system: the reference chain —
// a 10ms sensor feeding a controller feeding an actuator, with a
// diagnostic watcher tapping the command stream — over three CAN-coupled
// ECUs, with the controller optionally replicated through
// deploy.Replicate (the same materialization the DSE scores).
func e13System(cand e13Candidate) (*model.System, error) {
	ifV := &model.PortInterface{
		Name: "IfV", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
	}
	ifU := &model.PortInterface{
		Name: "IfU", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "u", Type: model.UInt16}},
	}
	ctrl := &model.SWC{
		Name: "Ctrl", ASIL: model.ASILD,
		Ports: []model.Port{
			{Name: "in", Direction: model.Required, Interface: ifV},
			{Name: "cmd", Direction: model.Provided, Interface: ifU},
		},
		Runnables: []model.Runnable{{
			Name: "law", WCETNominal: sim.US(40),
			Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "v"},
			Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
			Writes:  []model.PortRef{{Port: "cmd", Elem: "u"}},
		}},
	}
	if cand.redundant {
		ctrl.Redundancy = model.Redundancy{Replicas: 2, Mode: model.StandbyPassive}
	}
	sys := &model.System{
		Name:       "e13-" + cand.name,
		Interfaces: []*model.PortInterface{ifV, ifU},
		Components: []*model.SWC{
			{
				Name:  "Sensor",
				Ports: []model.Port{{Name: "out", Direction: model.Provided, Interface: ifV}},
				Runnables: []model.Runnable{{
					Name: "sample", WCETNominal: sim.US(50),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
					Writes:  []model.PortRef{{Port: "out", Elem: "v"}},
				}},
			},
			ctrl,
			{
				Name:  "Act",
				Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: ifU}},
				Runnables: []model.Runnable{{
					Name: "apply", WCETNominal: sim.US(20),
					Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "u"},
					Reads:   []model.PortRef{{Port: "in", Elem: "u"}},
				}},
			},
			{
				Name:  "Watch",
				Ports: []model.Port{{Name: "tap", Direction: model.Required, Interface: ifU}},
				Runnables: []model.Runnable{{
					Name: "check", WCETNominal: sim.US(20),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10), Offset: sim.MS(5)},
					Reads:   []model.PortRef{{Port: "tap", Elem: "u"}},
				}},
			},
		},
		ECUs: []*model.ECU{
			{Name: "e1", Speed: 1, Buses: []string{"can0"}},
			{Name: "e2", Speed: 1, Buses: []string{"can0"}},
			{Name: "e3", Speed: 1, Buses: []string{"can0"}},
		},
		Buses: []*model.Bus{{Name: "can0", Kind: model.BusCAN, BitRate: 500_000}},
		Connectors: []model.Connector{
			{FromSWC: "Sensor", FromPort: "out", ToSWC: "Ctrl", ToPort: "in"},
			{FromSWC: "Ctrl", FromPort: "cmd", ToSWC: "Act", ToPort: "in"},
			{FromSWC: "Ctrl", FromPort: "cmd", ToSWC: "Watch", ToPort: "tap"},
		},
	}
	out, err := deploy.Replicate(sys)
	if err != nil {
		return nil, fmt.Errorf("e13 %s: %w", cand.name, err)
	}
	out.Mapping = map[string]string{}
	for swc, ecu := range cand.mapping {
		out.Mapping[swc] = ecu
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("e13 %s: %w", cand.name, err)
	}
	return out, nil
}
