package experiments

import (
	"autorte/internal/e2eprot"
	"autorte/internal/fault"
	"autorte/internal/health"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/trace"
)

// The fault studies E10–E14 share one reference chain: a 10ms sensor
// feeding an event-driven controller feeding an actuator. This file
// builds, drives and scores it; each study adds its own ECUs, bus,
// watcher and mapping at its call site.

// chainSystem returns the reference chain without a platform: the IfV
// and IfU interfaces, Sensor.sample (10ms, writes out.v), Ctrl.law
// (event-driven on in.v, writes cmd.u) and Act.apply (event-driven on
// in.u), with the Sensor→Ctrl and Ctrl→Act connectors.
func chainSystem(name string) *model.System {
	ifV := &model.PortInterface{
		Name: "IfV", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
	}
	ifU := &model.PortInterface{
		Name: "IfU", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "u", Type: model.UInt16}},
	}
	return &model.System{
		Name:       name,
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
			{
				Name: "Ctrl",
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
			},
			{
				Name:  "Act",
				Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: ifU}},
				Runnables: []model.Runnable{{
					Name: "apply", WCETNominal: sim.US(20),
					Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "u"},
					Reads:   []model.PortRef{{Port: "in", Elem: "u"}},
				}},
			},
		},
		Connectors: []model.Connector{
			{FromSWC: "Sensor", FromPort: "out", ToSWC: "Ctrl", ToPort: "in"},
			{FromSWC: "Ctrl", FromPort: "cmd", ToSWC: "Act", ToPort: "in"},
		},
	}
}

// steadySample is the healthy sensor: a constant, plausible reading.
// Fault-injecting sensor behaviours wrap it.
func steadySample(c *rte.Context) { c.Write("out", "v", 100) }

// driveChain attaches the reference behaviours to every instance of the
// chain's replica groups: steadySample, qualifiedForward and an actuator
// that only consumes. A study that needs another sensor or actuator sets
// it afterwards with MustBehavior.
func driveChain(p *rte.Platform) {
	for _, name := range p.ReplicaGroup("Sensor") {
		p.MustBehavior(name, "sample", steadySample)
	}
	for _, name := range p.ReplicaGroup("Ctrl") {
		p.MustBehavior(name, "law", qualifiedForward)
	}
	for _, name := range p.ReplicaGroup("Act") {
		p.MustBehavior(name, "apply", func(c *rte.Context) {})
	}
}

// qualifiedForward is the controller law of the reference chains: it
// forwards the chain input to the command port, but first consults the
// E2E qualification of the feeding channel and holds the actuation
// while the window state machine condemns it. On a protected channel
// the RTE already delivers only verified frames ("correct data or no
// data"), so the remaining application-level duty — the part no
// middleware can take over — is to stop acting on a channel that has
// been qualified invalid: the first deliveries after an outage arrive
// while the state machine is still re-qualifying, and a safety function
// must not trust them yet. On an unprotected or local channel
// E2EStatus reports no protection and the law degenerates to a plain
// forward, so the same behavior serves both arms of every protected-
// versus-unprotected comparison.
func qualifiedForward(c *rte.Context) {
	if st, ok := c.E2EStatus("in", "v"); ok && st == e2eprot.SMInvalid {
		return // channel condemned: hold rather than act on it
	}
	c.Write("cmd", "u", c.Read("in", "v"))
}

// ladderPolicy is the health policy E11 and E12 protect a chain stage
// with: two errors qualify a fault, and every rung gets two attempts
// before the ladder climbs.
func ladderPolicy(runnable string) health.Policy {
	return health.Policy{
		Debounce:    health.DebounceConfig{Inc: 2, Dec: 1, Threshold: 4},
		MaxAttempts: 2, Cooldown: sim.MS(15),
		ResetDowntime: sim.MS(20), HealAfter: sim.MS(60),
		Runnable: runnable,
	}
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

// gaugeChainFinishes registers the service-delivery gauge
// chain_finishes: cumulative completions of the actuation task, read
// straight off the trace recorder's O(1) counts.
func gaugeChainFinishes(p *rte.Platform) {
	p.Metrics.GaugeFunc("chain_finishes",
		"Cumulative completions of the critical actuation task.",
		func() float64 { return float64(p.Trace.Count(trace.Finish, "Act.apply")) })
}

// scoreActuation scores a chain scenario run to horizon: detection from
// the error records of the given kind, and the availability and
// recovery of the actuation service. The service is up whichever
// controller instance feeds it, so the actuation stream itself is the
// observed source, the whole replica group of the actuator scored as a
// union.
func scoreActuation(p *rte.Platform, s fault.Scenario, horizon sim.Time, kind rte.ErrorKind) fault.Result {
	res := fault.Result{Scenario: s, Errors: p.Errors.Total()}
	res.DetectionLatency, res.Detected = fault.DetectionLatency(p.Errors.Records(), kind, s.InjectAt)
	var sources []string
	for _, name := range p.ReplicaGroup("Act") {
		sources = append(sources, name+".apply")
	}
	res.Availability, _ = fault.AvailabilityAny(p.Trace, sources, sim.MS(10), s.InjectAt, horizon)
	res.RecoveryLatency, res.Recovered, _ = fault.ServiceRecoveryAny(p.Trace, sources, sim.MS(10), s.InjectAt, horizon)
	return res
}
