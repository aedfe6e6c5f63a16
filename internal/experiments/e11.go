package experiments

import (
	"fmt"

	"autorte/internal/fault"
	"autorte/internal/health"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/trace"
)

// E11Config parameterizes the fault-injection campaign over the
// health-monitored reference system.
type E11Config struct {
	Horizon sim.Time
	// InjectTimes and TransientWindow span the swept fault space together
	// with the five fault classes; one extra permanent sensor-silent
	// scenario exercises the full escalation ladder down to safe-stop.
	InjectTimes     []sim.Time
	TransientWindow sim.Duration
	// Workers bounds campaign parallelism (<= 0: GOMAXPROCS).
	Workers int
	Seed    uint64
	// DisableFlight turns the platforms' always-on flight recorder off;
	// only the overhead benchmarks use it (the recorder-off baseline).
	DisableFlight bool
}

// DefaultE11 is the published configuration.
func DefaultE11() E11Config {
	return E11Config{
		Horizon:         600 * sim.Millisecond,
		InjectTimes:     []sim.Time{100 * sim.Millisecond, 130 * sim.Millisecond},
		TransientWindow: sim.MS(60), Workers: 0, Seed: 7,
	}
}

// E11FaultCampaign sweeps sensor failure modes, a CAN error burst and a
// WCET overrun across injection times against the health-monitored
// reference chain, reporting per scenario: detection latency, recovery
// attempts performed by the escalation ladder, the final degradation/
// health state, and the availability of the actuation service between
// injection and horizon. Scenarios run in parallel; results are
// deterministic for a given configuration.
func E11FaultCampaign(cfg E11Config) (*Table, error) {
	tab := &Table{
		Title: "E11 fault-injection campaign: detection, escalation, recovery, availability",
		Columns: []string{"scenario", "detected", "det latency", "attempts",
			"final state", "recovered", "rec latency", "availability"},
		Notes: []string{
			"availability: fraction of expected actuations delivered between injection and horizon.",
			"stuck sensors pass age and range checks: undetected by design, service metric stays 1",
			"(the paper's case for application-level plausibility).",
			"the permanent fault climbs the whole ladder and ends safe-stopped.",
		},
	}
	classes := []fault.FaultClass{
		fault.FaultSensorSilent, fault.FaultSensorStuck, fault.FaultSensorNoise,
		fault.FaultCANBurst, fault.FaultOverrun,
	}
	scenarios := fault.Sweep(classes, cfg.InjectTimes, cfg.TransientWindow)
	scenarios = append(scenarios, fault.Scenario{
		Name: "sensor-silent@100ms/permanent", Class: fault.FaultSensorSilent,
		InjectAt: 100 * sim.Millisecond, Until: sim.Infinity,
	})
	results, err := fault.RunCampaign(cfg.Workers, scenarios, func(s fault.Scenario) fault.Result {
		return runE11Scenario(cfg, s)
	})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		det, rec := "-", "-"
		if r.Detected {
			det = fmt.Sprint(r.DetectionLatency)
		}
		if r.Recovered {
			rec = fmt.Sprint(r.RecoveryLatency)
		}
		tab.Add(r.Scenario.Name, r.Detected, det, r.Escalations,
			r.FinalState, r.Recovered, rec, r.Availability)
	}
	return tab, nil
}

// e11Instrumentation optionally arms observability on a scenario run:
// virtual-time sampling on a grid (with a metric-name filter) and a sink
// for the diagnostic bundles the health monitor cuts on severe
// escalations and safe-stop.
type e11Instrumentation struct {
	sampleStep sim.Duration
	match      func(name string) bool
	bundleSink func(*obs.Bundle)
}

// runE11Scenario builds one private platform, injects the scenario's
// fault, supervises the Sensor partition and measures the outcome.
func runE11Scenario(cfg E11Config, s fault.Scenario) fault.Result {
	res, _ := runE11Instrumented(cfg, s, nil)
	return res
}

// runE11Instrumented is runE11Scenario with observability hooks: when
// inst asks for sampling, the platform's sampler walks the metric
// registry on the virtual-time grid and the run returns its series
// alongside the scalar result.
func runE11Instrumented(cfg E11Config, s fault.Scenario, inst *e11Instrumentation) (fault.Result, []obs.Series) {
	opts := rte.Options{DisableFlight: cfg.DisableFlight}
	if s.Class == fault.FaultOverrun {
		opts.EnforceBudgets = true
	}
	p, err := rte.Build(e11System(), opts)
	if err != nil {
		return fault.Result{Scenario: s, FinalState: "build error: " + err.Error()}, nil
	}
	if inst != nil && inst.sampleStep > 0 {
		// Service-delivery curve: cumulative completions of the chain's
		// actuation task, read straight off the trace recorder's O(1) counts.
		p.Metrics.GaugeFunc("chain_finishes",
			"Cumulative completions of the critical actuation task.",
			func() float64 { return float64(p.Trace.Count(trace.Finish, "Act.apply")) })
		p.EnableSampling(inst.sampleStep, inst.match)
	}
	healthy := func(c *rte.Context) { c.Write("out", "v", 100) }
	switch s.Class {
	case fault.FaultSensorSilent:
		p.MustBehavior("Sensor", "sample",
			fault.BreakSensorBetween(s.InjectAt, s.Until, fault.Silent, 0, healthy))
	case fault.FaultSensorStuck:
		p.MustBehavior("Sensor", "sample",
			fault.BreakSensorBetween(s.InjectAt, s.Until, fault.Stuck, 0, healthy))
	case fault.FaultSensorNoise:
		p.MustBehavior("Sensor", "sample",
			fault.BreakSensorBetween(s.InjectAt, s.Until, fault.Noise, 9999, healthy))
	case fault.FaultCANBurst:
		p.MustBehavior("Sensor", "sample", healthy)
		fault.CANBurst(p.CANBus("can0"), s.InjectAt, s.Until, 1.0, cfg.Seed)
	case fault.FaultOverrun:
		p.MustBehavior("Sensor", "sample", healthy)
		fault.OverrunTaskBetween(p.K, p.Task("Sensor", "sample"), s.InjectAt, s.Until, 50)
	default:
		// Communication classes are exercised by E12's protected-channel
		// harness, not the recovery-ladder sweep.
		p.MustBehavior("Sensor", "sample", healthy)
	}
	p.MustBehavior("Ctrl", "step", func(c *rte.Context) { c.Write("cmd", "u", c.Read("in", "v")) }) //autovet:allow e2eflow E11 is the deliberately unprotected recovery-ladder baseline; channel qualification is E12's subject
	p.MustBehavior("Act", "apply", func(c *rte.Context) {})
	// Diagnostic monitor: temporal validity and plausibility of the chain
	// input, attributed to the Sensor partition (unlatched — the health
	// monitor's debouncing is the flood control).
	p.MustBehavior("Watch", "check", func(c *rte.Context) {
		if age := c.Age("tap", "v"); age >= 0 && age > sim.MS(25) {
			p.Errors.Report("Sensor", rte.ErrSensor, "stale chain input")
		}
		if v, ok := c.ReadOK("tap", "v"); ok && (v < 0 || v > 300) {
			p.Errors.Report("Sensor", rte.ErrSensor, "implausible chain input")
		}
	})
	// Graceful degradation: Degraded sheds telemetry, LimpHome also sheds
	// comfort but keeps the (possibly faulty) critical chain escalating,
	// SafeStop sheds everything but mode handlers.
	deg := health.MustDegradation(p, map[health.Level][]string{
		health.Degraded: {"Sensor.sample", "Ctrl.step", "Act.apply", "Watch.check", "Comfort.hvac"},
		health.LimpHome: {"Sensor.sample", "Ctrl.step", "Act.apply", "Watch.check"},
	})
	mopts := health.MonitorOptions{Degradation: deg}
	if inst != nil {
		mopts.BundleSink = inst.bundleSink
	}
	m := health.NewMonitor(p, mopts)
	m.MustProtect("Sensor", health.Policy{
		Debounce:    health.DebounceConfig{Inc: 2, Dec: 1, Threshold: 4},
		MaxAttempts: 2, Cooldown: sim.MS(15),
		ResetDowntime: sim.MS(20), HealAfter: sim.MS(60),
		Runnable: "sample",
	})
	p.Run(cfg.Horizon)

	res := fault.Result{Scenario: s, Errors: p.Errors.Total()}
	kind := rte.ErrSensor
	if s.Class == fault.FaultOverrun {
		kind = rte.ErrTiming
	}
	res.DetectionLatency, res.Detected = fault.DetectionLatency(p.Errors.Records(), kind, s.InjectAt)
	res.Availability, _ = fault.Availability(p.Trace, "Act.apply", sim.MS(10), s.InjectAt, cfg.Horizon)
	res.RecoveryLatency, res.Recovered, _ = fault.ServiceRecovery(p.Trace, "Act.apply", sim.MS(10), s.InjectAt, cfg.Horizon)
	st := m.Status()[0]
	res.Escalations = st.Attempts
	res.FinalState = deg.Level().String() + "/" + st.State.String()
	var series []obs.Series
	if sp := p.Sampler(); sp != nil {
		series = sp.Series()
	}
	return res, series
}

// E11LimpHome demonstrates graceful degradation without any fault: the
// system is forced into limp-home for a phase and back. The critical
// actuation chain keeps full service through every phase; the shed
// comfort/telemetry runnables are provably inactive (zero finishes, every
// activation an auditable drop) while limp-home holds, and resume after.
func E11LimpHome(cfg E11Config) (*Table, error) {
	tab := &Table{
		Title:   "E11 graceful degradation: forced limp-home phase",
		Columns: []string{"phase", "level", "chain availability", "shed finishes", "shed drops", "limp handler ran"},
	}
	p, err := rte.Build(e11System(), rte.Options{})
	if err != nil {
		return nil, err
	}
	p.MustBehavior("Sensor", "sample", func(c *rte.Context) { c.Write("out", "v", 100) })
	p.MustBehavior("Ctrl", "step", func(c *rte.Context) { c.Write("cmd", "u", c.Read("in", "v")) }) //autovet:allow e2eflow E11 is the deliberately unprotected recovery-ladder baseline; channel qualification is E12's subject
	deg := health.MustDegradation(p, map[health.Level][]string{
		health.LimpHome: {"Sensor.sample", "Ctrl.step", "Act.apply", "Watch.check"},
	})
	enter, leave := sim.Time(150*sim.Millisecond), sim.Time(300*sim.Millisecond)
	p.K.At(enter, func() { deg.To(health.LimpHome) })
	p.K.At(leave, func() { deg.To(health.Normal) })
	horizon := sim.Time(450 * sim.Millisecond)
	p.Run(horizon)

	count := func(source string, kind trace.Kind, from, to sim.Time) int {
		n := 0
		for i := range p.Trace.Records {
			if rec := &p.Trace.Records[i]; rec.Source == source && rec.Kind == kind && rec.At > from && rec.At <= to {
				n++
			}
		}
		return n
	}
	shed := []string{"Comfort.hvac", "Telem.log"}
	phases := []struct {
		name     string
		level    string
		from, to sim.Time
	}{
		{"normal", "normal", 0, enter},
		{"limp-home", "limp-home", enter, leave},
		{"restored", "normal", leave, horizon},
	}
	for _, ph := range phases {
		fin, drop := 0, 0
		for _, s := range shed {
			fin += count(s, trace.Finish, ph.from, ph.to)
			drop += count(s, trace.Drop, ph.from, ph.to)
		}
		av, err := fault.Availability(p.Trace, "Act.apply", sim.MS(10), ph.from, ph.to)
		if err != nil {
			return nil, fmt.Errorf("e11 limp-home phase %s: %w", ph.name, err)
		}
		tab.Add(ph.name, ph.level, av,
			fin, drop, count("Diag.onLimp", trace.Finish, ph.from, ph.to) > 0)
	}
	return tab, nil
}

// e11System is the reference chain for the campaign: a sensor on e1 feeds
// a control-and-actuation chain on e2 over CAN, watched by a diagnostic
// monitor; comfort and telemetry runnables are sheddable load; Diag hosts
// the mode-switch handlers.
func e11System() *model.System {
	ifV := &model.PortInterface{
		Name: "IfV", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
	}
	ifU := &model.PortInterface{
		Name: "IfU", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "u", Type: model.UInt16}},
	}
	return &model.System{
		Name:       "e11",
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
					Name: "step", WCETNominal: sim.US(40),
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
			{
				Name:  "Watch",
				Ports: []model.Port{{Name: "tap", Direction: model.Required, Interface: ifV}},
				Runnables: []model.Runnable{{
					Name: "check", WCETNominal: sim.US(20),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10), Offset: sim.MS(5)},
					Reads:   []model.PortRef{{Port: "tap", Elem: "v"}},
				}},
			},
			{
				Name: "Comfort",
				Runnables: []model.Runnable{{
					Name: "hvac", WCETNominal: sim.US(100),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(20)},
				}},
			},
			{
				Name: "Telem",
				Runnables: []model.Runnable{{
					Name: "log", WCETNominal: sim.US(80),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(20), Offset: sim.MS(3)},
				}},
			},
			{
				Name: "Diag",
				Runnables: []model.Runnable{
					{Name: "onRecovery", WCETNominal: sim.US(10),
						Trigger: model.Trigger{Kind: model.ModeSwitchEvent, Mode: "recovery"}},
					{Name: "onLimp", WCETNominal: sim.US(10),
						Trigger: model.Trigger{Kind: model.ModeSwitchEvent, Mode: "limp-home"}},
					{Name: "onSafeStop", WCETNominal: sim.US(10),
						Trigger: model.Trigger{Kind: model.ModeSwitchEvent, Mode: "safe-stop"}},
				},
			},
		},
		ECUs: []*model.ECU{
			{Name: "e1", Speed: 1, Buses: []string{"can0"}},
			{Name: "e2", Speed: 1, Buses: []string{"can0"}},
		},
		Buses: []*model.Bus{{Name: "can0", Kind: model.BusCAN, BitRate: 500_000}},
		Connectors: []model.Connector{
			{FromSWC: "Sensor", FromPort: "out", ToSWC: "Ctrl", ToPort: "in"},
			{FromSWC: "Sensor", FromPort: "out", ToSWC: "Watch", ToPort: "tap"},
			{FromSWC: "Ctrl", FromPort: "cmd", ToSWC: "Act", ToPort: "in"},
		},
		Mapping: map[string]string{
			"Sensor": "e1", "Comfort": "e1",
			"Ctrl": "e2", "Act": "e2", "Watch": "e2", "Telem": "e2", "Diag": "e2",
		},
	}
}
