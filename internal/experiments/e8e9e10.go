package experiments

import (
	"fmt"

	"autorte/internal/core"
	"autorte/internal/fault"
	"autorte/internal/model"
	"autorte/internal/noc"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/trace"
	"autorte/internal/workload"
)

// E8Config parameterizes the NoC composability study.
type E8Config struct {
	Horizon sim.Time
}

// DefaultE8 is the published configuration.
func DefaultE8() E8Config { return E8Config{Horizon: 100 * sim.Millisecond} }

// E8NoC checks §4's four composability requirements on a 4×4 MPSoC mesh
// under three configurations: best-effort wormhole, best-effort with rate
// policing, and TDMA. For each it reports interference (R3), stability
// under an added flow (R2), and babbling-idiot containment (R4); precise
// interface specification (R1) holds by construction of declared flows.
func E8NoC(cfg E8Config) (*Table, error) {
	tab := &Table{
		Title:   "E8 NoC composability requirements R1-R4",
		Columns: []string{"mode", "R1 precise ifaces", "R2 stable prior", "R3 non-interfering", "R4 babble contained", "blocked injections"},
		Notes: []string{
			"R4: a babbling core must not move the critical flow's latency at all.",
		},
	}
	base := []*noc.Flow{
		{Name: "crit", Src: noc.Coord{X: 0, Y: 0}, Dst: noc.Coord{X: 3, Y: 0}, Flits: 4, Period: sim.US(3200)},
		// Shares the row-0 links with crit: interference is possible in
		// best-effort mode, impossible under TDMA.
		{Name: "video", Src: noc.Coord{X: 1, Y: 0}, Dst: noc.Coord{X: 3, Y: 0}, Flits: 12, Period: sim.US(3200), Offset: sim.US(1)},
	}
	added := []*noc.Flow{
		{Name: "diag", Src: noc.Coord{X: 1, Y: 0}, Dst: noc.Coord{X: 3, Y: 0}, Flits: 8, Period: sim.US(3200)},
	}
	configs := []struct {
		name string
		cfg  noc.Config
	}{
		{"best-effort", noc.Config{Width: 4, Height: 4, FlitTime: sim.US(1), Mode: noc.BestEffort}},
		{"best-effort+police", noc.Config{Width: 4, Height: 4, FlitTime: sim.US(1), Mode: noc.BestEffort, RatePolice: true}},
		{"tdma", noc.Config{Width: 4, Height: 4, FlitTime: sim.US(1), Mode: noc.TDMA, SlotLength: sim.US(200)}},
	}
	for _, c := range configs {
		rep, err := noc.CheckComposition(c.cfg, base, added, cfg.Horizon)
		if err != nil {
			return nil, err
		}
		// R4: babble containment measured against a quiet baseline.
		measure := func(babble bool) (trace.Stats, int64, error) {
			k := sim.NewKernel()
			rec := &trace.Recorder{}
			net, err := noc.NewNetwork(k, c.cfg, rec)
			if err != nil {
				return trace.Stats{}, 0, err
			}
			for _, f := range base {
				cp := *f
				net.MustAddFlow(&cp)
			}
			if babble {
				net.BabbleCore(noc.Coord{X: 1, Y: 0}, 0, cfg.Horizon)
			}
			net.Start()
			k.Run(cfg.Horizon)
			return trace.Compute(rec.Latencies("crit")), net.BlockedInjections(), nil
		}
		quiet, _, err := measure(false)
		if err != nil {
			return nil, err
		}
		loud, blocked, err := measure(true)
		if err != nil {
			return nil, err
		}
		contained := loud.Max == quiet.Max && loud.Jitter == quiet.Jitter
		tab.Add(c.name, rep.PreciseInterfaces, rep.StablePriorServices, rep.NonInterfering, contained, blocked)
	}
	return tab, nil
}

// E9Config parameterizes the extensibility study.
type E9Config struct {
	Seed       uint64
	Intruders  []int
	Horizon    sim.Time
	TargetECU  string
	MajorFrame sim.Duration
}

// DefaultE9 is the published configuration.
func DefaultE9() E9Config {
	return E9Config{
		Seed: 31, Intruders: []int{1, 2, 3}, Horizon: 200 * sim.Millisecond,
		TargetECU: "ecu_chassis_0", MajorFrame: sim.MS(1),
	}
}

// E9Extensibility adds post-integration supplier components to a verified
// vehicle and counts how many prior tasks degrade under plain fixed
// priority versus a planned time-triggered table (§1 extensibility, §4
// R2 "stability of prior services").
func E9Extensibility(cfg E9Config) (*Table, error) {
	tab := &Table{
		Title:   "E9 extensibility: prior tasks degraded by adding new supplier SWCs",
		Columns: []string{"new SWCs", "policy", "degraded tasks", "stable"},
		Notes: []string{
			"planned TT table pre-reserves a window for the new supplier, so prior",
			"windows never move; plain FP lets the newcomer preempt everyone.",
		},
	}
	base, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(cfg.Seed))
	if err != nil {
		return nil, err
	}
	planned := rte.Options{
		Isolation:  rte.TablePerSupplier,
		MajorFrame: cfg.MajorFrame,
		Reservations: map[string]float64{
			"tierP": 0.55, "tierC": 0.55, "tierB": 0.35, "tierT": 0.35,
			"zNew": 0.25,
		},
	}
	for _, n := range cfg.Intruders {
		extended := base.Clone()
		for i := 0; i < n; i++ {
			comp := &model.SWC{
				Name: fmt.Sprintf("zNew_comp%d", i), Supplier: "zNew", DAS: "aftermarket",
				Runnables: []model.Runnable{{
					Name: "spin", WCETNominal: sim.Duration(float64(sim.US(600)) / float64(n)),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(1)},
				}},
			}
			extended.Components = append(extended.Components, comp)
			extended.Mapping[comp.Name] = cfg.TargetECU
		}
		for _, opts := range []struct {
			name string
			o    rte.Options
		}{{"fixed-priority", rte.Options{}}, {"planned tt-table", planned}} {
			rep, err := core.CheckExtension(base, extended, opts.o, cfg.Horizon)
			if err != nil {
				return nil, err
			}
			degraded := 0
			for _, d := range rep.Deltas {
				if d.Degraded {
					degraded++
				}
			}
			tab.Add(n, opts.name, degraded, rep.Stable)
		}
	}
	return tab, nil
}

// E10Config parameterizes the error handling study.
type E10Config struct {
	Horizon  sim.Time
	InjectAt sim.Time
}

// DefaultE10 is the published configuration.
func DefaultE10() E10Config {
	return E10Config{Horizon: 300 * sim.Millisecond, InjectAt: 100 * sim.Millisecond}
}

// E10ErrorHandling exercises the three §2 error handling use cases —
// broken sensor, communication error, memory failure — plus the timing
// overrun, measuring detection latency and checking that the error is
// reported to the application layer (mode-switch handler activation).
func E10ErrorHandling(cfg E10Config) (*Table, error) {
	tab := &Table{
		Title:   "E10 error handling use cases: detection and reporting",
		Columns: []string{"fault", "detected", "detection latency", "handler activated"},
	}
	type scenario struct {
		name   string
		kind   rte.ErrorKind // the error kind the scenario's detector reports
		opts   rte.Options
		inject func(p *rte.Platform)
	}
	scenarios := []scenario{
		{
			name: "timing overrun (budget protection)", kind: rte.ErrTiming,
			opts: rte.Options{EnforceBudgets: true},
			inject: func(p *rte.Platform) {
				p.MustBehavior("Sensor", "sample", steadySample)
				p.MustBehavior("Watch", "check", func(c *rte.Context) {})
				fault.OverrunTask(p.K, p.Task("Sensor", "sample"), cfg.InjectAt, 50)
			},
		},
		{
			name: "broken sensor (silent)", kind: rte.ErrSensor,
			inject: func(p *rte.Platform) {
				p.MustBehavior("Sensor", "sample", fault.BreakSensor(cfg.InjectAt, fault.Silent, 0, steadySample))
				p.MustBehavior("Watch", "check", fault.AgeMonitor("in", "v", sim.MS(25)))
			},
		},
		{
			name: "broken sensor (noise)", kind: rte.ErrSensor,
			inject: func(p *rte.Platform) {
				p.MustBehavior("Sensor", "sample", fault.BreakSensor(cfg.InjectAt, fault.Noise, 9999, steadySample))
				p.MustBehavior("Watch", "check", fault.RangeMonitor("in", "v", 0, 300, rte.ErrSensor))
			},
		},
		{
			name: "memory failure (corruption)", kind: rte.ErrMemory,
			inject: func(p *rte.Platform) {
				p.MustBehavior("Sensor", "sample", fault.CorruptValue(cfg.InjectAt, steadySample))
				p.MustBehavior("Watch", "check", fault.RangeMonitor("in", "v", 0, 300, rte.ErrMemory))
			},
		},
		{
			// The age monitor classifies the symptom as a sensor error;
			// the platform independently counts bus error frames.
			name: "communication error (burst)", kind: rte.ErrSensor,
			inject: func(p *rte.Platform) {
				p.MustBehavior("Sensor", "sample", steadySample)
				// Detector: stale input during the burst window.
				p.MustBehavior("Watch", "check", fault.AgeMonitor("in", "v", sim.MS(25)))
				fault.CANBurst(p.CANBus("can0"), cfg.InjectAt, cfg.InjectAt+sim.MS(60), 1.0, 5)
			},
		},
	}
	for _, sc := range scenarios {
		sys := e10System()
		p, err := rte.Build(sys, sc.opts)
		if err != nil {
			return nil, err
		}
		handled := 0
		p.MustBehavior("Diag", "onError", func(c *rte.Context) { handled++ })
		p.MustBehavior("Diag", "onMem", func(c *rte.Context) { handled++ })
		p.MustBehavior("Diag", "onTiming", func(c *rte.Context) { handled++ })
		sc.inject(p)
		p.Run(cfg.Horizon)
		lat, ok := fault.DetectionLatency(p.Errors.Records(), sc.kind, cfg.InjectAt)
		latStr := "-"
		if ok {
			latStr = fmt.Sprint(lat)
		}
		tab.Add(sc.name, ok, latStr, handled > 0)
	}
	return tab, nil
}

// e10System: the reference chain's Sensor on e1 -> Watch (monitor) on e2
// over CAN, plus a Diag component subscribed to all three error modes.
func e10System() *model.System {
	chain := chainSystem("e10")
	ifV, sensor := chain.Interfaces[0], chain.Component("Sensor")
	return &model.System{
		Name:       "e10",
		Interfaces: []*model.PortInterface{ifV},
		Components: []*model.SWC{
			sensor,
			{
				Name:  "Watch",
				Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: ifV}},
				Runnables: []model.Runnable{{
					Name: "check", WCETNominal: sim.US(20),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10), Offset: sim.MS(5)},
					Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
				}},
			},
			{
				Name: "Diag",
				Runnables: []model.Runnable{
					{Name: "onError", WCETNominal: sim.US(10),
						Trigger: model.Trigger{Kind: model.ModeSwitchEvent, Mode: "sensor"}},
					{Name: "onMem", WCETNominal: sim.US(10),
						Trigger: model.Trigger{Kind: model.ModeSwitchEvent, Mode: "memory"}},
					{Name: "onTiming", WCETNominal: sim.US(10),
						Trigger: model.Trigger{Kind: model.ModeSwitchEvent, Mode: "timing"}},
				},
			},
		},
		ECUs: []*model.ECU{
			{Name: "e1", Speed: 1, Buses: []string{"can0"}},
			{Name: "e2", Speed: 1, Buses: []string{"can0"}},
		},
		Buses:      []*model.Bus{{Name: "can0", Kind: model.BusCAN, BitRate: 500_000}},
		Connectors: []model.Connector{{FromSWC: "Sensor", FromPort: "out", ToSWC: "Watch", ToPort: "in"}},
		Mapping:    map[string]string{"Sensor": "e1", "Watch": "e2", "Diag": "e2"},
	}
}
