package experiments

import (
	"fmt"

	"autorte/internal/can"
	"autorte/internal/flexray"
	"autorte/internal/osek"
	"autorte/internal/rte"
	"autorte/internal/sched"
	"autorte/internal/sim"
	"autorte/internal/trace"
	"autorte/internal/ttethernet"
	"autorte/internal/ttp"
)

// E4Config parameterizes the CAN-vs-FlexRay comparison.
type E4Config struct {
	Loads   []float64 // background bus load fractions
	Horizon sim.Time
}

// DefaultE4 is the published configuration.
func DefaultE4() E4Config {
	return E4Config{Loads: []float64{0.2, 0.4, 0.6, 0.8, 0.9}, Horizon: 4 * sim.Second}
}

// E4BusComparison contrasts the victim's latency on event-triggered CAN
// (priority arbitration: latency and jitter grow with load) against a
// FlexRay static slot (interference-free sub-channel, §4).
func E4BusComparison(cfg E4Config) (*Table, error) {
	tab := &Table{
		Title:   "E4 event-triggered vs time-triggered bus: victim latency vs load",
		Columns: []string{"bus", "load", "victim mean", "victim p99", "victim jitter", "misses"},
		Notes: []string{
			"CAN victim: lowest priority 10ms message under rising higher-priority load;",
			"FlexRay victim: the same signal in a static slot — load-independent by design.",
		},
	}
	ccfg := can.Config{BitRate: 500_000}
	frame := ccfg.FrameTime(8)
	for _, load := range cfg.Loads {
		k := sim.NewKernel()
		rec := &trace.Recorder{}
		bus := can.MustNewBus(k, "can0", ccfg, rec)
		// Background: 8 higher-priority messages sharing the load, with
		// deliberately non-harmonic periods so the victim's phase drifts
		// through every interference pattern.
		n := 8
		per := sim.Duration(float64(frame) * float64(n) / load)
		for i := 0; i < n; i++ {
			p := sim.Duration(float64(per) * (1 + 0.037*float64(i)))
			bus.MustAddMessage(&can.Message{
				Name: fmt.Sprintf("bg%d", i), ID: uint32(i + 1), DLC: 8,
				Period: p, Offset: sim.Duration(i) * p / sim.Duration(2*n),
			})
		}
		bus.MustAddMessage(&can.Message{
			Name: "victim", ID: 100, DLC: 8, Period: sim.MS(10), Offset: sim.US(1),
		})
		bus.Start()
		k.Run(cfg.Horizon)
		st := trace.Summarize(rec, "victim")
		tab.Add("CAN", load, st.Mean, st.P99, st.Jitter, st.MissCount)
	}
	// TT-Ethernet: the victim as a TT stream on a 100 Mbit/s switch with
	// rising best-effort load on the same egress port.
	ecfg := ttethernet.Config{BitRate: 100_000_000, Cycle: sim.MS(1)}
	for _, load := range cfg.Loads {
		k := sim.NewKernel()
		rec := &trace.Recorder{}
		sw := ttethernet.MustNewSwitch(k, ecfg, rec)
		sw.MustAddStream(&ttethernet.Stream{
			Name: "victim", Class: ttethernet.TT, Bytes: 100, Egress: "p1",
			Slot: sim.US(500), Period: sim.MS(10),
		})
		// Best-effort background sized to the load fraction (1500-byte
		// frames ~ 122us wire time each).
		bePeriod := sim.Duration(float64(122*sim.Microsecond) / load)
		sw.MustAddStream(&ttethernet.Stream{
			Name: "be", Class: ttethernet.BE, Bytes: 1500, Egress: "p1", Period: bePeriod,
		})
		sw.Start()
		k.Run(cfg.Horizon)
		st := trace.Summarize(rec, "victim")
		tab.Add("TTEthernet", load, st.Mean, st.P99, st.Jitter, st.MissCount)
	}
	// TTP: the victim signal rides its node's TDMA slot in a 4-node
	// cluster with the RTE's default slot length. Other nodes' traffic
	// occupies their own slots by construction, so the load column only
	// demonstrates flatness.
	tcfg := ttp.Config{SlotLength: rte.Options{}.Defaults().TTPSlotLength, RoundsPerCluster: 2, SyncEnabled: true}
	for _, load := range cfg.Loads {
		k := sim.NewKernel()
		cluster := ttp.MustNewCluster(k, tcfg, nil)
		victim := &ttp.Node{Name: "victim", Guardian: true}
		cluster.MustAddNode(victim)
		for i := 0; i < 3; i++ {
			cluster.MustAddNode(&ttp.Node{Name: fmt.Sprintf("n%d", i), Guardian: true})
		}
		var queued []sim.Time
		var lats []sim.Duration
		victim.OnTransmit = func(end sim.Time) {
			for _, q := range queued {
				lats = append(lats, end-q)
			}
			queued = queued[:0]
		}
		var enqueue func(at sim.Time)
		enqueue = func(at sim.Time) {
			k.AtPrio(at, 2, func() {
				queued = append(queued, at)
				enqueue(at + sim.MS(10))
			})
		}
		enqueue(sim.US(1))
		if err := cluster.Start(); err != nil {
			return nil, err
		}
		k.Run(cfg.Horizon)
		st := trace.Compute(lats)
		tab.Add("TTP", load, st.Mean, st.P99, st.Jitter, 0)
	}
	// FlexRay: same victim signal in a static slot; background load rides
	// other slots and the dynamic segment, so it cannot matter — shown for
	// one representative load per sweep point.
	fcfg := flexray.Config{
		StaticSlots: 8, SlotLength: sim.US(200),
		Minislots: 40, MinislotLength: sim.US(10), NIT: sim.US(0),
	}
	for _, load := range cfg.Loads {
		k := sim.NewKernel()
		rec := &trace.Recorder{}
		bus := flexray.MustNewBus(k, "fr0", fcfg, rec)
		bus.MustAddFrame(&flexray.Frame{
			Name: "victim", Kind: flexray.Static, SlotID: 5, Repetition: 1, Period: sim.MS(10),
		})
		// Background dynamic traffic scaled by load (cannot affect the
		// static slot, demonstrated by measurement).
		nDyn := int(load * 5)
		for i := 0; i < nDyn; i++ {
			bus.MustAddFrame(&flexray.Frame{
				Name: fmt.Sprintf("bg%d", i), Kind: flexray.Dynamic,
				FrameID: 9 + i, Length: 6, Period: sim.MS(2),
			})
		}
		bus.Start()
		k.Run(cfg.Horizon)
		st := trace.Summarize(rec, "victim")
		tab.Add("FlexRay", load, st.Mean, st.P99, st.Jitter, st.MissCount)
	}
	return tab, nil
}

// E5Config parameterizes the analysis-vs-simulation study.
type E5Config struct {
	Trials  int
	Seed    uint64
	Horizon sim.Time
}

// DefaultE5 is the published configuration.
func DefaultE5() E5Config {
	return E5Config{Trials: 20, Seed: 2024, Horizon: 2 * sim.Second}
}

// E5AnalysisVsSim validates that the schedulability analyses §3 relies on
// are sound (bounds dominate every simulated response) and reports their
// tightness, for both CPU task sets and CAN message sets. It also compares
// deadline-monotonic against Audsley's optimal priority assignment.
func E5AnalysisVsSim(cfg E5Config) (*Table, error) {
	tab := &Table{
		Title:   "E5 analysis soundness and tightness",
		Columns: []string{"domain", "trials", "sound", "mean tightness (sim/bound)", "DM schedulable", "Audsley schedulable"},
		Notes: []string{
			"sound: simulated worst case never exceeded the analytic bound;",
			"tightness: closer to 1 means the analysis is less pessimistic.",
		},
	}
	r := sim.NewRand(cfg.Seed)
	periods := []sim.Duration{sim.MS(5), sim.MS(10), sim.MS(20), sim.MS(50), sim.MS(100)}

	// CPU domain.
	sound := true
	tightSum, tightN := 0.0, 0
	dmOK, audOK := 0, 0
	for trial := 0; trial < cfg.Trials; trial++ {
		n := 4 + r.Intn(5)
		var tasks []sched.Task
		for i := 0; i < n; i++ {
			T := periods[r.Intn(len(periods))]
			tasks = append(tasks, sched.Task{
				Name: fmt.Sprintf("t%d", i),
				C:    r.Range(sim.US(200), T/sim.Duration(n)),
				T:    T,
				// Constrained deadlines stress the assignment algorithms.
				D: T - r.Range(0, T/4),
			})
		}
		dm := sched.AssignDeadlineMonotonic(tasks)
		okDM, rs, err := sched.Schedulable(dm)
		if err != nil {
			return nil, err
		}
		if okDM {
			dmOK++
		}
		if _, okA, err := sched.AssignAudsley(tasks); err != nil {
			return nil, err
		} else if okA {
			audOK++
		}
		if !okDM {
			continue
		}
		wcrt := map[string]sim.Duration{}
		for _, res := range rs {
			wcrt[res.Task.Name] = res.WCRT
		}
		k := sim.NewKernel()
		rec := &trace.Recorder{}
		cpu := osek.NewCPU(k, "ecu", 1, rec)
		for _, tk := range dm {
			cpu.MustAddTask(&osek.Task{Name: tk.Name, Priority: tk.Priority, WCET: tk.C, Period: tk.T, Deadline: tk.D})
		}
		cpu.Start()
		k.Run(cfg.Horizon)
		for _, tk := range dm {
			st := trace.Compute(rec.Latencies(tk.Name))
			if st.N == 0 {
				continue
			}
			if st.Max > wcrt[tk.Name] {
				sound = false
			}
			tightSum += float64(st.Max) / float64(wcrt[tk.Name])
			tightN++
		}
	}
	tab.Add("CPU/RTA", cfg.Trials, sound, tightSum/float64(max(tightN, 1)),
		fmt.Sprintf("%d/%d", dmOK, cfg.Trials), fmt.Sprintf("%d/%d", audOK, cfg.Trials))

	// CAN domain.
	ccfg := can.Config{BitRate: 500_000}
	sound = true
	tightSum, tightN = 0.0, 0
	analyzed := 0
	for trial := 0; trial < cfg.Trials; trial++ {
		n := 5 + r.Intn(8)
		var msgs []*can.Message
		for i := 0; i < n; i++ {
			msgs = append(msgs, &can.Message{
				Name: fmt.Sprintf("m%d", i), ID: uint32(i + 1),
				DLC: 1 + r.Intn(8), Period: periods[r.Intn(len(periods))],
			})
		}
		if can.TotalUtilization(ccfg, msgs) > 0.85 {
			continue
		}
		analyzed++
		rs, err := can.Analyze(ccfg, msgs)
		if err != nil {
			return nil, err
		}
		wcrt := map[string]sim.Duration{}
		allSched := true
		for _, resp := range rs {
			wcrt[resp.Message.Name] = resp.WCRT
			if !resp.Schedulable {
				allSched = false
			}
		}
		if !allSched {
			continue
		}
		k := sim.NewKernel()
		rec := &trace.Recorder{}
		bus := can.MustNewBus(k, "can0", ccfg, rec)
		for _, m := range msgs {
			bus.MustAddMessage(m)
		}
		bus.Start()
		k.Run(cfg.Horizon)
		for _, m := range msgs {
			st := trace.Compute(rec.Latencies(m.Name))
			if st.N == 0 {
				continue
			}
			if st.Max > wcrt[m.Name] {
				sound = false
			}
			tightSum += float64(st.Max) / float64(wcrt[m.Name])
			tightN++
		}
	}
	tab.Add("CAN/RTA", analyzed, sound, tightSum/float64(max(tightN, 1)), "-", "-")
	return tab, nil
}
