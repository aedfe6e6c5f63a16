package autorte

// The benchmark harness: one benchmark per experiment E1–E13 (DESIGN.md's
// experiment index). Each runs the experiment at its published default
// configuration; the measured shapes are recorded in EXPERIMENTS.md.
// Run with:
//
//	go test -bench=. -benchmem
//
// Reported ns/op is the wall-clock cost of regenerating the experiment's
// table; the experiment results themselves are deterministic in virtual
// time and independent of the host.

import (
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"autorte/internal/core"
	"autorte/internal/deploy"
	"autorte/internal/experiments"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

// benchSettle levels the heap before a measured on/off comparison: the
// garbage left by the previous sub-benchmark otherwise bills its GC debt
// to whichever variant runs next, which a tight ratio gate (benchguard
// -flightratio) would misread as real overhead.
func benchSettle(b *testing.B) {
	b.Helper()
	runtime.GC()
	b.ResetTimer()
}

func benchTable(b *testing.B, run func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty result table")
		}
		if i == 0 && testing.Verbose() {
			tab.Render(io.Discard)
		}
	}
}

func BenchmarkE1Interference(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E1Interference(experiments.DefaultE1())
	})
}

func BenchmarkE2IsolationOverhead(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E2IsolationOverhead(experiments.DefaultE2())
	})
}

func BenchmarkE3OverrunContainment(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E3OverrunContainment(experiments.DefaultE3())
	})
}

func BenchmarkE4BusComparison(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E4BusComparison(experiments.DefaultE4())
	})
}

func BenchmarkE5AnalysisVsSim(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E5AnalysisVsSim(experiments.DefaultE5())
	})
}

func BenchmarkE6Contracts(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E6Contracts(experiments.DefaultE6())
	})
}

func BenchmarkE7Consolidation(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E7Consolidation(experiments.DefaultE7())
	})
}

func BenchmarkE8NoC(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E8NoC(experiments.DefaultE8())
	})
}

func BenchmarkE9Extensibility(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E9Extensibility(experiments.DefaultE9())
	})
}

func BenchmarkE10ErrorHandling(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E10ErrorHandling(experiments.DefaultE10())
	})
}

func BenchmarkE11FaultCampaign(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E11FaultCampaign(experiments.DefaultE11())
	})
}

func BenchmarkE12DetectionCoverage(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) {
		return experiments.E12DetectionCoverage(experiments.DefaultE12())
	})
}

// BenchmarkE13Availability measures the fail-operational deployment
// study — every candidate deployment simulated under the full ECU-kill
// and bus-burst scenario matrix — as a paired par/seq comparison: the
// GOMAXPROCS campaign against the single-worker campaign, interleaved
// within each iteration (same pairing rationale as the flight-recorder
// benchmarks). benchguard requires and gates the reported
// "par/seq-ratio" here, on E14Observer and on DSEAnnealParallel — the
// places the code runs in parallel: on a multicore host the fan-out must
// win outright, and even on a one-CPU host — where both arms degenerate
// to the same single worker — the parallel dispatch must stay within the
// overhead budget rather than becoming a tax.
func BenchmarkE13Availability(b *testing.B) {
	campaign := func(workers int) func() {
		cfg := experiments.DefaultE13()
		cfg.Workers = workers
		return func() {
			tab, err := experiments.E13Availability(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				b.Fatal("empty result table")
			}
		}
	}
	benchPairedMetric(b, "par/seq-ratio", campaign(0), campaign(1))
}

// BenchmarkE14Observer measures the multi-failure detection study — the
// single- and replicated-observer deployments under the full ECU-kill
// campaign with quorum voting on every scenario — under the same paired
// par/seq discipline as E13.
func BenchmarkE14Observer(b *testing.B) {
	campaign := func(workers int) func() {
		cfg := experiments.DefaultE14()
		cfg.Workers = workers
		return func() {
			tab, err := experiments.E14Observer(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				b.Fatal("empty result table")
			}
		}
	}
	benchPairedMetric(b, "par/seq-ratio", campaign(0), campaign(1))
}

// BenchmarkPlatformThroughput measures raw simulation speed: virtual
// events per wall second on the full generated vehicle. This is the
// substrate-cost figure behind every experiment above.
func BenchmarkPlatformThroughput(b *testing.B) {
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	events := uint64(0)
	for i := 0; i < b.N; i++ {
		p, err := rte.Build(sys.Clone(), rte.Options{})
		if err != nil {
			b.Fatal(err)
		}
		p.Run(100 * sim.Millisecond)
		events += p.K.Executed()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// benchPairedRatio times recorder-on and recorder-off in pairs within
// one benchmark run — each pair's order drawn at random — and reports
// the cumulative on/off ns ratio as the "on/off-ratio" metric benchguard
// gates. Pairing is what makes a 5% budget measurable: each on sample
// runs milliseconds from its off partner, so machine-level noise
// episodes (shared-runner co-tenancy, frequency shifts) hit both sides
// and cancel, where independently sampled on/off minima would need
// hundreds of repeats to converge that tightly.
func benchPairedRatio(b *testing.B, on, off func()) {
	b.Helper()
	benchPairedMetric(b, "on/off-ratio", on, off)
}

// benchPairedMetric is the general paired comparison: cumulative
// on-ns / off-ns reported under the given metric name. A seeded generator
// picks each pair's order. Strict on/off, off/on alternation can lock
// onto the garbage collector: with a cycle every fourth timed run, every
// cycle lands on the same side and the ratio reads several percent off
// (PlatformFlight read 0.93 or 1.17 that way). Drawn orders spread the
// collections over both sides, and the fixed seed draws the same orders
// on every run.
func benchPairedMetric(b *testing.B, metric string, on, off func()) {
	b.Helper()
	benchSettle(b)
	var onNs, offNs int64
	timed := func(f func()) int64 {
		t0 := time.Now()
		f()
		return time.Since(t0).Nanoseconds()
	}
	order := sim.NewRand(1)
	for i := 0; i < b.N; i++ {
		if order.Intn(2) == 0 {
			onNs += timed(on)
			offNs += timed(off)
		} else {
			offNs += timed(off)
			onNs += timed(on)
		}
	}
	if offNs > 0 {
		b.ReportMetric(float64(onNs)/float64(offNs), metric)
	}
}

// BenchmarkPlatformFlight pins the cost of the always-on flight
// recorder on the raw simulation path: the full generated vehicle with
// the recorder plus a 10ms virtual-time sampler armed (the default
// observability posture) against the recorder disabled. benchguard
// holds the reported on/off-ratio to the observability budget.
func BenchmarkPlatformFlight(b *testing.B) {
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	run := func(opts rte.Options, sampled bool) {
		p, err := rte.Build(sys.Clone(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if sampled {
			p.EnableSampling(10*sim.Millisecond, nil)
		}
		p.Run(100 * sim.Millisecond)
	}
	benchPairedRatio(b,
		func() { run(rte.Options{}, true) },
		func() { run(rte.Options{DisableFlight: true}, false) })
}

// BenchmarkE11Flight is the same on/off comparison on the
// fault-injection campaign: every scenario platform carries the
// recorder, so the campaign is the worst case for recorder overhead
// outside microbenchmarks.
func BenchmarkE11Flight(b *testing.B) {
	campaign := func(disable bool) func() {
		cfg := experiments.DefaultE11()
		cfg.DisableFlight = disable
		return func() {
			tab, err := experiments.E11FaultCampaign(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				b.Fatal("empty result table")
			}
		}
	}
	benchPairedRatio(b, campaign(false), campaign(true))
}

// ---------------------------------------------------------------------
// Verification & DSE pipeline benchmarks. Three demo-vehicle sizes; for
// each, `uncached` runs without the CAN analysis cache and `cached` with
// it (the one analysis memo; the sweep's cached arm also binds once).
// Both run on the caller's goroutine. Reports are byte-identical between the two
// (TestVerifyParallelMatchesSequential); the numbers go into
// EXPERIMENTS.md.

func vehicleSpecSized(scale int) workload.VehicleSpec {
	dases := workload.DefaultDASes()
	for i := range dases {
		dases[i].Chains *= scale
	}
	bitRate := int64(500_000 * scale)
	if bitRate > 1_000_000 {
		bitRate = 1_000_000 // classic CAN tops out at 1 Mbit/s
	}
	return workload.VehicleSpec{
		DASes: dases,
		// Every generated chain carries a verified end-to-end latency
		// constraint, so the chain count in the size label is the number of
		// chains Verify actually analyzes. The backbone bit rate scales with
		// the signal population to keep the frame set schedulable.
		ChainConstraints: true,
		BusBitRate:       bitRate,
	}
}

var verifySizes = []struct {
	name  string
	scale int
}{
	{"small-13chains", 1},
	{"medium-26chains", 2},
	{"large-52chains", 4},
}

func demoVehicleScaled(b *testing.B, scale int) *model.System {
	b.Helper()
	sys, err := workload.GenerateVehicle(vehicleSpecSized(scale), sim.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkVerify measures one full static verification of the demo
// vehicle. uncached/cached differ only in the CAN analysis cache, which a
// single cold pass fills but cannot hit.
func BenchmarkVerify(b *testing.B) {
	for _, size := range verifySizes {
		sys := demoVehicleScaled(b, size.scale)
		b.Run(size.name+"/uncached", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&core.Pipeline{}).Verify(sys, nil, rte.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size.name+"/cached", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := core.NewPipeline(0)
				if _, err := p.Verify(sys, nil, rte.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyFlight is the recorder on/off comparison on the
// pipeline's hottest path: the large cached verify, which builds a
// simulated platform (now carrying the flight recorder by default) per
// run.
func BenchmarkVerifyFlight(b *testing.B) {
	sys := demoVehicleScaled(b, 4)
	verify := func(opts rte.Options) func() {
		return func() {
			p := core.NewPipeline(0)
			if _, err := p.Verify(sys, nil, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	benchPairedRatio(b, verify(rte.Options{}), verify(rte.Options{DisableFlight: true}))
}

// dseCandidates builds a deterministic stream of single-move candidate
// systems around the consolidated demo vehicle — the access pattern of
// the deployment search, where successive candidates share most ECU task
// sets.
func dseCandidates(b *testing.B, sys *model.System, n int) (*model.System, []*model.System) {
	b.Helper()
	consolidated, err := deploy.Greedy(sys, deploy.Constraints{})
	if err != nil {
		b.Fatal(err)
	}
	var comps, ecus []string
	for _, c := range consolidated.Components {
		comps = append(comps, c.Name)
	}
	for _, e := range consolidated.ECUs {
		ecus = append(ecus, e.Name)
	}
	sort.Strings(comps)
	sort.Strings(ecus)
	out := make([]*model.System, 0, n)
	for i := 0; len(out) < n; i++ {
		cand := consolidated.Clone()
		comp := comps[i%len(comps)]
		ecu := ecus[(i*7+3)%len(ecus)]
		if cand.Mapping[comp] == ecu {
			continue
		}
		cand.Mapping[comp] = ecu
		out = append(out, cand)
	}
	return consolidated, out
}

// BenchmarkVerifyDSESweep measures a full Verify+DSE pass: score a
// 32-candidate sweep under RequireSchedulable, then statically verify the
// winner. uncached is the pre-pipeline workflow — every candidate scored
// by deploy.Evaluate, a fresh Bind per candidate, the winner verified
// without the CAN cache. cached is the pipeline workflow — candidates
// scored through one Bind (Prepare, then Evaluate), the winner verified
// through a pipeline whose CAN cache persists across iterations. Both
// pick the same winner and produce
// byte-identical reports (both score through the same Bound;
// TestVerifyParallelMatchesSequential holds the two verifiers together).
func BenchmarkVerifyDSESweep(b *testing.B) {
	const candidates = 32
	cons := deploy.Constraints{RequireSchedulable: true}
	obj := deploy.DefaultObjective()
	for _, size := range verifySizes {
		sys := demoVehicleScaled(b, size.scale)
		_, cands := dseCandidates(b, sys, candidates)
		b.Run(size.name+"/uncached", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				best, bestCost := 0, math.Inf(1)
				for j, cand := range cands {
					if cost := deploy.Evaluate(cand, cons).Cost(obj); cost < bestCost {
						best, bestCost = j, cost
					}
				}
				if _, err := (&core.Pipeline{}).Verify(cands[best], nil, rte.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size.name+"/cached", func(b *testing.B) {
			ev := deploy.NewEvaluator(cons)
			bound, err := ev.Bind(cands[0])
			if err != nil {
				b.Fatal(err)
			}
			p := core.NewPipeline(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				best, bestCost := 0, math.Inf(1)
				for j, cand := range cands {
					prep, err := bound.Prepare(cand.Mapping)
					if err != nil {
						b.Fatal(err)
					}
					if cost := prep.Evaluate().Cost(obj); cost < bestCost {
						best, bestCost = j, cost
					}
				}
				if _, err := p.Verify(cands[best], nil, rte.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyDSESweepInc is the sweep with the delta layers engaged:
// candidates scored through the prepared (per-move) evaluator, the winner
// re-verified through core.Incremental — only the ECUs, buses and chains
// the winning move touches are re-analyzed, against the cached variant's
// full re-verification. Each iteration advances the incumbent to the
// winner and back, so every pass exercises two real single-move deltas.
func BenchmarkVerifyDSESweepInc(b *testing.B) {
	const candidates = 32
	cons := deploy.Constraints{RequireSchedulable: true}
	obj := deploy.DefaultObjective()
	for _, size := range verifySizes {
		sys := demoVehicleScaled(b, size.scale)
		base, cands := dseCandidates(b, sys, candidates)
		// The single move behind each candidate, diffed once up front.
		type move struct{ comp, ecu string }
		moves := make([]move, len(cands))
		for j, cand := range cands {
			for c, e := range cand.Mapping {
				if base.Mapping[c] != e {
					moves[j] = move{c, e}
					break
				}
			}
		}
		b.Run(size.name+"/inc", func(b *testing.B) {
			ev := deploy.NewEvaluator(cons)
			bound, err := ev.Bind(base)
			if err != nil {
				b.Fatal(err)
			}
			prep, err := bound.Prepare(base.Mapping)
			if err != nil {
				b.Fatal(err)
			}
			p := core.NewPipeline(0)
			inc, err := core.NewIncremental(p, base.Clone(), nil, rte.Options{})
			if err != nil {
				b.Fatal(err)
			}
			baseMapping := map[string]string{}
			for c, e := range base.Mapping {
				baseMapping[c] = e
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				best, bestCost := 0, math.Inf(1)
				for j := range cands {
					if cost := prep.EvaluateMove(moves[j].comp, moves[j].ecu).Cost(obj); cost < bestCost {
						best, bestCost = j, cost
					}
				}
				if _, err := inc.Reverify(cands[best].Mapping); err != nil {
					b.Fatal(err)
				}
				// Return to the incumbent so the next pass re-verifies the
				// same single-move delta instead of a no-op.
				if _, err := inc.Reverify(baseMapping); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDSEDescend measures the schedulability-constrained descent
// search, refining the Greedy consolidation (dense task sets, where RTA
// dominates candidate evaluation). The incumbent's move memo keeps each
// dirty ECU's verdict; no analysis cache outlives the call.
func BenchmarkDSEDescend(b *testing.B) {
	sys, _ := dseCandidates(b, demoVehicleScaled(b, 2), 1)
	cons := deploy.Constraints{RequireSchedulable: true}
	obj := deploy.DefaultObjective()
	for i := 0; i < b.N; i++ {
		if _, err := deploy.Descend(sys, cons, obj, 0, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSEAnnealParallel measures the restart-based annealing search
// (4 chains) as a paired par/seq comparison under the same discipline as
// E13: AnnealParallel on GOMAXPROCS workers against the same call on one
// worker. Each call builds its own evaluator, so both arms run the same
// code and the ratio credits only the fan-out.
func BenchmarkDSEAnnealParallel(b *testing.B) {
	sys := demoVehicleScaled(b, 1)
	cons := deploy.Constraints{}
	obj := deploy.DefaultObjective()
	const iters, restarts = 300, 4
	anneal := func(workers int) func() {
		return func() {
			if _, err := deploy.AnnealParallel(sys, cons, obj, 99, iters, restarts, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
	benchPairedMetric(b, "par/seq-ratio", anneal(0), anneal(1))
}

// The place workload's fault model and objective (rtebench/search.go):
// soft k-of-n ECU loss with singleton groups, unavailability priced by
// WAvail.
var (
	placeCons = deploy.Constraints{Faults: deploy.FaultModel{Soft: true, IncludeSingletons: true}}
	placeObj  = deploy.Objective{WECU: 1000, WHarness: 10, WLoad: 1, WAvail: 100_000}
)

// BenchmarkEvaluateMove measures one warm single-component move scored
// by Prepared.EvaluateMove on the scale-1 vehicle, cycling through every
// (component, ECU) move of the seed mapping: sched under
// RequireSchedulable (per-ECU RTA, memoized against the incumbent),
// faults under the place workload's fault model (the fail-operational
// sweep runs on every move). cost scores the sched moves cost first
// through Prepared.MoveCost, the way the searches do: no violation text,
// RTA verdicts only for moves that are otherwise feasible. ns/move is
// the unit cost every search pays per candidate.
func BenchmarkEvaluateMove(b *testing.B) {
	sys := demoVehicleScaled(b, 1)
	type move struct{ comp, ecu string }
	var moves []move
	for _, c := range sys.Components {
		for _, e := range sys.ECUs {
			if sys.Mapping[c.Name] != e.Name {
				moves = append(moves, move{c.Name, e.Name})
			}
		}
	}
	obj := deploy.DefaultObjective()
	evaluate := func(p *deploy.Prepared, mv move) { p.EvaluateMove(mv.comp, mv.ecu) }
	for _, tc := range []struct {
		name  string
		cons  deploy.Constraints
		score func(*deploy.Prepared, move)
	}{
		{"sched", deploy.Constraints{RequireSchedulable: true}, evaluate},
		{"faults", placeCons, evaluate},
		{"cost", deploy.Constraints{RequireSchedulable: true}, func(p *deploy.Prepared, mv move) { p.MoveCost(mv.comp, mv.ecu, obj) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			bound, err := deploy.NewEvaluator(tc.cons).Bind(sys)
			if err != nil {
				b.Fatal(err)
			}
			prep, err := bound.Prepare(sys.Mapping)
			if err != nil {
				b.Fatal(err)
			}
			for _, mv := range moves {
				tc.score(prep, mv) // warm the incumbent's memo
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.score(prep, moves[i%len(moves)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/move")
		})
	}
}

// BenchmarkPlaceReplicas measures the fail-operational deployment
// calculation of the place workload: PlaceReplicas of the scale-1
// vehicle's first two chassis controllers under its fault model, four
// descent rounds per scored configuration.
func BenchmarkPlaceReplicas(b *testing.B) {
	sys := demoVehicleScaled(b, 1)
	var cands []string
	for _, c := range sys.Components {
		if c.DAS == "chassis" && strings.HasSuffix(c.Name, "_ctrl") && len(cands) < 2 {
			cands = append(cands, c.Name)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := deploy.PlaceReplicas(sys, placeCons, placeObj, deploy.PlacementOptions{
			Candidates: cands, DescendIters: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchangeRoundTrip measures the template import/export path.
func BenchmarkExchangeRoundTrip(b *testing.B) {
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() {
			done <- model.Export(pw, sys)
			pw.Close()
		}()
		if _, err := model.Import(pr); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}
