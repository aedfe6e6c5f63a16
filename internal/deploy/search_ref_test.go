package deploy

// The reference search loops: descend and anneal as they scored before
// cost-first ordering, every candidate move through full scoring — RTA
// verdicts of the dirty ECUs and violation text included. The production
// loops score cost-only and check RTA only for moves that could still
// win; FuzzCostFirst holds the two to the same mappings and Metrics.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"autorte/internal/model"
	"autorte/internal/race"
	"autorte/internal/sched"
	"autorte/internal/sim"
)

// refDescend is descend with every candidate of a round scored in full
// and the strictly cheapest improving move (lowest index on ties)
// applied.
func refDescend(ev *Evaluator, sys *model.System, obj Objective, maxIters int) (*model.System, Metrics, error) {
	cons := ev.Cons
	cons.fill()
	if err := cons.Validate(); err != nil {
		return nil, Metrics{}, err
	}
	prep, err := ev.prepare(sys)
	if err != nil {
		return nil, Metrics{}, err
	}
	b := prep.b
	curCost := prep.Evaluate().Cost(obj)
	compOrder := byName(len(b.comps), func(i int) string { return b.comps[i].name })
	type move struct{ ci, ei int }
	for iter := 0; iter < maxIters; iter++ {
		var moves []move
		for _, ci := range compOrder {
			for _, ei := range b.ecuByName {
				if prep.curIdx[ci] != ei {
					moves = append(moves, move{ci, ei})
				}
			}
		}
		costs := make([]float64, len(moves))
		for i, mv := range moves {
			costs[i] = prep.scoreMove(mv.ci, mv.ei, true).Cost(obj)
		}
		best := -1
		for i := range moves {
			if costs[i] < curCost && (best == -1 || costs[i] < costs[best]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		prep.apply(moves[best].ci, moves[best].ei)
		curCost = costs[best]
	}
	m := prep.Evaluate()
	if !m.Feasible {
		return nil, Metrics{}, fmt.Errorf("deploy: descent result infeasible: %v", m.Violations)
	}
	return withMapping(sys, prep.Mapping()), m, nil
}

// refAnneal is anneal with every candidate move scored in full; it
// returns the best mapping's full Metrics.
func refAnneal(ev *Evaluator, sys *model.System, obj Objective, seed uint64, iters int) (*model.System, Metrics, error) {
	prep, err := ev.prepare(sys)
	if err != nil {
		return nil, Metrics{}, err
	}
	nComps, nECUs := len(prep.b.comps), len(prep.b.ecus)
	bestM := prep.Evaluate()
	bestCost := bestM.Cost(obj)
	curCost := bestCost
	best := append([]int(nil), prep.curIdx...)
	r := sim.NewRand(seed)
	temp := bestCost * 0.05
	if temp <= 0 {
		temp = 1
	}
	for i := 0; i < iters && nComps > 0 && nECUs > 0; i++ {
		ci, ei := r.Intn(nComps), r.Intn(nECUs)
		if prep.curIdx[ci] == ei {
			continue
		}
		m := prep.scoreMove(ci, ei, true)
		cost := m.Cost(obj)
		accept := cost <= curCost
		if !accept && !math.IsInf(cost, 1) {
			accept = r.Float64() < math.Exp((curCost-cost)/temp)
		}
		if accept {
			prep.apply(ci, ei)
			curCost = cost
			if cost < bestCost {
				copy(best, prep.curIdx)
				bestM, bestCost = m, cost
			}
		}
		temp *= 0.995
	}
	if math.IsInf(bestCost, 1) {
		return nil, Metrics{}, fmt.Errorf("deploy: annealing found no feasible mapping")
	}
	return withMapping(sys, prep.b.mapping(best)), bestM, nil
}

// sameCost reports whether two costs are bit-identical.
func sameCost(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameOutcome fails unless a search and its reference agree: both fail
// with the same error, or both return the same mapping.
func sameOutcome(t *testing.T, name string, got, want *model.System, gotErr, wantErr error) bool {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return false
	}
	if !reflect.DeepEqual(got.Mapping, want.Mapping) {
		t.Fatalf("%s: mapping diverges from the reference\ngot:  %v\nwant: %v", name, got.Mapping, want.Mapping)
	}
	return true
}

// FuzzCostFirst holds cost-first scoring to full scoring under random
// replicated systems, mappings and constraints (RequireSchedulable,
// RespectMemory, RespectASIL, MaxASILSpread and the fault models
// FuzzFaultSweep draws): a cost-only score equals EvaluateMove's Cost
// wherever that is finite and is +Inf or fails its RTA verdicts where it
// is not; MoveCost equals it always; and Descend and Anneal return their
// reference's mapping and Metrics. The input is FuzzFaultSweep's layout
// followed by, one byte each: constraint flags (RespectMemory,
// RespectASIL, MaxASILSpread = [0 1 2 -1][flags>>2 % 4]), the
// unavailability weight, descent rounds (1 or 2) and the annealing
// seed.
func FuzzCostFirst(f *testing.F) {
	// roundRobin maps n components over the vehicle's twelve ECUs.
	roundRobin := func(n int) []byte {
		m := make([]byte, n)
		for i := range m {
			m[i] = byte(i % 12)
		}
		return m
	}
	// The redundancy fixture, nothing extra.
	f.Add([]byte{0, 0, 0})
	// Vehicle under RequireSchedulable, four moves, then RespectMemory,
	// RespectASIL and the strict spread, two descent rounds.
	f.Add(slices.Concat([]byte{1, 0, 0, 4, 0, 0}, roundRobin(39),
		[]byte{0, 3, 1, 1, 2, 2, 3, 3, 15, 0, 15, 0, 1, 7}))
	// Vehicle with a passive and an active standby under the place
	// workload's model (Soft + singletons) plus RTA, two moves, priced
	// unavailability, two descent rounds.
	f.Add(slices.Concat([]byte{1, 0, 2, 5, 1, 0, 17, 1, 1, 7, 0, 0}, roundRobin(41),
		[]byte{0, 1, 0, 1, 5, 6, 0, 2, 3, 42}))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		fc, err := decodeFuzzCase(&in)
		if err != nil {
			t.Skip(err)
		}
		flags := in.next(256)
		fc.cons.RespectMemory = flags&1 != 0
		fc.cons.RespectASIL = flags&2 != 0
		fc.cons.MaxASILSpread = []int{0, 1, 2, -1}[flags>>2%4]
		obj := DefaultObjective()
		obj.WAvail = 500 * float64(in.next(3))
		rounds := 1 + in.next(2)
		seed := uint64(in.next(256))

		bound, err := NewEvaluator(fc.cons).Bind(fc.sys)
		if err != nil {
			t.Skip(err) // not a valid topology: nothing to score
		}
		prep, err := bound.Prepare(fc.sys.Mapping)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		for _, mv := range fc.moves {
			ci, ei := bound.compIdx[mv[0]], bound.ecuIdx[mv[1]]
			costOnly := prep.scoreMove(ci, ei, false).Cost(obj)
			sched := prep.schedulable(ci, ei)
			cost := prep.MoveCost(mv[0], mv[1], obj)
			full := prep.EvaluateMove(mv[0], mv[1]).Cost(obj)
			if math.IsInf(full, 1) {
				if !math.IsInf(costOnly, 1) && sched {
					t.Fatalf("move %s->%s: cost-only %v passes RTA but full scoring is infeasible", mv[0], mv[1], costOnly)
				}
			} else if !sameCost(costOnly, full) || !sched {
				t.Fatalf("move %s->%s: cost-only %v (schedulable %v), full %v", mv[0], mv[1], costOnly, sched, full)
			}
			if !sameCost(cost, full) {
				t.Fatalf("move %s->%s: MoveCost %v, full %v", mv[0], mv[1], cost, full)
			}
			prep.apply(ci, ei)
		}

		got, gotM, gotErr := descend(NewEvaluator(fc.cons), fc.sys, obj, rounds)
		want, wantM, wantErr := refDescend(NewEvaluator(fc.cons), fc.sys, obj, rounds)
		if sameOutcome(t, "descend", got, want, gotErr, wantErr) && !reflect.DeepEqual(gotM, wantM) {
			t.Fatalf("descend: metrics diverge\ngot:  %+v\nwant: %+v", gotM, wantM)
		}
		got, gotCost, gotErr := anneal(NewEvaluator(fc.cons), fc.sys, obj, seed, 100)
		want, wantM, wantErr = refAnneal(NewEvaluator(fc.cons), fc.sys, obj, seed, 100)
		if sameOutcome(t, "anneal", got, want, gotErr, wantErr) {
			if !sameCost(gotCost, wantM.Cost(obj)) {
				t.Fatalf("anneal: cost %v, reference %v", gotCost, wantM.Cost(obj))
			}
			if m := refEvaluate(NewEvaluator(fc.cons), got); !reflect.DeepEqual(m, wantM) {
				t.Fatalf("anneal: metrics diverge\ngot:  %+v\nwant: %+v", m, wantM)
			}
		}
	})
}

// Under RequireSchedulable, cost-first descent confirms only the moves
// that could win: on the scale-1 vehicle it returns the reference's
// mapping with at most a tenth of its response-time analyses.
func TestDescendCostFirstSkipsRTA(t *testing.T) {
	sys := vehicle(t, 1)
	cons := Constraints{RequireSchedulable: true}
	ev, ref := NewEvaluator(cons), NewEvaluator(cons)
	var n, refN int
	observeRTA(ev, func([]sched.Task) { n++ })
	observeRTA(ref, func([]sched.Task) { refN++ })
	got, _, err := descend(ev, sys, DefaultObjective(), 16)
	want, _, refErr := refDescend(ref, sys, DefaultObjective(), 16)
	sameOutcome(t, "descend", got, want, err, refErr)
	if 10*n > refN {
		t.Fatalf("cost-first descent ran %d RTAs, the reference %d: want at most a tenth", n, refN)
	}
}

// A warm cost-only move allocates nothing, feasible or not: no violation
// text is built and the dirty ECUs' state comes from the memo.
func TestCostOnlyMoveAllocsNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops a share of sync.Pool Puts on purpose")
	}
	sys := vehicle(t, 1)
	bound, err := NewEvaluator(Constraints{RequireSchedulable: true}).Bind(sys)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := bound.Prepare(sys.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	obj := DefaultObjective()
	feasible, infeasible := [2]int{-1, -1}, [2]int{-1, -1}
	for ci := range bound.comps {
		for ei := range bound.ecus {
			if prep.curIdx[ci] == ei {
				continue
			}
			if math.IsInf(prep.scoreMove(ci, ei, false).Cost(obj), 1) {
				if infeasible[0] < 0 {
					infeasible = [2]int{ci, ei}
				}
			} else if feasible[0] < 0 {
				feasible = [2]int{ci, ei}
			}
		}
	}
	if feasible[0] < 0 || infeasible[0] < 0 {
		t.Fatalf("want a feasible and an infeasible move, got %v and %v", feasible, infeasible)
	}
	for _, mv := range [][2]int{feasible, infeasible} {
		if n := testing.AllocsPerRun(100, func() { prep.scoreMove(mv[0], mv[1], false) }); n != 0 {
			t.Fatalf("warm cost-only move %v allocates %v, want 0", mv, n)
		}
	}
}
