package deploy

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"autorte/internal/model"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

func demoSystem(t *testing.T) *model.System {
	t.Helper()
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// Scoring a mapping through a Bound — Prepare, then Evaluate — must
// reproduce the reference scorer (refEvaluate) exactly: same
// feasibility, same violation strings in the same order, bit-identical
// cost terms, across a walk of random candidate mappings and every
// constraint shape, feasible and infeasible.
func TestBoundEvaluateMatchesUnbound(t *testing.T) {
	base := demoSystem(t)
	consSet := map[string]Constraints{
		"default":     {},
		"tight":       {MaxUtilization: 0.35},
		"strict":      {RespectASIL: true, RespectMemory: true},
		"schedulable": {RequireSchedulable: true},
		"reject-all":  {MaxUtilization: RejectAllLoad},
	}
	for name, cons := range consSet {
		t.Run(name, func(t *testing.T) {
			ev := NewEvaluator(cons)
			bound, err := ev.Bind(base)
			if err != nil {
				t.Fatalf("bind: %v", err)
			}
			cur := base.Clone()
			r := sim.NewRand(7)
			for step := 0; step < 40; step++ {
				want := refEvaluate(ev, cur)
				prep, err := bound.Prepare(cur.Mapping)
				if err != nil {
					t.Fatalf("step %d: prepare: %v", step, err)
				}
				got := prep.Evaluate()
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("step %d: bound metrics diverge\nreference: %+v\nbound:     %+v", step, want, got)
				}
				obj := DefaultObjective()
				wc, gc := want.Cost(obj), got.Cost(obj)
				if wc != gc && !(math.IsInf(wc, 1) && math.IsInf(gc, 1)) {
					t.Fatalf("step %d: cost diverges: %v vs %v", step, wc, gc)
				}
				// Random single-component move for the next step.
				c := cur.Components[r.Intn(len(cur.Components))]
				e := cur.ECUs[r.Intn(len(cur.ECUs))]
				cur.Mapping[c.Name] = e.Name
			}
		})
	}
}

// Degenerate mappings on a bound evaluator: an unmapped component and a
// mapping onto an unknown ECU score infeasible through Evaluate, Prepare
// refuses them, and an unknown-ECU move from a prepared incumbent scores
// infeasible with exactly the diagnostic Evaluate emits for that
// mapping.
func TestBoundEvaluateDegenerateMappings(t *testing.T) {
	base := demoSystem(t)
	ev := NewEvaluator(Constraints{RequireSchedulable: true})
	bound, err := ev.Bind(base)
	if err != nil {
		t.Fatal(err)
	}

	unmapped := base.Clone()
	delete(unmapped.Mapping, unmapped.Components[0].Name)
	if ev.Evaluate(unmapped).Feasible {
		t.Fatal("unmapped component should be infeasible")
	}
	if _, err := bound.Prepare(unmapped.Mapping); err == nil {
		t.Fatal("prepare should reject an unmapped component")
	}

	comp := base.Components[0].Name
	ghost := base.Clone()
	ghost.Mapping[comp] = "no-such-ecu"
	want := ev.Evaluate(ghost)
	if want.Feasible {
		t.Fatal("unknown-ECU mapping should be infeasible")
	}
	if _, err := bound.Prepare(ghost.Mapping); err == nil {
		t.Fatal("prepare should reject a mapping onto an unknown ECU")
	}
	prep, err := bound.Prepare(base.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	got := prep.EvaluateMove(comp, "no-such-ecu")
	if got.Feasible || len(got.Violations) != 1 || !slices.Contains(want.Violations, got.Violations[0]) {
		t.Fatalf("unknown-ECU move scored %+v; Evaluate's violations %q", got, want.Violations)
	}
}

// One Bound must be safe to share: goroutines that each Prepare and
// Evaluate the same mapping all reproduce Evaluate's score (run with
// -race).
func TestBoundEvaluateConcurrent(t *testing.T) {
	base := demoSystem(t)
	ev := NewEvaluator(Constraints{RequireSchedulable: true})
	bound, err := ev.Bind(base)
	if err != nil {
		t.Fatal(err)
	}
	want := ev.Evaluate(base)
	done := make(chan Metrics, 8)
	for g := 0; g < 8; g++ {
		go func() {
			prep, err := bound.Prepare(base.Mapping)
			if err != nil {
				done <- Metrics{Violations: []string{err.Error()}}
				return
			}
			done <- prep.Evaluate()
		}()
	}
	for g := 0; g < 8; g++ {
		if got := <-done; !reflect.DeepEqual(want, got) {
			t.Fatalf("concurrent bound evaluation diverged: %+v vs %+v", want, got)
		}
	}
}

// Bind must refuse an invalid base topology; the searches surface that
// refusal as an error (TestSearchesHandleDegenerateSystems).
func TestBindRejectsInvalidTopology(t *testing.T) {
	sys := demoSystem(t)
	sys.ECUs[0].Speed = 0
	if _, err := NewEvaluator(Constraints{}).Bind(sys); err == nil {
		t.Fatal("Bind accepted an invalid topology")
	}
}

// A Bound snapshots the evaluator's Constraints at Bind: changing
// ev.Cons afterwards must change neither the incumbent's score nor a
// move's, while a fresh Bind does see the new constraints.
func TestBoundSnapshotsConstraints(t *testing.T) {
	base := redSystem(t)
	ev := NewEvaluator(Constraints{Faults: FaultModel{MaxConcurrent: 2}})
	bound, err := ev.Bind(base)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := bound.Prepare(base.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	score := func() []Metrics {
		return []Metrics{prep.Evaluate(), prep.EvaluateMove("Act", "e3"), prep.EvaluateMove("Ctrl#1", "e3")}
	}
	before := score()
	changed := []Constraints{
		{MaxUtilization: 0.001, RequireSchedulable: true, Faults: FaultModel{Soft: true, IncludeSingletons: true}},
		{MaxUtilization: 2}, // invalid: Validate rejects it
		{Faults: FaultModel{Losses: []Loss{{Kind: LossBus, Buses: []string{"can0"}}}}},
	}
	for _, cons := range changed {
		ev.Cons = cons
		if after := score(); !reflect.DeepEqual(before, after) {
			t.Fatalf("Cons %+v changed after Bind leaked into the Bound\nbefore: %+v\nafter:  %+v", cons, before, after)
		}
		if fresh := ev.Evaluate(base); reflect.DeepEqual(fresh, before[0]) {
			t.Fatalf("Cons %+v does not change a fresh Evaluate's score; the test proves nothing", cons)
		}
	}
}
