package deploy

import (
	"reflect"
	"slices"
	"testing"

	"autorte/internal/model"
	"autorte/internal/race"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

// The delta evaluator must reproduce the unbound evaluation exactly — same
// feasibility, same violation strings in the same order, bit-identical
// cost terms — for every scored move, across constraint shapes and as the
// incumbent advances through applied moves.
func TestPreparedEvaluateMoveMatchesBoundEvaluate(t *testing.T) {
	base := demoSystem(t)
	consSet := map[string]Constraints{
		"default":     {},
		"tight":       {MaxUtilization: 0.35},
		"strict":      {RespectASIL: true, RespectMemory: true},
		"schedulable": {RequireSchedulable: true},
		"everything":  {MaxUtilization: 0.5, RespectASIL: true, RespectMemory: true, RequireSchedulable: true},
	}
	for name, cons := range consSet {
		t.Run(name, func(t *testing.T) {
			ev := NewEvaluator(cons)
			bound, err := ev.Bind(base)
			if err != nil {
				t.Fatalf("bind: %v", err)
			}
			prep, err := bound.Prepare(base.Mapping)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			r := sim.NewRand(11)
			for step := 0; step < 60; step++ {
				comp := base.Components[r.Intn(len(base.Components))].Name
				ecu := base.ECUs[r.Intn(len(base.ECUs))].Name
				cand := base.Clone()
				cand.Mapping = prep.Mapping()
				cand.Mapping[comp] = ecu
				want := ev.Evaluate(cand)
				got := prep.EvaluateMove(comp, ecu)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("step %d (%s -> %s): delta metrics diverge\nunbound: %+v\ndelta:   %+v", step, comp, ecu, want, got)
				}
				// Advance the incumbent on every third step so both paths
				// walk the same trajectory.
				if step%3 == 0 {
					if err := prep.Apply(comp, ecu); err != nil {
						t.Fatalf("apply: %v", err)
					}
					if in := prep.Evaluate(); !reflect.DeepEqual(want, in) {
						t.Fatalf("step %d: incumbent evaluation diverges after apply", step)
					}
				}
			}
		})
	}
}

// Score-only calls must be safe to fan out concurrently over one shared
// incumbent — the parallel steepest-descent shape. Sharing the Bound itself
// is TestBoundEvaluateConcurrent.
func TestPreparedEvaluateMoveConcurrent(t *testing.T) {
	base := demoSystem(t)
	ev := NewEvaluator(Constraints{RequireSchedulable: true})
	bound, err := ev.Bind(base)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := bound.Prepare(base.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	type move struct{ comp, ecu string }
	var moves []move
	var want []Metrics
	for _, c := range base.Components {
		for _, e := range base.ECUs[:4] {
			cand := base.Clone()
			cand.Mapping[c.Name] = e.Name
			moves = append(moves, move{c.Name, e.Name})
			want = append(want, ev.Evaluate(cand))
		}
	}
	done := make(chan int, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			bad := -1
			for i := g; i < len(moves); i += 8 {
				if got := prep.EvaluateMove(moves[i].comp, moves[i].ecu); !reflect.DeepEqual(got, want[i]) {
					bad = i
					break
				}
			}
			done <- bad
		}(g)
	}
	for g := 0; g < 8; g++ {
		if bad := <-done; bad != -1 {
			t.Fatalf("concurrent EvaluateMove diverged on move %d (%s -> %s)", bad, moves[bad].comp, moves[bad].ecu)
		}
	}
}

// Prepare must reject mappings outside the DSE invariant — which the
// unbound evaluator scores infeasible — and an unknown move target must
// score infeasible with the diagnostic vfb.Resolve gives, without
// corrupting the incumbent.
func TestPreparedRejectsIncompleteMapping(t *testing.T) {
	base := demoSystem(t)
	ev := NewEvaluator(Constraints{RequireSchedulable: true})
	bound, err := ev.Bind(base)
	if err != nil {
		t.Fatal(err)
	}
	unmapped := base.Clone()
	delete(unmapped.Mapping, base.Components[0].Name)
	stray := base.Clone()
	stray.Mapping["ghost"] = base.ECUs[0].Name
	ghost := base.Clone()
	ghost.Mapping[base.Components[0].Name] = "no-such-ecu"
	for name, sys := range map[string]*model.System{"missing component": unmapped, "stray entry": stray, "unknown ECU": ghost} {
		if _, err := bound.Prepare(sys.Mapping); err == nil {
			t.Fatalf("prepare should reject a mapping with a %s", name)
		}
		if m := ev.Evaluate(sys); m.Feasible {
			t.Fatalf("unbound evaluation of a mapping with a %s should be infeasible", name)
		}
	}
	prep, err := bound.Prepare(base.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	before := prep.Evaluate()
	comp := base.Components[0].Name
	got := prep.EvaluateMove(comp, "no-such-ecu")
	diag := `mapping of ` + comp + ` references unknown ECU "no-such-ecu"`
	if got.Feasible || len(got.Violations) != 1 || got.Violations[0] != diag {
		t.Fatalf("unknown-ECU move scored %+v, want infeasible with %q", got, diag)
	}
	if !slices.Contains(ev.Evaluate(ghost).Violations, diag) {
		t.Fatalf("unbound evaluation lacks the %q diagnostic", diag)
	}
	got = prep.EvaluateMove("ghost", base.ECUs[0].Name)
	if got.Feasible || len(got.Violations) != 1 || got.Violations[0] != `mapping references unknown component "ghost"` {
		t.Fatalf("unknown-component move scored %+v", got)
	}
	if err := prep.Apply(comp, "no-such-ecu"); err == nil {
		t.Fatal("apply onto an unknown ECU should error")
	}
	if err := prep.Apply("ghost", base.ECUs[0].Name); err == nil {
		t.Fatal("apply of an unknown component should error")
	}
	if after := prep.Evaluate(); !reflect.DeepEqual(before, after) {
		t.Fatal("rejected moves changed the incumbent")
	}
}

// A warm move under the placement fault model allocates nothing: the
// fault model is resolved at Bind and the sweep's scratch is pooled. The
// scale-2 vehicle (twice the components, hence twice the singleton
// groups) checks that this does not depend on the system's size.
func TestEvaluateMoveAllocsIndependentOfScale(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops a share of sync.Pool Puts on purpose")
	}
	cons := Constraints{Faults: FaultModel{Soft: true, IncludeSingletons: true}}
	var allocs [2]float64
	for i, scale := range []int{1, 2} {
		dases := workload.DefaultDASes()
		for j := range dases {
			dases[j].Chains *= scale
		}
		sys, err := workload.GenerateVehicle(workload.VehicleSpec{DASes: dases}, sim.NewRand(1))
		if err != nil {
			t.Fatal(err)
		}
		bound, err := NewEvaluator(cons).Bind(sys)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := bound.Prepare(sys.Mapping)
		if err != nil {
			t.Fatal(err)
		}
		// The first move of the seed mapping that stays violation-free, so
		// no diagnostic string is formatted on either vehicle.
		comp, ecu := "", ""
		for _, c := range sys.Components {
			for _, e := range sys.ECUs {
				if comp == "" && sys.Mapping[c.Name] != e.Name && len(prep.EvaluateMove(c.Name, e.Name).Violations) == 0 {
					comp, ecu = c.Name, e.Name
				}
			}
		}
		if comp == "" {
			t.Fatalf("scale %d: no violation-free move", scale)
		}
		allocs[i] = testing.AllocsPerRun(100, func() { prep.EvaluateMove(comp, ecu) })
	}
	if allocs != [2]float64{} {
		t.Fatalf("warm EvaluateMove allocates %v at scale 1 and %v at scale 2, want 0", allocs[0], allocs[1])
	}
}
