package deploy

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"autorte/internal/model"
	"autorte/internal/race"
	"autorte/internal/sched"
	"autorte/internal/sim"
	"autorte/internal/taskset"
	"autorte/internal/workload"
)

// The delta evaluator must reproduce the reference scorer (refEvaluate)
// exactly — same feasibility, same violation strings in the same order,
// bit-identical cost terms — for every scored move, across constraint
// shapes and as the incumbent advances through applied moves.
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
				want := refEvaluate(ev, cand)
				got := prep.EvaluateMove(comp, ecu)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("step %d (%s -> %s): delta metrics diverge\nreference: %+v\ndelta:     %+v", step, comp, ecu, want, got)
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

// Prepare must reject mappings outside the DSE invariant — which
// Evaluate scores infeasible — and an unknown move target must score
// infeasible with the diagnostic model.Validate gives, without
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
			t.Fatalf("Evaluate of a mapping with a %s should be infeasible", name)
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
		t.Fatalf("Evaluate lacks the %q diagnostic", diag)
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

// The task sets the Prepared scorer analyzes under RequireSchedulable are
// taskset.Build's, on generated vehicles under federated, consolidated
// and replicated mappings: each ECU's normal-case set, and after each
// single-ECU failure, each fail-over target's set with the passive
// standbys it promotes (when the target stays within the utilization
// cap). taskset's TestConsumersFollowReferenceOrder holds Build to the
// reference priority order.
func TestPreparedAnalyzesBuiltTaskSets(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		fed := vehicle(t, seed)
		greedy, err := Greedy(fed, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []struct {
			name string
			sys  *model.System
		}{{"federated", fed}, {"greedy", greedy}, {"replicated", replicatedVehicle(t, seed)}} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, m.name), func(t *testing.T) {
				want := builtTaskSets(m.sys)
				got := map[string]bool{}
				ev := NewEvaluator(Constraints{MaxUtilization: 1, RequireSchedulable: true})
				observeRTA(ev, func(tasks []sched.Task) { got[fmt.Sprint(tasks)] = true })
				b, err := ev.Bind(m.sys)
				if err != nil {
					t.Fatal(err)
				}
				p, err := b.Prepare(m.sys.Mapping)
				if err != nil {
					t.Fatal(err)
				}
				p.Evaluate()
				for set, what := range want {
					if !got[set] {
						t.Errorf("%s: the scorer never analyzed %s", what, set)
					}
				}
				for set := range got {
					if want[set] == "" {
						t.Errorf("the scorer analyzed %s, which Build never derives", set)
					}
				}
			})
		}
	}
}

// builtTaskSets derives, keyed by the set's text, every task set the
// scorer should analyze on sys's mapping: Build's set of each ECU, and
// for each lost ECU, Build's set of each fail-over target after the
// passive standbys of the lost primaries turn active, unless the target
// then exceeds full load.
func builtTaskSets(sys *model.System) map[string]string {
	want := map[string]string{}
	add := func(what string, sets map[string][]sched.Task, ecu string) {
		if tasks := sets[ecu]; len(tasks) > 0 {
			want[fmt.Sprint(tasks)] = what
		}
	}
	sets, _ := taskset.Build(sys)
	for _, e := range sys.ECUs {
		add(e.Name, sets, e.Name)
	}
	for _, lost := range sys.ECUs {
		promoted := sys.Clone()
		targets := map[string]bool{}
		for _, c := range promoted.Components {
			if c.ReplicaOf == "" || sys.Mapping[c.ReplicaOf] != lost.Name || sys.Mapping[c.Name] == lost.Name {
				continue
			}
			targets[sys.Mapping[c.Name]] = true
			if c.PassiveStandby() {
				c.Redundancy.Mode = model.StandbyActive
			}
		}
		sets, _ := taskset.Build(promoted)
		for target := range targets {
			if promoted.AnalyzedLoad(target) > 1-1e-9 {
				continue // overloaded: the scorer rejects it before any analysis
			}
			add(lost.Name+" fail-over to "+target, sets, target)
		}
	}
	return want
}

// replicatedVehicle gives every third component of a generated vehicle
// one standby, alternating passive and active, and maps each standby to
// the ECU after its primary's.
func replicatedVehicle(t *testing.T, seed uint64) *model.System {
	t.Helper()
	base := vehicle(t, seed)
	for i, c := range base.Components {
		if i%3 == 0 {
			c.Redundancy = model.Redundancy{Replicas: 2, Mode: []model.ReplicaMode{model.StandbyPassive, model.StandbyActive}[i/3%2]}
		}
	}
	sys, err := Replicate(base)
	if err != nil {
		t.Fatal(err)
	}
	ecuIdx := map[string]int{}
	for i, e := range sys.ECUs {
		ecuIdx[e.Name] = i
	}
	for _, c := range sys.Components {
		if c.ReplicaOf != "" {
			sys.Mapping[c.Name] = sys.ECUs[(ecuIdx[sys.Mapping[c.ReplicaOf]]+1)%len(sys.ECUs)].Name
		}
	}
	return sys
}
