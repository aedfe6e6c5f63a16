package deploy

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"autorte/internal/model"
	"autorte/internal/sim"
)

// The k-of-n generalization must stay indistinguishable between the
// reference scorer and the delta path exactly like the v1 single-failure
// sweep — scoring a move and scoring the incumbent after applying it:
// same Survivability, same violation strings in the same order, through
// a random walk of moves under non-trivial fault models (concurrent
// failures, explicit ECU/bus/correlated losses, soft scoring with
// singleton groups).
func TestFaultModelThreePathIdentity(t *testing.T) {
	base := redSystem(t)
	consSet := map[string]Constraints{
		"kof2": {Faults: FaultModel{MaxConcurrent: 2}},
		"explicit": {Faults: FaultModel{
			MaxConcurrent: 2,
			Losses: []Loss{
				{Kind: LossECU, ECUs: []string{"e1"}},
				{Kind: LossECU, ECUs: []string{"e2", "e3"}},
				{Kind: LossBus, Buses: []string{"can0"}},
				{Kind: LossECUAndBus, ECUs: []string{"e3"}, Buses: []string{"can0"}},
			},
		}},
		"soft-singletons": {Faults: FaultModel{
			MaxConcurrent: 2, Soft: true, IncludeSingletons: true,
		}},
		"sched-kof2": {RequireSchedulable: true, Faults: FaultModel{MaxConcurrent: 2}},
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
			cur := base.Clone()
			r := sim.NewRand(14)
			for step := 0; step < 60; step++ {
				c := cur.Components[r.Intn(len(cur.Components))].Name
				e := cur.ECUs[r.Intn(len(cur.ECUs))].Name
				cand := cur.Clone()
				cand.Mapping[c] = e
				want := refEvaluate(ev, cand)
				if got := prep.EvaluateMove(c, e); !reflect.DeepEqual(want, got) {
					t.Fatalf("step %d (%s->%s): delta diverges\nreference: %+v\ndelta:     %+v", step, c, e, want, got)
				}
				cur = cand
				if err := prep.Apply(c, e); err != nil {
					t.Fatalf("apply: %v", err)
				}
				if got := prep.Evaluate(); !reflect.DeepEqual(want, got) {
					t.Fatalf("step %d (%s->%s): incumbent diverges after apply\nreference: %+v\ndelta:     %+v", step, c, e, want, got)
				}
			}
		})
	}
}

// The swept event universe under explicit loss units and concurrency.
func TestFaultModelSweep(t *testing.T) {
	t.Run("concurrent-pair-defeats-group", func(t *testing.T) {
		// Events: e1, e2, e1+e2. The pair takes primary and standby
		// together — no standby survives, 2/3 events survived.
		m := Evaluate(redSystem(t), Constraints{Faults: FaultModel{MaxConcurrent: 2}})
		if m.Feasible {
			t.Fatalf("double failure of the whole group accepted: %+v", m)
		}
		if !strings.Contains(strings.Join(m.Violations, "; "),
			"e1+e2 failure leaves Ctrl with no standby on another ECU") {
			t.Fatalf("missing concurrent-loss diagnostic: %v", m.Violations)
		}
		if math.Abs(m.Survivability-2.0/3.0) > 1e-9 {
			t.Fatalf("Survivability = %v, want 2/3", m.Survivability)
		}
	})

	t.Run("soft-prices-instead-of-rejecting", func(t *testing.T) {
		m := Evaluate(redSystem(t), Constraints{Faults: FaultModel{MaxConcurrent: 2, Soft: true}})
		if !m.Feasible {
			t.Fatalf("soft model rejected the mapping: %+v", m)
		}
		if math.Abs(m.Survivability-2.0/3.0) > 1e-9 {
			t.Fatalf("Survivability = %v, want 2/3", m.Survivability)
		}
	})

	t.Run("bus-loss-isolates-all-attached", func(t *testing.T) {
		// Every ECU hangs off can0 alone: losing it strands primary and
		// standby alike, so nothing is survivable.
		m := Evaluate(redSystem(t), Constraints{Faults: FaultModel{
			Losses: []Loss{{Kind: LossBus, Buses: []string{"can0"}}},
		}})
		if m.Feasible {
			t.Fatalf("bus loss accepted: %+v", m)
		}
		if !strings.Contains(strings.Join(m.Violations, "; "),
			"can0 failure leaves Ctrl with no standby on another ECU") {
			t.Fatalf("missing bus-loss diagnostic: %v", m.Violations)
		}
		if m.Survivability != 0 {
			t.Fatalf("Survivability = %v, want 0", m.Survivability)
		}
	})

	t.Run("second-bus-restores-coverage", func(t *testing.T) {
		// The standby's ECU keeps a private channel: losing can0 isolates
		// the primary but not the standby.
		sys := redSystem(t)
		sys.ECUs[1].Buses = append(sys.ECUs[1].Buses, "lin1")
		sys.Buses = append(sys.Buses, &model.Bus{Name: "lin1", Kind: model.BusCAN, BitRate: 125000})
		m := Evaluate(sys, Constraints{Faults: FaultModel{
			Losses: []Loss{{Kind: LossBus, Buses: []string{"can0"}}},
		}})
		if !m.Feasible || m.Survivability != 1 {
			t.Fatalf("dual-homed standby still counted as lost: %+v", m)
		}
	})

	t.Run("correlated-ecu-and-bus", func(t *testing.T) {
		// One power-domain event: e2 dies AND can0 goes down, so the
		// standby is dead and the (alive) primary is isolated.
		m := Evaluate(redSystem(t), Constraints{Faults: FaultModel{
			Losses: []Loss{{Kind: LossECUAndBus, ECUs: []string{"e2"}, Buses: []string{"can0"}}},
		}})
		if m.Feasible || m.Survivability != 0 {
			t.Fatalf("correlated loss not scored: %+v", m)
		}
		if !strings.Contains(strings.Join(m.Violations, "; "), "e2+can0 failure") {
			t.Fatalf("missing correlated-loss label: %v", m.Violations)
		}
	})

	t.Run("singletons-give-the-gradient", func(t *testing.T) {
		// Soft + singletons: 2 hosted-ECU events × 3 groups (Sensor, Ctrl,
		// Act). e1 kills unreplicated Sensor, e2 kills unreplicated Act;
		// the Ctrl group survives both. 4/6 survived, still feasible.
		m := Evaluate(redSystem(t), Constraints{Faults: FaultModel{Soft: true, IncludeSingletons: true}})
		if !m.Feasible {
			t.Fatalf("soft singleton scoring rejected the mapping: %+v", m)
		}
		if math.Abs(m.Survivability-4.0/6.0) > 1e-9 {
			t.Fatalf("Survivability = %v, want 4/6", m.Survivability)
		}
	})

	t.Run("malformed-losses-stay-hard", func(t *testing.T) {
		// Misconfigured fault models must never pass as "survived", even
		// under Soft.
		for _, tc := range []struct {
			name string
			loss Loss
			diag string
		}{
			{"unknown-ecu", Loss{Kind: LossECU, ECUs: []string{"e9"}}, `unknown ECU "e9"`},
			{"unknown-bus", Loss{Kind: LossBus, Buses: []string{"flex1"}}, `unknown bus "flex1"`},
			{"ecu-loss-without-ecus", Loss{Kind: LossECU, Buses: []string{"can0"}}, "must name ECUs only"},
			{"bus-loss-without-buses", Loss{Kind: LossBus, ECUs: []string{"e1"}}, "must name buses only"},
			{"correlated-missing-half", Loss{Kind: LossECUAndBus, ECUs: []string{"e1"}}, "must name ECUs and buses"},
			{"unknown-kind", Loss{Kind: LossKind(9), ECUs: []string{"e1"}}, "unknown kind LossKind(9)"},
		} {
			t.Run(tc.name, func(t *testing.T) {
				m := Evaluate(redSystem(t), Constraints{Faults: FaultModel{
					Soft: true, Losses: []Loss{tc.loss},
				}})
				if m.Feasible {
					t.Fatalf("malformed loss accepted: %+v", m)
				}
				if !strings.Contains(strings.Join(m.Violations, "; "), tc.diag) {
					t.Fatalf("missing %q in %v", tc.diag, m.Violations)
				}
			})
		}
	})
}

// redCheck boundary cases, table-driven through Evaluate with a
// move-scoring cross-check: each case mutates the fixture, evaluates,
// and pins feasibility, a diagnostic substring and the Survivability.
func TestRedCheckBoundaryCases(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(sys *model.System)
		cons     Constraints
		feasible bool
		diag     string
		surv     float64
	}{
		{
			// Both Ctrl instances end up on the standby's ECU: anti-affinity
			// plus an uncovered e2 event.
			name:     "group-on-one-ecu-post-move",
			mutate:   func(sys *model.System) { sys.Mapping["Ctrl"] = "e2" },
			feasible: false,
			diag:     "replicas Ctrl and Ctrl#1 co-located on e2",
			surv:     0.5,
		},
		{
			// e2 holds Act's 150us deadline until it absorbs the promoted
			// 5ms controller; only the fail-over RTA catches it.
			name: "standby-ecu-unschedulable-after-absorption",
			mutate: func(sys *model.System) {
				sys.Component("Act").Runnables[0].Deadline = sim.US(150)
			},
			cons:     Constraints{RequireSchedulable: true},
			feasible: false,
			diag:     "e2 unschedulable after absorbing fail-over from e1",
			surv:     0.5,
		},
		{
			// Singleton groups under the default (hard, single-failure)
			// model: unreplicated components alone never trip the check.
			name: "n1-groups-pass-trivially",
			mutate: func(sys *model.System) {
				// Drop the standby and its fan-out: every group has n=1.
				comps := sys.Components[:0]
				for _, c := range sys.Components {
					if !c.IsStandby() {
						comps = append(comps, c)
					}
				}
				sys.Components = comps
				conns := sys.Connectors[:0]
				for _, cn := range sys.Connectors {
					if cn.FromSWC != "Ctrl#1" && cn.ToSWC != "Ctrl#1" {
						conns = append(conns, cn)
					}
				}
				sys.Connectors = conns
				delete(sys.Mapping, "Ctrl#1")
			},
			feasible: true,
			surv:     1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := redSystem(t)
			tc.mutate(sys)
			m := Evaluate(sys, tc.cons)
			if m.Feasible != tc.feasible {
				t.Fatalf("Feasible = %v, want %v: %+v", m.Feasible, tc.feasible, m)
			}
			if tc.diag != "" && !strings.Contains(strings.Join(m.Violations, "; "), tc.diag) {
				t.Fatalf("missing %q in %v", tc.diag, m.Violations)
			}
			if math.Abs(m.Survivability-tc.surv) > 1e-9 {
				t.Fatalf("Survivability = %v, want %v", m.Survivability, tc.surv)
			}
		})
	}

	// The post-move case through the delta path: the same verdict must
	// come from EvaluateMove on the unmutated Prepared state.
	t.Run("group-on-one-ecu-via-delta", func(t *testing.T) {
		base := redSystem(t)
		ev := NewEvaluator(Constraints{})
		bound, err := ev.Bind(base)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := bound.Prepare(base.Mapping)
		if err != nil {
			t.Fatal(err)
		}
		m := prep.EvaluateMove("Ctrl", "e2")
		if m.Feasible || m.Survivability != 0.5 {
			t.Fatalf("delta path missed the post-move co-location: %+v", m)
		}
		if !strings.Contains(strings.Join(m.Violations, "; "), "replicas Ctrl and Ctrl#1 co-located on e2") {
			t.Fatalf("missing anti-affinity diagnostic: %v", m.Violations)
		}
	})
}
