package deploy

import (
	"strings"
	"testing"

	"autorte/internal/model"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

func vehicle(t *testing.T, seed uint64) *model.System {
	t.Helper()
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEvaluateFederatedBaseline(t *testing.T) {
	sys := vehicle(t, 1)
	m := Evaluate(sys, Constraints{})
	if !m.Feasible {
		t.Fatalf("federated baseline infeasible: %v", m.Violations)
	}
	if m.ECUs != 12 {
		t.Fatalf("federated ECUs = %d, want 12", m.ECUs)
	}
	if m.Harness <= 0 {
		t.Fatal("federated harness should be positive")
	}
}

// An unmapped component is reported as unmapped, not analyzed on an ECU
// named "".
func TestEvaluateUnmappedComponentsHaveNoECU(t *testing.T) {
	sys := vehicle(t, 1)
	sys.Mapping = map[string]string{}
	m := Evaluate(sys, Constraints{RequireSchedulable: true})
	if m.Feasible {
		t.Fatal("unmapped system scored feasible")
	}
	unmapped := false
	for _, v := range m.Violations {
		if strings.HasPrefix(v, " ") {
			t.Errorf("violation names an empty ECU: %q", v)
		}
		unmapped = unmapped || strings.Contains(v, "is not mapped")
	}
	if !unmapped {
		t.Fatalf("no unmapped-component violation in %q", m.Violations)
	}
}

func TestGreedyConsolidationReducesECUs(t *testing.T) {
	sys := vehicle(t, 2)
	before := Evaluate(sys, Constraints{})
	out, err := Greedy(sys, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	after := Evaluate(out, Constraints{})
	if !after.Feasible {
		t.Fatalf("consolidated mapping infeasible: %v", after.Violations)
	}
	if after.ECUs >= before.ECUs {
		t.Fatalf("consolidation did not reduce ECUs: %d -> %d", before.ECUs, after.ECUs)
	}
	// Total utilization ~2.6 at cap 0.69 needs at least 4 ECUs.
	if after.ECUs < 4 {
		t.Fatalf("suspiciously few ECUs: %d (capacity would be violated)", after.ECUs)
	}
	// The input must not be mutated.
	if Evaluate(sys, Constraints{}).ECUs != before.ECUs {
		t.Fatal("Greedy mutated its input")
	}
}

func TestGreedyRespectsUtilizationCap(t *testing.T) {
	sys := vehicle(t, 3)
	out, err := Greedy(sys, Constraints{MaxUtilization: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(out, Constraints{MaxUtilization: 0.5})
	if !m.Feasible || m.MaxLoad > 0.5 {
		t.Fatalf("cap violated: %+v", m)
	}
}

func TestGreedyRespectsASIL(t *testing.T) {
	sys := vehicle(t, 4)
	// Qualify only the chassis cluster ECUs for ASIL-D.
	for _, e := range sys.ECUs {
		e.MaxASIL = model.ASILB
	}
	sys.ECUs[3].MaxASIL = model.ASILD
	sys.ECUs[4].MaxASIL = model.ASILD
	sys.ECUs[5].MaxASIL = model.ASILD
	out, err := Greedy(sys, Constraints{RespectASIL: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.Components {
		if c.ASIL == model.ASILD {
			e := out.ECUByName(out.Mapping[c.Name])
			if e.MaxASIL < model.ASILD {
				t.Fatalf("ASIL-D component %s on %v ECU %s", c.Name, e.MaxASIL, e.Name)
			}
		}
	}
}

func TestGreedyRespectsMemory(t *testing.T) {
	sys := vehicle(t, 5)
	for _, e := range sys.ECUs {
		e.MemoryKB = 100 // each chain trio needs 64KB; at most one and a half per ECU
	}
	out, err := Greedy(sys, Constraints{RespectMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(out, Constraints{RespectMemory: true})
	if !m.Feasible {
		t.Fatalf("memory-constrained packing infeasible: %v", m.Violations)
	}
}

func TestGreedyImpossible(t *testing.T) {
	sys := vehicle(t, 6)
	if _, err := Greedy(sys, Constraints{MaxUtilization: 0.0001}); err == nil {
		t.Fatal("impossible cap packed successfully")
	}
}

func TestAnnealImprovesOrMatchesGreedy(t *testing.T) {
	sys := vehicle(t, 7)
	cons := Constraints{}
	obj := DefaultObjective()
	g, err := Greedy(sys, cons)
	if err != nil {
		t.Fatal(err)
	}
	gCost := Evaluate(g, cons).Cost(obj)
	a, err := Anneal(g, cons, obj, 42, 2000)
	if err != nil {
		t.Fatal(err)
	}
	aCost := Evaluate(a, cons).Cost(obj)
	if aCost > gCost*1.001 {
		t.Fatalf("annealing worsened the mapping: %v -> %v", gCost, aCost)
	}
	if !Evaluate(a, cons).Feasible {
		t.Fatal("annealed mapping infeasible")
	}
}

func TestAnnealFromInfeasibleBootstrapsGreedy(t *testing.T) {
	sys := vehicle(t, 8)
	// Break the mapping: everything on one ECU (overloaded).
	for name := range sys.Mapping {
		sys.Mapping[name] = sys.ECUs[0].Name
	}
	a, err := Anneal(sys, Constraints{}, DefaultObjective(), 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !Evaluate(a, Constraints{}).Feasible {
		t.Fatal("anneal did not recover feasibility")
	}
}

func TestAnnealDeterministic(t *testing.T) {
	sys := vehicle(t, 9)
	cons := Constraints{}
	obj := DefaultObjective()
	a1, err := Anneal(sys, cons, obj, 77, 800)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Anneal(sys, cons, obj, 77, 800)
	for name := range a1.Mapping {
		if a1.Mapping[name] != a2.Mapping[name] {
			t.Fatal("annealing not deterministic for fixed seed")
		}
	}
}

func TestCostOrdering(t *testing.T) {
	m1 := Metrics{Feasible: true, ECUs: 4, Harness: 10}
	m2 := Metrics{Feasible: true, ECUs: 5, Harness: 1}
	obj := DefaultObjective()
	if m1.Cost(obj) >= m2.Cost(obj) {
		t.Fatal("ECU count should dominate harness at default weights")
	}
	bad := Metrics{Feasible: false}
	if !(bad.Cost(obj) > m2.Cost(obj)) {
		t.Fatal("infeasible not infinitely costly")
	}
}

func TestPlaceAddsWithoutMovingExisting(t *testing.T) {
	sys := vehicle(t, 10)
	g, err := Greedy(sys, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]string{}
	for k, v := range g.Mapping {
		before[k] = v
	}
	// A new aftermarket component arrives post-SOP.
	g.Components = append(g.Components, &model.SWC{
		Name: "NewTelematics", Supplier: "zNew",
		Runnables: []model.Runnable{{
			Name: "run", WCETNominal: sim.MS(1),
			Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(100)},
		}},
	})
	placed, err := Place(g, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	for name, ecu := range before {
		if placed.Mapping[name] != ecu {
			t.Fatalf("existing component %s moved %s -> %s", name, ecu, placed.Mapping[name])
		}
	}
	if placed.Mapping["NewTelematics"] == "" {
		t.Fatal("new component not placed")
	}
	if !Evaluate(placed, Constraints{}).Feasible {
		t.Fatal("incremental placement infeasible")
	}
}

func TestPlaceRejectsWhenFull(t *testing.T) {
	sys := vehicle(t, 11)
	g, err := Greedy(sys, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	g.Components = append(g.Components, &model.SWC{
		Name: "Monster", Supplier: "zNew",
		Runnables: []model.Runnable{{
			Name: "run", WCETNominal: sim.MS(95),
			Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(100)},
		}},
	})
	// 95% utilization fits on no ECU under the 0.69 cap alongside others.
	if _, err := Place(g, Constraints{}); err == nil {
		t.Fatal("oversized component placed")
	}
}
