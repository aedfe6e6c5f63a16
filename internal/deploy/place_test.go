package deploy

import (
	"reflect"
	"testing"

	"autorte/internal/model"
)

// placeSeed is the unreplicated fixture the placement search starts
// from: redSpec with the controller's redundancy request cleared, so the
// search owns the whole spec.
func placeSeed() *model.System {
	sys := redSpec()
	sys.Component("Ctrl").Redundancy = model.Redundancy{}
	return sys
}

// placeCons is the soft k-of-n scoring the search climbs: every single
// ECU loss, every component a group.
func placeCons() Constraints {
	return Constraints{Faults: FaultModel{
		Losses: []Loss{
			{Kind: LossECU, ECUs: []string{"e1"}},
			{Kind: LossECU, ECUs: []string{"e2"}},
			{Kind: LossECU, ECUs: []string{"e3"}},
		},
		Soft: true, IncludeSingletons: true,
	}}
}

func TestPlaceReplicasImprovesSurvivability(t *testing.T) {
	cons := placeCons()
	seedM := Evaluate(placeSeed(), cons)
	if !seedM.Feasible || seedM.Survivability >= 1 {
		t.Fatalf("seed fixture: %+v", seedM)
	}
	obj := Objective{WECU: 1000, WHarness: 10, WLoad: 1, WAvail: 100_000}
	pl, err := PlaceReplicas(placeSeed(), cons, obj, PlacementOptions{DescendIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Metrics.Feasible {
		t.Fatalf("placement infeasible: %+v", pl.Metrics)
	}
	if pl.Metrics.Survivability != 1 {
		t.Fatalf("Survivability = %v, want 1 (every stage coverable with 3 ECUs)", pl.Metrics.Survivability)
	}
	if pl.Metrics.Cost(obj) >= seedM.Cost(obj) {
		t.Fatalf("placement did not beat the seed: %v >= %v", pl.Metrics.Cost(obj), seedM.Cost(obj))
	}
	replicated := 0
	for _, n := range pl.Replicas {
		if n > 1 {
			replicated++
		}
	}
	if replicated == 0 {
		t.Fatalf("search chose no replicas: %+v", pl.Replicas)
	}
	// The materialized result must be a valid system whose spec matches
	// the recorded counts.
	if err := pl.System.Validate(); err != nil {
		t.Fatalf("placed system invalid: %v", err)
	}
	for name, n := range pl.Replicas {
		got := 0
		for _, c := range pl.System.Components {
			if c.Name == name || c.ReplicaOf == name {
				got++
			}
		}
		if got != n {
			t.Fatalf("%s: %d instances materialized, spec says %d", name, got, n)
		}
	}
}

func TestPlaceReplicasDeterministic(t *testing.T) {
	obj := Objective{WECU: 1000, WHarness: 10, WLoad: 1, WAvail: 100_000}
	run := func(workers int) *Placement {
		pl, err := PlaceReplicas(placeSeed(), placeCons(), obj,
			PlacementOptions{DescendIters: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a.Replicas, b.Replicas) || !reflect.DeepEqual(a.Modes, b.Modes) {
		t.Fatalf("spec differs across worker counts:\n1: %+v %+v\n4: %+v %+v",
			a.Replicas, a.Modes, b.Replicas, b.Modes)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Fatalf("metrics differ across worker counts:\n1: %+v\n4: %+v", a.Metrics, b.Metrics)
	}
}

func TestPlaceReplicasRespectsBounds(t *testing.T) {
	obj := Objective{WAvail: 100_000}
	pl, err := PlaceReplicas(placeSeed(), placeCons(), obj, PlacementOptions{
		Candidates:   []string{"Ctrl", "Act"},
		MaxReplicas:  2,
		ModesFor:     map[string][]model.ReplicaMode{"Act": {model.StandbyActive}},
		DescendIters: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := pl.Replicas["Sensor"]; n != 0 {
		t.Fatalf("non-candidate Sensor got a spec entry: %d", n)
	}
	for name, n := range pl.Replicas {
		if n > 2 {
			t.Fatalf("%s: %d instances exceeds MaxReplicas 2", name, n)
		}
	}
	if pl.Replicas["Act"] > 1 && pl.Modes["Act"] != model.StandbyActive {
		t.Fatalf("ModesFor ignored: Act mode %v", pl.Modes["Act"])
	}
	// Only Ctrl and Act are coverable: 3 hosted-ECU events x 3 groups,
	// Sensor's event stays uncovered.
	if pl.Metrics.Survivability >= 1 {
		t.Fatalf("Survivability = %v with Sensor excluded", pl.Metrics.Survivability)
	}
}

func TestPlaceReplicasRejectsBadSeeds(t *testing.T) {
	t.Run("materialized-standby", func(t *testing.T) {
		sys, err := Replicate(redSpec())
		if err != nil {
			t.Fatal(err)
		}
		sys.Mapping["Ctrl#1"] = "e2"
		if _, err := PlaceReplicas(sys, Constraints{}, Objective{}, PlacementOptions{}); err == nil {
			t.Fatal("seed with materialized standbys accepted")
		}
	})
	t.Run("unknown-candidate", func(t *testing.T) {
		_, err := PlaceReplicas(placeSeed(), Constraints{}, Objective{},
			PlacementOptions{Candidates: []string{"Nope"}})
		if err == nil {
			t.Fatal("unknown candidate accepted")
		}
	})
	t.Run("duplicate-candidate", func(t *testing.T) {
		_, err := PlaceReplicas(placeSeed(), Constraints{}, Objective{},
			PlacementOptions{Candidates: []string{"Ctrl", "Act", "Ctrl"}})
		if err == nil {
			t.Fatal("duplicate candidate accepted")
		}
	})
	t.Run("caller-slice-unchanged", func(t *testing.T) {
		cands := []string{"Ctrl", "Act"}
		obj := DefaultObjective()
		obj.WAvail = 5000
		if _, err := PlaceReplicas(placeSeed(), placeCons(), obj, PlacementOptions{Candidates: cands}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cands, []string{"Ctrl", "Act"}) {
			t.Fatalf("PlaceReplicas reordered the caller's Candidates to %v", cands)
		}
	})
}
