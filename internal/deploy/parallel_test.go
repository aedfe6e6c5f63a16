package deploy

import (
	"testing"

	"autorte/internal/model"
)

// The parallel restart search must be scheduling-independent: identical
// results for any worker count.
func TestAnnealParallelDeterministic(t *testing.T) {
	sys := vehicle(t, 30)
	cons := Constraints{}
	obj := DefaultObjective()
	base, err := AnnealParallel(sys, cons, obj, 99, 400, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := AnnealParallel(sys, cons, obj, 99, 400, 4, workers)
		if err != nil {
			t.Fatal(err)
		}
		for name := range base.Mapping {
			if got.Mapping[name] != base.Mapping[name] {
				t.Fatalf("workers=%d: mapping diverges at %s: %s vs %s",
					workers, name, got.Mapping[name], base.Mapping[name])
			}
		}
	}
}

func TestAnnealParallelAtLeastAsGoodAsSingleChain(t *testing.T) {
	sys := vehicle(t, 31)
	cons := Constraints{}
	obj := DefaultObjective()
	single, err := Anneal(sys, cons, obj, 99^(1*0x9e3779b97f4a7c15), 400)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := AnnealParallel(sys, cons, obj, 99, 400, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	sCost := Evaluate(single, cons).Cost(obj)
	mCost := Evaluate(multi, cons).Cost(obj)
	if mCost > sCost {
		t.Fatalf("best-of-4 worse than chain 0 alone: %v > %v", mCost, sCost)
	}
}

func TestDescendImprovesOrMatchesStart(t *testing.T) {
	sys := vehicle(t, 32)
	cons := Constraints{}
	obj := DefaultObjective()
	g, err := Greedy(sys, cons)
	if err != nil {
		t.Fatal(err)
	}
	startCost := Evaluate(g, cons).Cost(obj)
	d, err := Descend(g, cons, obj, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	dCost := Evaluate(d, cons).Cost(obj)
	if dCost > startCost {
		t.Fatalf("descent worsened the mapping: %v -> %v", startCost, dCost)
	}
	if !Evaluate(d, cons).Feasible {
		t.Fatal("descent result infeasible")
	}
}

func TestDescendDeterministicAcrossWorkers(t *testing.T) {
	sys := vehicle(t, 33)
	cons := Constraints{}
	obj := DefaultObjective()
	base, err := Descend(sys, cons, obj, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Descend(sys, cons, obj, workers, 4)
		if err != nil {
			t.Fatal(err)
		}
		for name := range base.Mapping {
			if got.Mapping[name] != base.Mapping[name] {
				t.Fatalf("workers=%d: mapping diverges at %s", workers, name)
			}
		}
	}
}

func TestDescendBootstrapsInfeasibleStart(t *testing.T) {
	sys := vehicle(t, 34)
	for name := range sys.Mapping {
		sys.Mapping[name] = sys.ECUs[0].Name // hopeless overload
	}
	d, err := Descend(sys, Constraints{}, DefaultObjective(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !Evaluate(d, Constraints{}).Feasible {
		t.Fatal("descent did not recover feasibility")
	}
}

// Every search entry point must answer degenerate systems with a result
// or an error, never a panic: a system without components (valid, and
// trivially deployed), one without ECUs, and an invalid topology that
// only Bind rejects.
func TestSearchesHandleDegenerateSystems(t *testing.T) {
	systems := map[string]func(*model.System){
		"no-components": func(sys *model.System) {
			sys.Components, sys.Connectors, sys.Constraints = nil, nil, nil
			sys.Mapping = map[string]string{}
		},
		"no-ecus": func(sys *model.System) {
			sys.ECUs = nil
			sys.Mapping = map[string]string{}
		},
		"invalid-topology": func(sys *model.System) { sys.ECUs[0].Speed = 0 },
	}
	obj := DefaultObjective()
	searches := map[string]func(*model.System) (*model.System, error){
		"Greedy":  func(sys *model.System) (*model.System, error) { return Greedy(sys, Constraints{}) },
		"Place":   func(sys *model.System) (*model.System, error) { return Place(sys, Constraints{}) },
		"Descend": func(sys *model.System) (*model.System, error) { return Descend(sys, Constraints{}, obj, 2, 4) },
		"Anneal":  func(sys *model.System) (*model.System, error) { return Anneal(sys, Constraints{}, obj, 1, 50) },
		"AnnealParallel": func(sys *model.System) (*model.System, error) {
			return AnnealParallel(sys, Constraints{}, obj, 1, 50, 2, 2)
		},
		"PlaceReplicas": func(sys *model.System) (*model.System, error) {
			pl, err := PlaceReplicas(sys, Constraints{}, obj, PlacementOptions{DescendIters: 2})
			if err != nil {
				return nil, err
			}
			return pl.System, nil
		},
	}
	for sname, mutate := range systems {
		for name, search := range searches {
			t.Run(sname+"/"+name, func(t *testing.T) {
				sys := vehicle(t, 40)
				mutate(sys)
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				out, err := search(sys)
				if err == nil && out == nil {
					t.Fatal("returned neither a result nor an error")
				}
				if sname == "no-components" && err != nil {
					t.Fatalf("a component-less system is trivially deployable: %v", err)
				}
				if sname == "invalid-topology" && err == nil {
					t.Fatal("accepted an invalid topology")
				}
			})
		}
	}
}
