package deploy

import (
	"strings"
	"testing"

	"autorte/internal/obs"
)

// TestDescendCountsMoves checks the DSE search counters: descent must
// evaluate many candidate moves and accept at least one on a system it
// demonstrably improves.
func TestDescendCountsMoves(t *testing.T) {
	sys := vehicle(t, 2)
	ev := NewEvaluator(Constraints{})
	reg := obs.NewRegistry()
	ev.Observe(reg)
	if _, err := DescendWith(ev, sys, DefaultObjective(), 0, 4); err != nil {
		t.Fatal(err)
	}
	evaluated, accepted := ev.SearchCounts()
	if evaluated == 0 {
		t.Fatal("descent evaluated no moves")
	}
	if accepted == 0 {
		t.Fatal("descent on the federated baseline should accept at least one move")
	}
	if accepted > evaluated {
		t.Fatalf("accepted %d > evaluated %d", accepted, evaluated)
	}
	series := map[string]float64{}
	for _, s := range reg.Snapshot() {
		series[s.Name] = s.Value
	}
	if series["dse_moves_evaluated_total"] != float64(evaluated) {
		t.Fatalf("registry reports %v evaluated, counters say %d",
			series["dse_moves_evaluated_total"], evaluated)
	}
	if series["dse_moves_accepted_total"] != float64(accepted) {
		t.Fatalf("registry reports %v accepted, counters say %d",
			series["dse_moves_accepted_total"], accepted)
	}
	var prom strings.Builder
	if err := obs.WritePrometheus(&prom, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "dse_moves_evaluated_total") {
		t.Fatal("Prometheus export missing DSE counters")
	}
}

// TestAnnealCountsMoves checks the annealer feeds the same counters:
// every iteration evaluates a candidate, and acceptances stay within
// evaluations.
func TestAnnealCountsMoves(t *testing.T) {
	sys := vehicle(t, 3)
	ev := NewEvaluator(Constraints{})
	if _, _, err := anneal(ev, sys, DefaultObjective(), 7, 300); err != nil {
		t.Fatal(err)
	}
	evaluated, accepted := ev.SearchCounts()
	// Not every iteration yields a candidate (some proposed moves are
	// no-ops), but the bulk of 300 iterations must have been evaluated.
	if evaluated < 150 {
		t.Fatalf("annealer evaluated only %d moves over 300 iterations", evaluated)
	}
	if accepted > evaluated {
		t.Fatalf("accepted %d > evaluated %d", accepted, evaluated)
	}
}
