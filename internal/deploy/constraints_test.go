package deploy

import (
	"math"
	"strings"
	"testing"

	"autorte/internal/sched"
)

func TestFillDefaultsOnlyUnset(t *testing.T) {
	c := Constraints{}
	c.fill()
	if c.MaxUtilization != 0.69 {
		t.Fatalf("unset cap filled to %v, want 0.69", c.MaxUtilization)
	}
	c = Constraints{MaxUtilization: 0.5}
	c.fill()
	if c.MaxUtilization != 0.5 {
		t.Fatalf("explicit cap overwritten to %v", c.MaxUtilization)
	}
	c = Constraints{MaxUtilization: RejectAllLoad}
	c.fill()
	if c.MaxUtilization != RejectAllLoad {
		t.Fatalf("RejectAllLoad overwritten to %v — the sentinel must survive fill", c.MaxUtilization)
	}
}

// A caller must be able to express "no load is admissible" — previously
// MaxUtilization 0 silently meant "default 0.69" and the intent was
// inexpressible.
func TestRejectAllLoadRejectsEverything(t *testing.T) {
	sys := vehicle(t, 20)
	m := Evaluate(sys, Constraints{MaxUtilization: RejectAllLoad})
	if m.Feasible {
		t.Fatal("RejectAllLoad accepted a loaded mapping")
	}
	if _, err := Greedy(sys, Constraints{MaxUtilization: RejectAllLoad}); err == nil {
		t.Fatal("Greedy packed components under RejectAllLoad")
	}
}

func TestConstraintsValidateRange(t *testing.T) {
	for _, c := range []Constraints{
		{MaxUtilization: 1.5},
		{MaxUtilization: math.NaN()},
		{MaxUtilization: math.Inf(1)},
	} {
		if err := c.Validate(); err == nil {
			t.Fatalf("Validate accepted %v", c.MaxUtilization)
		}
	}
	for _, c := range []Constraints{
		{},
		{MaxUtilization: 0.69},
		{MaxUtilization: 1},
		{MaxUtilization: RejectAllLoad},
	} {
		if err := c.Validate(); err != nil {
			t.Fatalf("Validate rejected %v: %v", c.MaxUtilization, err)
		}
	}
}

func TestInvalidConstraintsSurfaceEverywhere(t *testing.T) {
	sys := vehicle(t, 21)
	bad := Constraints{MaxUtilization: 2}
	if m := Evaluate(sys, bad); m.Feasible || len(m.Violations) == 0 ||
		!strings.Contains(m.Violations[0], "MaxUtilization") {
		t.Fatalf("Evaluate did not flag invalid constraints: %+v", m)
	}
	if _, err := Greedy(sys, bad); err == nil {
		t.Fatal("Greedy accepted invalid constraints")
	}
	if _, err := Place(sys, bad); err == nil {
		t.Fatal("Place accepted invalid constraints")
	}
	if _, err := Anneal(sys, bad, DefaultObjective(), 1, 10); err == nil {
		t.Fatal("Anneal accepted invalid constraints")
	}
	if _, err := Descend(sys, bad, DefaultObjective(), 0, 1); err == nil {
		t.Fatal("Descend accepted invalid constraints")
	}
	if _, err := AnnealParallel(sys, bad, DefaultObjective(), 1, 10, 2, 0); err == nil {
		t.Fatal("AnnealParallel accepted invalid constraints")
	}
}

func TestRequireSchedulableTightensFeasibility(t *testing.T) {
	sys := vehicle(t, 22)
	// The federated baseline is generously provisioned: it must pass RTA.
	ev := NewEvaluator(Constraints{RequireSchedulable: true})
	analyses := 0
	observeRTA(ev, func([]sched.Task) { analyses++ })
	if m := ev.Evaluate(sys); !m.Feasible {
		t.Fatalf("federated baseline fails RTA feasibility: %v", m.Violations)
	}
	// Pile everything onto one ECU: utilization alone already rejects it,
	// and the RTA violations must name the unschedulable ECU.
	for name := range sys.Mapping {
		sys.Mapping[name] = sys.ECUs[0].Name
	}
	m := ev.Evaluate(sys)
	if m.Feasible {
		t.Fatal("overloaded mapping passed RequireSchedulable")
	}
	foundRTA := false
	for _, v := range m.Violations {
		if strings.Contains(v, "unschedulable under response-time analysis") {
			foundRTA = true
		}
	}
	if !foundRTA {
		t.Fatalf("no RTA violation recorded: %v", m.Violations)
	}
	if analyses == 0 {
		t.Fatal("RequireSchedulable ran no response-time analysis")
	}
}

// observeRTA has ev pass every task set its scorer analyzes to see
// before analyzing it.
func observeRTA(ev *Evaluator, see func([]sched.Task)) {
	ev.analyze = func(tasks []sched.Task) (bool, error) {
		see(tasks)
		ok, _, err := sched.Schedulable(tasks)
		return ok, err
	}
}
