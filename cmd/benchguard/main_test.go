package main

import (
	"strings"
	"testing"
)

// healthy is an artifact satisfying every budget invariant.
func healthy() map[string]Result {
	return map[string]Result{
		"BenchmarkVerify/small-13chains":                {NsPerOp: 140000, AllocsPerOp: 471},
		"BenchmarkVerify/large-52chains":                {NsPerOp: 1080000, AllocsPerOp: 1388},
		"BenchmarkVerifyDSESweep/large-52chains/bound":  {NsPerOp: 2500000},
		"BenchmarkVerifyDSESweepInc/large-52chains/inc": {NsPerOp: 430000},
		"BenchmarkVerifyFlight":                         {NsPerOp: 2170000, Metrics: map[string]float64{"on/off-ratio": 1.009}},
		"BenchmarkDSEAnnealParallel":                    {NsPerOp: 2200000, Metrics: map[string]float64{"par/seq-ratio": 0.62}},
		"BenchmarkE13Availability":                      {NsPerOp: 16000000, Metrics: map[string]float64{"par/seq-ratio": 0.41}},
		"BenchmarkE14Observer":                          {NsPerOp: 25000000, Metrics: map[string]float64{"par/seq-ratio": 0.96}},
	}
}

func TestGuardPassesHealthyArtifact(t *testing.T) {
	if v := guard(healthy(), 1690, 3.0, 1.03, 1.15); len(v) != 0 {
		t.Fatalf("healthy artifact flagged: %v", v)
	}
}

// Parallel annealing restarts that lose to one worker by more than
// -parratio fail the guard.
func TestGuardFlagsAnnealParRatio(t *testing.T) {
	m := healthy()
	m["BenchmarkDSEAnnealParallel"] = Result{NsPerOp: 3900000, Metrics: map[string]float64{"par/seq-ratio": 1.25}}
	v := guard(m, 1690, 3.0, 1.03, 1.15)
	if len(v) != 1 || !strings.Contains(v[0], "BenchmarkDSEAnnealParallel: par costs 25.0% over seq (budget 15.0%)") {
		t.Fatalf("want one anneal ratio violation, got %v", v)
	}
}

// Each named par/seq pair is required: dropping one from the artifact
// fails the guard even while the others still report a ratio.
func TestGuardFlagsMissingParPair(t *testing.T) {
	for _, name := range parPairs {
		m := healthy()
		delete(m, name)
		v := guard(m, 1690, 3.0, 1.03, 1.15)
		if len(v) != 1 || v[0] != name+": no par/seq-ratio metric" {
			t.Fatalf("without %s: want one missing-pair violation, got %v", name, v)
		}
	}
	m := healthy()
	m["BenchmarkDSEAnnealParallel"] = Result{NsPerOp: 2200000} // run, but unpaired
	v := guard(m, 1690, 3.0, 1.03, 1.15)
	if len(v) != 1 || v[0] != "BenchmarkDSEAnnealParallel: no par/seq-ratio metric" {
		t.Fatalf("want one missing-ratio violation, got %v", v)
	}
}

// Every BenchmarkVerify size is under the alloc budget; sub-benchmarks
// of other Verify benchmarks are not.
func TestGuardFlagsAllocBudget(t *testing.T) {
	for _, size := range []string{"small-13chains", "large-52chains"} {
		m := healthy()
		r := m["BenchmarkVerify/"+size]
		r.AllocsPerOp = 1700
		m["BenchmarkVerify/"+size] = r
		v := guard(m, 1690, 3.0, 1.03, 1.15)
		if len(v) != 1 || v[0] != "BenchmarkVerify/"+size+": 1700 allocs/op exceeds budget 1690" {
			t.Fatalf("%s: want one alloc-budget violation, got %v", size, v)
		}
	}
	m := healthy()
	r := m["BenchmarkVerifyDSESweep/large-52chains/bound"]
	r.AllocsPerOp = 5000
	m["BenchmarkVerifyDSESweep/large-52chains/bound"] = r
	if v := guard(m, 1690, 3.0, 1.03, 1.15); len(v) != 0 {
		t.Fatalf("the DSE sweep should be exempt from the alloc budget, got %v", v)
	}
}

func TestGuardFlagsIncRatio(t *testing.T) {
	m := healthy()
	r := m["BenchmarkVerifyDSESweepInc/large-52chains/inc"]
	r.NsPerOp = 1000000 // 2.5x, under the 3x budget
	m["BenchmarkVerifyDSESweepInc/large-52chains/inc"] = r
	v := guard(m, 1690, 3.0, 1.03, 1.15)
	if len(v) != 1 || !strings.Contains(v[0], "incremental only 2.50x faster") {
		t.Fatalf("want one inc-ratio violation, got %v", v)
	}
}

func TestGuardFlagsFlightRatio(t *testing.T) {
	m := healthy()
	m["BenchmarkVerifyFlight"] = Result{NsPerOp: 2170000, Metrics: map[string]float64{"on/off-ratio": 1.111}}
	v := guard(m, 1690, 3.0, 1.03, 1.15)
	if len(v) != 1 || !strings.Contains(v[0], "flight recorder costs 11.1% over off (budget 3.0%)") {
		t.Fatalf("want one flight-ratio violation, got %v", v)
	}
}

// One rule covers every par/seq-ratio metric, not just E13's.
func TestGuardFlagsE13Ratio(t *testing.T) {
	m := healthy()
	m["BenchmarkE13Availability"] = Result{NsPerOp: 16000000, Metrics: map[string]float64{"par/seq-ratio": 1.31}}
	v := guard(m, 1690, 3.0, 1.03, 1.15)
	if len(v) != 1 || !strings.Contains(v[0], "BenchmarkE13Availability: par costs 31.0% over seq (budget 15.0%)") {
		t.Fatalf("want one E13 ratio violation, got %v", v)
	}
	m = healthy()
	m["BenchmarkE14Observer"] = Result{NsPerOp: 25000000, Metrics: map[string]float64{"par/seq-ratio": 1.2}}
	m["BenchmarkDSEDescend"] = Result{NsPerOp: 9000000, Metrics: map[string]float64{"par/seq-ratio": -1}}
	v = guard(m, 1690, 3.0, 1.03, 1.15)
	if len(v) != 2 || !strings.Contains(v[0], "BenchmarkDSEDescend: non-positive par/seq-ratio") ||
		!strings.Contains(v[1], "BenchmarkE14Observer: par costs 20.0% over seq (budget 15.0%)") {
		t.Fatalf("want DSE and E14 ratio violations, got %v", v)
	}
}

func TestGuardFailsVacuousArtifact(t *testing.T) {
	v := guard(map[string]Result{}, 1690, 3.0, 1.03, 1.15)
	if len(v) != 3+len(parPairs) {
		t.Fatalf("empty artifact must flag the three vacuous-pass guards and every required par/seq pair, got %v", v)
	}
	for _, s := range v {
		if !strings.Contains(s, "vacuously") && !strings.HasSuffix(s, ": no par/seq-ratio metric") {
			t.Fatalf("unexpected violation %q", s)
		}
	}
}

func TestGuardFlagsMissingCounterpart(t *testing.T) {
	m := healthy()
	delete(m, "BenchmarkVerifyDSESweep/large-52chains/bound")
	v := guard(m, 1690, 3.0, 1.03, 1.15)
	if len(v) != 1 || !strings.Contains(v[0], "no bound sweep") {
		t.Fatalf("want missing-sweep violation, got %v", v)
	}
	m = healthy()
	delete(m, "BenchmarkVerifyFlight")
	v = guard(m, 1690, 3.0, 1.03, 1.15)
	if len(v) != 1 || !strings.Contains(v[0], "no flight-recorder on/off-ratio metrics") {
		t.Fatalf("want vacuous flight-ratio violation, got %v", v)
	}
}

func TestCompareTable(t *testing.T) {
	old := map[string]Result{
		"BenchmarkVerify/large-52chains": {NsPerOp: 953649, AllocsPerOp: 3447},
		"BenchmarkRemoved/only-old":      {NsPerOp: 100},
	}
	cur := map[string]Result{
		"BenchmarkVerify/large-52chains": {NsPerOp: 1080000, AllocsPerOp: 1388},
		"BenchmarkAdded/only-new":        {NsPerOp: 200},
	}
	var sb strings.Builder
	compare(&sb, old, cur)
	out := sb.String()
	for _, want := range []string{"-59.7%", "gone", "new", "BenchmarkVerify/large-52chains"} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + three rows
		t.Fatalf("want 4 table lines, got %d:\n%s", len(lines), out)
	}
}
