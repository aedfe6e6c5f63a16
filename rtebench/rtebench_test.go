package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"autorte/internal/core"
	"autorte/internal/deploy"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

// smallVehicle is a scale-1 generated vehicle with chain constraints.
func smallVehicle(t *testing.T, seed uint64) *model.System {
	t.Helper()
	sys, err := workload.GenerateVehicle(vehicleSpec(1), sim.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestCheckerRejectsFlippedAvailabilityCell(t *testing.T) {
	if err := compareTables(goldenCampaign, goldenCampaign); err != nil {
		t.Fatalf("identical tables rejected: %v", err)
	}
	// Flip one availability cell of E13's table.
	lines := strings.Split(string(goldenCampaign), "\n")
	in13, flipped := false, -1
	for i, l := range lines {
		if strings.HasPrefix(l, "== E13") {
			in13 = true
			continue
		}
		if in13 && strings.Contains(l, "0.") && !strings.HasPrefix(strings.TrimSpace(l), "note:") {
			lines[i] = strings.Replace(l, "0.", "1.", 1)
			flipped = i
			break
		}
	}
	if flipped < 0 {
		t.Fatal("no availability cell found in the E13 table")
	}
	perturbed := []byte(strings.Join(lines, "\n"))
	if err := compareTables(perturbed, goldenCampaign); err == nil {
		t.Fatalf("flipped cell on line %d not rejected", flipped+1)
	}
}

func TestCheckerRejectsDroppedChainReport(t *testing.T) {
	rep, err := core.NewPipeline(nproc).Verify(smallVehicle(t, 3), nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chains) < 2 {
		t.Fatalf("vehicle has %d chains, want several", len(rep.Chains))
	}
	want := reportDigest(rep)
	if got := reportDigest(rep); got != want {
		t.Fatal("digest of one report is not stable")
	}
	dropped := *rep
	dropped.Chains = rep.Chains[1:]
	if reportDigest(&dropped) == want {
		t.Fatal("dropped chain report not rejected")
	}
	changed := *rep
	changed.Chains = append([]core.ChainReport(nil), rep.Chains...)
	changed.Chains[0].Bound++
	if reportDigest(&changed) == want {
		t.Fatal("changed chain bound not rejected")
	}
}

func TestCheckerRejectsChangedMappingEntry(t *testing.T) {
	sys, err := deploy.Greedy(smallVehicle(t, 4), searchCons)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scoredDigest(sys, searchCons, searchObj)
	if err != nil {
		t.Fatal(err)
	}
	moved := sys.Clone()
	for _, c := range moved.Components {
		for _, e := range moved.ECUs {
			if moved.Mapping[c.Name] != e.Name {
				moved.Mapping[c.Name] = e.Name
				break
			}
		}
		break
	}
	got, err := scoredDigest(moved, searchCons, searchObj)
	if err == nil && got == want {
		t.Fatal("changed mapping entry not rejected")
	}
}

func TestDigestIgnoresMapOrder(t *testing.T) {
	sys := smallVehicle(t, 5)
	want := newDigester().mapping(sys.Mapping).sum()
	comps := make([]string, 0, len(sys.Mapping))
	for c := range sys.Mapping {
		comps = append(comps, c)
	}
	for round := 0; round < 20; round++ {
		// A fresh map filled in a rotated order each round; Go also
		// randomizes iteration order per map.
		m := map[string]string{}
		for i := range comps {
			c := comps[(i+round)%len(comps)]
			m[c] = sys.Mapping[c]
		}
		if got := newDigester().mapping(m).sum(); got != want {
			t.Fatalf("round %d: digest depends on map order", round)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100 … 1: percentile must not need sorted input
	}
	cases := []struct{ p, want float64 }{{0, 1}, {50, 50.5}, {75, 75.25}, {90, 90.1}, {95, 95.05}, {100, 100}}
	for _, c := range cases {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("one sample: p95 = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("no samples: p50 = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// p95 of 1…100 keeps exactly five samples (96…100) beyond it.
	if got := beyond(xs, percentile(xs, 95)); got != 5 {
		t.Errorf("samples beyond p95 = %d, want 5", got)
	}
}

// inputsDigest digests a generated vehicle from its values.
func inputsDigest(pool []*model.System) string {
	d := newDigester()
	for _, sys := range pool {
		for _, c := range sys.Components {
			d.str(c.Name)
			for _, r := range c.Runnables {
				d.str(r.Name).int(int64(r.WCETNominal)).int(int64(r.Trigger.Period)).int(int64(r.Trigger.Offset))
			}
		}
		for _, e := range sys.ECUs {
			d.str(e.Name).float(e.Position[0]).float(e.Position[1])
		}
		for _, lc := range sys.Constraints {
			d.str(lc.Name).int(int64(lc.Budget))
		}
		d.mapping(sys.Mapping)
	}
	return d.sum()
}

func TestSeedsGiveInputs(t *testing.T) {
	e := newEnv("test", &bytes.Buffer{})
	gen := func(seed uint64) string {
		pool, err := e.vehiclePool(seed, "search", []int{1}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return inputsDigest(pool)
	}
	if gen(1) != gen(1) {
		t.Error("one seed gave two different inputs")
	}
	if gen(1) == gen(2) {
		t.Error("two seeds gave the same inputs")
	}
	// The reverify move walks too.
	sys := smallVehicle(t, 6)
	walkDigest := func(seed uint64) string {
		d := newDigester()
		for _, m := range walk(sys, sim.NewRand(inputSeed(seed, "reverify-moves", 0))) {
			d.mapping(m)
		}
		return d.sum()
	}
	if walkDigest(1) != walkDigest(1) || walkDigest(1) == walkDigest(2) {
		t.Error("move walks do not follow the seed")
	}
	if inputSeed(1, "verify", 0) == inputSeed(1, "reverify", 0) || inputSeed(1, "verify", 0) == inputSeed(1, "verify", 1) {
		t.Error("derived seeds collide across streams or inputs")
	}
}

// TestGoldenMatchesExperimentsOutput ties the embedded reference to the
// repository's published tables.
func TestGoldenMatchesExperimentsOutput(t *testing.T) {
	published, err := os.ReadFile("../experiments_output.txt")
	if err != nil {
		t.Skipf("published tables not available: %v", err)
	}
	for _, section := range strings.SplitAfter(string(goldenCampaign), "\n\n") {
		if section = strings.TrimSpace(section); section == "" {
			continue
		}
		if !bytes.Contains(published, []byte(section)) {
			t.Errorf("section not in experiments_output.txt:\n%s", section)
		}
	}
	if !bytes.HasPrefix(goldenCampaign, []byte("\n== E11 fault-injection campaign")) {
		t.Error("golden tables do not start with E11's campaign table")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists in step with the program.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not available: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, l := range b.PerLayer {
		if l.Name != perLayer[i].name || l.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s %s in BENCHMARK.json, %s %s in the program", i, l.Name, l.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	var out bytes.Buffer
	if code := run([]string{"--workload", "verify", "--seed", "9", "--seconds", "0.3", "--trace", "0"}, &out, &out); code != 0 {
		t.Fatalf("verify run exited %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result %+v", res)
	}
	if len(res.Metrics) != len(b.EndToEnd) {
		t.Errorf("run reported %d metrics, BENCHMARK.json lists %d end-to-end", len(res.Metrics), len(b.EndToEnd))
	}
	for _, m := range b.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("end-to-end %s: got %+v", m.Name, got)
		}
	}
}

func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "verify", "--seconds", "0"},
		{"--workload", "verify", "--trace", "2"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &out); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v printed a result", args)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{root: -1}
	tr.spans = []span{
		{Name: "bench.op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "deploy.Greedy", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "deploy.Descend", ID: 2, Parent: 0, Start: 25, End: 60},
		{Name: "bench.setup", ID: 3, Parent: -1, Start: 100, End: 200},
		{Name: "workload.GenerateVehicle", ID: 4, Parent: 3, Start: 110, End: 190},
	}
	got := tr.selfTimes()
	// The root's children cover [10, 60): 50 of its 100.
	if got["bench"] != 50 || got["deploy"] != 55 || got["workload"] != 0 {
		t.Errorf("self times %v, want bench 50, deploy 55, no set-up layers", got)
	}
}
