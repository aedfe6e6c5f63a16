package trace

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"autorte/internal/sim"
)

func TestLatenciesPairsActivateFinish(t *testing.T) {
	var r Recorder
	r.Emit(0, Activate, "t1", 0, "")
	r.Emit(10, Finish, "t1", 0, "")
	r.Emit(100, Activate, "t1", 1, "")
	r.Emit(130, Finish, "t1", 1, "")
	r.Emit(200, Activate, "t1", 2, "") // never finishes
	lats := r.Latencies("t1")
	if len(lats) != 2 || lats[0] != 10 || lats[1] != 30 {
		t.Fatalf("latencies = %v, want [10 30]", lats)
	}
}

func TestLatenciesIgnoresOtherSources(t *testing.T) {
	var r Recorder
	r.Emit(0, Activate, "a", 0, "")
	r.Emit(5, Activate, "b", 0, "")
	r.Emit(7, Finish, "b", 0, "")
	r.Emit(10, Finish, "a", 0, "")
	if got := r.Latencies("a"); len(got) != 1 || got[0] != 10 {
		t.Fatalf("latencies(a) = %v, want [10]", got)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(0, Activate, "x", 0, "")
	r.Add(Record{})
	r.Reset()
	if r.Count(Activate, "") != 0 || r.Latencies("x") != nil || r.BySource("x") != nil {
		t.Fatal("nil recorder should be inert")
	}
}

func TestCountFiltersByKindAndSource(t *testing.T) {
	var r Recorder
	r.Emit(0, Miss, "a", 0, "")
	r.Emit(1, Miss, "b", 0, "")
	r.Emit(2, Finish, "a", 0, "")
	if r.Count(Miss, "a") != 1 || r.Count(Miss, "") != 2 || r.Count(Finish, "b") != 0 {
		t.Fatal("count filter wrong")
	}
}

func TestCountIsIncremental(t *testing.T) {
	// Count must agree with a linear scan at every point, including after
	// Reset, since it now reads the incremental index instead of scanning.
	var r Recorder
	scan := func(kind Kind, source string) int {
		n := 0
		for _, rec := range r.Records {
			if rec.Kind == kind && (source == "" || rec.Source == source) {
				n++
			}
		}
		return n
	}
	rnd := sim.NewRand(7)
	sources := []string{"a", "b", "c"}
	for i := 0; i < 200; i++ {
		r.Emit(sim.Time(i), Kind(rnd.Intn(9)), sources[rnd.Intn(3)], int64(i), "")
	}
	for k := Activate; k <= Error; k++ {
		for _, src := range []string{"", "a", "b", "c", "ghost"} {
			if got, want := r.Count(k, src), scan(k, src); got != want {
				t.Fatalf("Count(%v,%q) = %d, scan says %d", k, src, got, want)
			}
		}
	}
	r.Reset()
	if r.Count(Finish, "") != 0 || r.Count(Finish, "a") != 0 {
		t.Fatal("counts survived Reset")
	}
	r.Emit(0, Finish, "a", 0, "")
	if r.Count(Finish, "") != 1 || r.Count(Finish, "a") != 1 {
		t.Fatal("counts wrong after Reset + Emit")
	}
}

func TestComputeStats(t *testing.T) {
	s := Compute([]sim.Duration{10, 20, 30, 40, 50})
	if s.N != 5 || s.Min != 10 || s.Max != 50 || s.Mean != 30 || s.Jitter != 40 {
		t.Fatalf("bad stats: %+v", s)
	}
	if s.P50 != 30 {
		t.Errorf("P50 = %v, want 30", s.P50)
	}
}

func TestComputeEmpty(t *testing.T) {
	s := Compute(nil)
	if s.N != 0 || s.Max != 0 {
		t.Fatalf("empty sample should give zero stats: %+v", s)
	}
}

func TestComputeDoesNotMutateInput(t *testing.T) {
	in := []sim.Duration{30, 10, 20}
	Compute(in)
	if in[0] != 30 || in[1] != 10 || in[2] != 20 {
		t.Fatalf("Compute mutated its input: %v", in)
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := sim.NewRand(seed)
		s := make([]sim.Duration, n)
		for i := range s {
			s[i] = sim.Duration(r.Intn(1000))
		}
		st := Compute(s)
		// Invariants: min <= p50 <= p95 <= p99 <= max, jitter = max-min.
		return st.Min <= st.P50 && st.P50 <= st.P95 && st.P95 <= st.P99 &&
			st.P99 <= st.Max && st.Jitter == st.Max-st.Min &&
			st.Min <= st.Mean && st.Mean <= st.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]sim.Duration, 100)
	for i := range s {
		s[i] = sim.Duration(i + 1) // 1..100
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if p := percentile(s, 0.95); p != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", p)
	}
	if p := percentile(s, 0.99); p != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", p)
	}
}

func TestSummarizeIncludesMisses(t *testing.T) {
	var r Recorder
	r.Emit(0, Activate, "t", 0, "")
	r.Emit(10, Finish, "t", 0, "")
	r.Emit(100, Activate, "t", 1, "")
	r.Emit(150, Miss, "t", 1, "")
	r.Emit(160, Finish, "t", 1, "")
	st := Summarize(&r, "t")
	if st.MissCount != 1 || st.SampleCount != 2 || st.N != 2 {
		t.Fatalf("summarize wrong: %+v", st)
	}
}

func TestWriteCSV(t *testing.T) {
	var r Recorder
	r.Emit(5, Activate, "t", 0, "a,b")
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "time_ns,kind,source,job,info\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "5,activate,t,0,a;b\n") {
		t.Fatalf("bad row: %q", out)
	}
}

func TestKindString(t *testing.T) {
	if Activate.String() != "activate" || Miss.String() != "miss" {
		t.Fatal("kind names wrong")
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestStatsString(t *testing.T) {
	if got := (Stats{}).String(); got != "n=0" {
		t.Fatalf("empty stats string = %q", got)
	}
	s := Compute([]sim.Duration{sim.MS(1), sim.MS(2)})
	if !strings.Contains(s.String(), "n=2") {
		t.Fatalf("stats string missing n: %q", s.String())
	}
}

func TestGanttRendersExecution(t *testing.T) {
	var r Recorder
	// Task a: runs 0-3, preempted, resumes 5-7, finishes.
	r.Emit(0, Activate, "a", 0, "")
	r.Emit(0, Start, "a", 0, "")
	r.Emit(3, Preempt, "a", 0, "")
	r.Emit(5, Resume, "a", 0, "")
	r.Emit(7, Finish, "a", 0, "")
	// Task b: runs 3-5, misses at 9.
	r.Emit(3, Start, "b", 0, "")
	r.Emit(5, Finish, "b", 0, "")
	r.Emit(9, Miss, "b", 1, "")
	var sb strings.Builder
	if err := Gantt(&sb, &r, nil, 0, 10, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines = %d:\n%s", len(lines), out)
	}
	rowA, rowB := lines[1], lines[2]
	if !strings.Contains(rowA, "###") || !strings.Contains(rowA, "##|") == strings.Contains(rowA, "####") {
		t.Logf("row a: %q", rowA)
	}
	if !strings.Contains(rowA, "#") {
		t.Fatalf("task a shows no execution: %q", rowA)
	}
	if !strings.Contains(rowB, "!") {
		t.Fatalf("task b shows no miss marker: %q", rowB)
	}
}

func TestGanttValidation(t *testing.T) {
	var r Recorder
	var sb strings.Builder
	if err := Gantt(&sb, &r, nil, 0, 10, 0); err == nil {
		t.Fatal("zero resolution accepted")
	}
	if err := Gantt(&sb, &r, nil, 10, 5, 1); err == nil {
		t.Fatal("inverted window accepted")
	}
	if err := Gantt(&sb, &r, nil, 0, sim.Second, 1); err == nil {
		t.Fatal("billion-bucket gantt accepted")
	}
}

func TestGanttAbortMarker(t *testing.T) {
	var r Recorder
	r.Emit(0, Start, "t", 0, "")
	r.Emit(4, Abort, "t", 0, "budget")
	var sb strings.Builder
	if err := Gantt(&sb, &r, []string{"t"}, 0, 10, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "x") {
		t.Fatalf("abort marker missing:\n%s", sb.String())
	}
}

// TestCountMatchesScanAfterResets holds the dense per-kind and per-source
// counters to a brute-force scan of Records for every (kind, source),
// kinds outside the named enum included, across random Add/Reset
// sequences.
func TestCountMatchesScanAfterResets(t *testing.T) {
	sources := []string{"", "a", "b", "c", "ghost"}
	kinds := []Kind{Activate, Start, Finish, Miss, Recover, Kind(numKinds), 17, 200, 255}
	rnd := sim.NewRand(3)
	for round := 0; round < 20; round++ {
		var r Recorder
		for i := 0; i < 400; i++ {
			if rnd.Intn(100) == 0 {
				r.Reset()
			}
			r.Emit(sim.Time(i), kinds[rnd.Intn(len(kinds))], sources[rnd.Intn(4)], int64(i), "")
		}
		for _, k := range kinds {
			for _, src := range sources {
				want := 0
				for _, rec := range r.Records {
					if rec.Kind == k && (src == "" || rec.Source == src) {
						want++
					}
				}
				if got := r.Count(k, src); got != want {
					t.Fatalf("round %d: Count(%v, %q) = %d, scan says %d", round, k, src, got, want)
				}
			}
		}
	}
}

// BenchmarkRecorderAdd measures one record into a growing trace from a
// rotating set of sources, the shape of a platform run. Every 65536
// records it starts a fresh recorder, so the cost includes growing the
// trace but memory stays bounded.
func BenchmarkRecorderAdd(b *testing.B) {
	sources := []string{"A.sense", "A.sense", "B.ctrl", "B.ctrl", "msg1", "C.act"}
	kinds := []Kind{Activate, Start, Finish}
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%(1<<16) == 0 {
			r = &Recorder{}
		}
		r.Emit(sim.Time(i), kinds[i%len(kinds)], sources[i%len(sources)], int64(i), "")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
}
