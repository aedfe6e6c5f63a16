package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"autorte/internal/obs"
)

// TestNilRecorderNoops exercises every documented nil-safe *Recorder
// path: substrates trace unconditionally, so a nil recorder must absorb
// everything and report empty state.
func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	r.Add(Record{At: 1, Kind: Start, Source: "T"})
	r.Emit(2, Finish, "T", 1, "")
	r.Reset()
	if got := r.BySource("T"); got != nil {
		t.Fatalf("BySource on nil = %v, want nil", got)
	}
	if got := r.Count(Finish, ""); got != 0 {
		t.Fatalf("Count on nil = %d, want 0", got)
	}
	if got := r.Latencies("T"); got != nil {
		t.Fatalf("Latencies on nil = %v, want nil", got)
	}
	if got := r.Spans(); got != nil {
		t.Fatalf("Spans on nil = %v, want nil", got)
	}
	var sb strings.Builder
	if err := r.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Fatal("nil WriteChrome must still emit a valid empty trace document")
	}
}

// TestSummarizeEmpty pins the zero-record contract: Summarize on a
// recorder with no records (and on a nil recorder) yields all-zero
// stats — MissCount, AbortCount and SampleCount included — not a panic.
func TestSummarizeEmpty(t *testing.T) {
	for name, r := range map[string]*Recorder{"empty": {}, "nil": nil} {
		st := Summarize(r, "Task.run")
		if st.N != 0 || st.MissCount != 0 || st.AbortCount != 0 || st.SampleCount != 0 {
			t.Fatalf("%s recorder: Summarize = %+v, want all zero", name, st)
		}
		if st.String() != "n=0" {
			t.Fatalf("%s recorder: String() = %q, want n=0", name, st.String())
		}
	}
}

// TestStatsStringReportsAborts pins the satellite fix: the one-line
// rendering must include abort counts, not just misses.
func TestStatsStringReportsAborts(t *testing.T) {
	r := &Recorder{}
	r.Emit(0, Activate, "T", 1, "")
	r.Emit(10, Finish, "T", 1, "")
	r.Emit(20, Activate, "T", 2, "")
	r.Emit(25, Abort, "T", 2, "budget")
	r.Emit(30, Miss, "T", 2, "")
	st := Summarize(r, "T")
	if st.AbortCount != 1 || st.MissCount != 1 {
		t.Fatalf("counts = %+v", st)
	}
	s := st.String()
	if !strings.Contains(s, "miss=1") || !strings.Contains(s, "abort=1") {
		t.Fatalf("String() under-reports failures: %q", s)
	}
}

// TestChromeEventsShape checks the recorder's Chrome export end to end:
// slices from Start..Finish pairs, instant markers for misses,
// fractional-µs timestamps, and a document Perfetto can parse as JSON.
func TestChromeEventsShape(t *testing.T) {
	r := &Recorder{}
	r.Emit(1_000, Start, "A.run", 1, "")
	r.Emit(3_500, Preempt, "A.run", 1, "")
	r.Emit(4_000, Resume, "A.run", 1, "")
	r.Emit(6_000, Finish, "A.run", 1, "")
	r.Emit(7_000, Miss, "B.run", 1, "")
	events := obs.ChromeEvents(r.Spans())
	var slices, instants int
	for _, ev := range events {
		switch ev.Phase {
		case "X":
			slices++
			if ev.Dur <= 0 {
				t.Fatalf("non-positive slice duration: %+v", ev)
			}
		case "i":
			instants++
		}
	}
	if slices != 2 {
		t.Fatalf("slices = %d, want 2 (Start..Preempt, Resume..Finish)", slices)
	}
	if instants != 1 {
		t.Fatalf("instants = %d, want 1 (the miss)", instants)
	}
	var sb strings.Builder
	if err := r.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome document does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty chrome document")
	}
}
