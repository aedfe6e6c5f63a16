package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace invalid: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatal("empty trace has events")
	}
}

// TestWriteChromeTraceDocument pins the document's bytes: a header, one
// event per line, and a closing line.
func TestWriteChromeTraceDocument(t *testing.T) {
	var buf bytes.Buffer
	events := []TraceEvent{
		{Name: "a", Phase: "X", TS: 1.5, Dur: 2, PID: 1, TID: 1},
		{Name: "b", Phase: "i", TS: 3, PID: 1, TID: 2, Scope: "t", Args: map[string]any{"detail": "d"}},
	}
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[
{"name":"a","ph":"X","ts":1.5,"dur":2,"pid":1,"tid":1},
{"name":"b","ph":"i","ts":3,"pid":1,"tid":2,"s":"t","args":{"detail":"d"}}
]}
`
	if buf.String() != want {
		t.Fatalf("document =\n%s\nwant\n%s", buf.String(), want)
	}
}

// failingWriter accepts `left` writes, then fails every later one with a
// new error, so a test can tell the first failure from the rest.
type failingWriter struct {
	left  int
	fails []error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.left > 0 {
		f.left--
		return len(p), nil
	}
	err := errors.New("disk full")
	f.fails = append(f.fails, err)
	return 0, err
}

// TestWriteChromeTraceFirstError checks that a failed write surfaces,
// and that it is the first failure that does — also on a trace larger
// than any write buffer.
func TestWriteChromeTraceFirstError(t *testing.T) {
	events := make([]TraceEvent, 10_500)
	for i := range events {
		events[i] = TraceEvent{Name: "task", Phase: "X", TS: float64(i), Dur: 1, PID: 1, TID: int64(i % 7)}
	}
	for _, left := range []int{0, 1, 3} {
		w := &failingWriter{left: left}
		err := WriteChromeTrace(w, events)
		if err == nil || len(w.fails) == 0 {
			t.Fatalf("left=%d: write error not surfaced (err %v)", left, err)
		}
		if err != w.fails[0] {
			t.Fatalf("left=%d: returned %v, not the first failure", left, err)
		}
	}
}

// TestChromeEventsLanesAndPhases checks the one converter: a lane per
// Kind (per Name without one) in first-appearance order, X for spans
// with extent or marked Interval, i for instants, and detail/count args.
func TestChromeEventsLanesAndPhases(t *testing.T) {
	spans := []SpanEvent{
		{Name: "run", Kind: "A", Start: 1000, End: 3500, Interval: true},
		{Name: "run", Kind: "B", Start: 4000, End: 4000, Interval: true},
		{Name: "deadline miss", Kind: "A", Start: 5000, End: 5000, Detail: "job 1"},
		{Name: "burst", Start: 6000, End: 9000, Count: 3},
	}
	events := ChromeEvents(spans)
	if len(events) != 1+3+len(spans) {
		t.Fatalf("%d events, want a process, three lanes and %d spans: %+v", len(events), len(spans), events)
	}
	for i, lane := range []string{"A", "B", "burst"} {
		ev := events[1+i]
		if ev.Phase != "M" || ev.TID != int64(i+1) || ev.Args["name"] != lane {
			t.Fatalf("lane %d = %+v, want %q", i+1, ev, lane)
		}
	}
	got := events[4:]
	want := []struct {
		phase string
		tid   int64
		ts    float64
		dur   float64
	}{{"X", 1, 1, 2.5}, {"X", 2, 4, 0}, {"i", 1, 5, 0}, {"X", 3, 6, 3}}
	for i, w := range want {
		ev := got[i]
		if ev.Phase != w.phase || ev.TID != w.tid || ev.TS != w.ts || ev.Dur != w.dur {
			t.Fatalf("span %d -> %+v, want %+v", i, ev, w)
		}
	}
	if got[2].Args["detail"] != "job 1" || got[2].Scope != "t" {
		t.Fatalf("instant lost its detail or scope: %+v", got[2])
	}
	if got[3].Args["count"] != 3 {
		t.Fatalf("burst lost its count: %+v", got[3])
	}
}
