package obs

import (
	"strings"
	"testing"
)

func TestNilFlightDiscards(t *testing.T) {
	var f *Flight
	f.Span(SpanEvent{Name: "x"})
	f.Instant(1, "x", "k", "d")
	f.OnDelta(1, "c", nil, 1)
	f.Note(1, "escalation", "rung 2")
	if got := f.History(); got != nil {
		t.Fatalf("nil flight history = %v", got)
	}
	v := f.Snapshot()
	if v.DLT != nil || v.Spans != nil || v.Deltas != nil || v.History != nil {
		t.Fatal("nil flight snapshot not empty")
	}
	// The embedded DLT pointer on a nil flight is unreachable, but a
	// zero-value view must also emit safely.
	if v.DLTTotal != 0 || v.SpanTotal != 0 {
		t.Fatal("nil flight snapshot has totals")
	}
}

func TestFlightDefaultsAndSnapshot(t *testing.T) {
	f := NewFlight(FlightConfig{})
	if f.DLT.Cap() != DefaultFlightDLTCap {
		t.Fatalf("dlt cap = %d, want %d", f.DLT.Cap(), DefaultFlightDLTCap)
	}
	// Default DLT floor is info: debug must be filtered.
	f.DLT.Emit(10, LevelDebug, "APP", "CTX", "chatter")
	f.DLT.Emit(20, LevelWarn, "APP", "CTX", "kept")
	f.Span(SpanEvent{Name: "task", Start: 5, End: 15, Kind: "finish"})
	f.Instant(30, "miss", "miss", "deadline")
	f.OnDelta(40, "errors_total", []Label{{Key: "task", Value: "t"}}, 2)
	f.Note(50, "degradation", "normal->degraded")

	v := f.Snapshot()
	if len(v.DLT) != 1 || v.DLT[0].Msg != "kept" {
		t.Fatalf("dlt = %+v, want only the warn record", v.DLT)
	}
	if v.DLTTotal != 1 {
		t.Fatalf("dlt total = %d, want 1 (debug filtered, not counted)", v.DLTTotal)
	}
	if len(v.Spans) != 2 || v.SpanTotal != 2 {
		t.Fatalf("spans = %+v total=%d", v.Spans, v.SpanTotal)
	}
	if v.Spans[1].Start != 30 || v.Spans[1].End != 30 {
		t.Fatalf("instant span = %+v, want start==end==30", v.Spans[1])
	}
	if len(v.Deltas) != 1 || v.Deltas[0].Delta != 2 {
		t.Fatalf("deltas = %+v", v.Deltas)
	}
	if len(v.History) != 1 || v.History[0].Kind != "degradation" {
		t.Fatalf("history = %+v", v.History)
	}
}

func TestFlightRingsBound(t *testing.T) {
	f := NewFlight(FlightConfig{DLTCap: 4, SpanCap: 3, DeltaCap: 2, HistoryCap: 2, DLTMin: LevelVerbose})
	msgs := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9"}
	for i := 0; i < 10; i++ {
		// Distinct messages: identical ones would burst-suppress instead
		// of exercising the ring bound.
		f.DLT.Emit(int64(i), LevelInfo, "A", "C", msgs[i])
		// Span, not Instant: identical instants would coalesce instead of
		// exercising the ring bound.
		f.Span(SpanEvent{Name: "s", Start: int64(i), End: int64(i)})
		f.OnDelta(int64(i), "c", nil, 1)
		f.Note(int64(i), "k", "d")
	}
	v := f.Snapshot()
	if len(v.DLT) != 4 || v.DLT[0].At != 6 {
		t.Fatalf("dlt ring = %d records, first at %d", len(v.DLT), v.DLT[0].At)
	}
	if len(v.Spans) != 3 || len(v.Deltas) != 2 || len(v.History) != 2 {
		t.Fatalf("ring lens = %d/%d/%d", len(v.Spans), len(v.Deltas), len(v.History))
	}
	if v.SpanTotal != 10 || v.DeltaTotal != 10 {
		t.Fatalf("totals = %d/%d, want 10/10", v.SpanTotal, v.DeltaTotal)
	}
}

// TestFlightInstantCoalesces: a storm of identical instants folds into
// one counted burst event instead of churning (and flooding) the span
// ring, and the burst interleaving a few sources still folds per source.
func TestFlightInstantCoalesces(t *testing.T) {
	f := NewFlight(FlightConfig{SpanCap: 8})
	for i := 0; i < 500; i++ {
		f.Instant(int64(i), "Cmd", "drop", "arbitration lost")
		f.Instant(int64(i), "Tele", "drop", "arbitration lost")
	}
	f.Instant(1000, "Sensor.sample", "abort", "budget exhausted")
	v := f.Snapshot()
	if len(v.Spans) != 3 {
		t.Fatalf("spans = %+v, want two coalesced bursts and one abort", v.Spans)
	}
	if v.SpanTotal != 1001 {
		t.Fatalf("span total = %d, want every occurrence counted", v.SpanTotal)
	}
	for _, sp := range v.Spans[:2] {
		if sp.Count != 500 || sp.Start != 0 || sp.End != 499 {
			t.Fatalf("burst = %+v, want count 500 spanning 0..499", sp)
		}
	}
	if v.Spans[2].Kind != "abort" || v.Spans[2].Count != 0 {
		t.Fatalf("abort = %+v, want a plain single instant", v.Spans[2])
	}
}

// TestFlightInstantCoalescesAcrossWrap: the coalescing scan reaches the
// whole lookback past the newest span, indexes correctly once the ring
// has wrapped, and skips spans that are still open.
func TestFlightInstantCoalescesAcrossWrap(t *testing.T) {
	f := NewFlight(FlightConfig{SpanCap: 4})
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		f.Instant(int64(i), name, "miss", "") // a is evicted: b c d e
	}
	f.Instant(10, "b", "miss", "") // four back, across the wrap point
	f.Span(SpanEvent{Name: "e", Kind: "miss", Start: 11, Open: true})
	f.Instant(12, "e", "miss", "") // skips the open e, merges into the closed one
	f.Instant(13, "a", "miss", "") // not retained: pushed, evicting b
	v := f.Snapshot()
	if v.SpanTotal != 9 {
		t.Fatalf("span total = %d, want every occurrence counted", v.SpanTotal)
	}
	var names []string
	for _, sp := range v.Spans {
		names = append(names, sp.Name)
	}
	if got := strings.Join(names, ""); got != "deea" {
		t.Fatalf("retained spans %q, want deea (oldest first)", got)
	}
	if e := v.Spans[1]; e.Open || e.Count != 2 || e.Start != 4 || e.End != 12 {
		t.Fatalf("e = %+v, want the closed e holding two occurrences 4..12", e)
	}
}

func TestLogSubscribe(t *testing.T) {
	l := NewBoundedLog(LevelInfo, 8)
	// Records before subscribe are not replayed.
	l.Emit(1, LevelInfo, "A", "C", "before")
	ch, cancel := l.Subscribe(4)
	l.Emit(2, LevelInfo, "A", "C", "after")
	rec := <-ch
	if rec.Msg != "after" {
		t.Fatalf("tail got %q, want the post-subscribe record", rec.Msg)
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after cancel")
	}
	// Emitting after cancel must not panic or block.
	l.Emit(3, LevelInfo, "A", "C", "late")
	cancel() // idempotent

	var nilLog *Log
	nch, ncancel := nilLog.Subscribe(1)
	if _, ok := <-nch; ok {
		t.Fatal("nil log subscription delivered a record")
	}
	ncancel()
}

func TestLogSubscribeDropsWhenFull(t *testing.T) {
	l := NewLog(LevelInfo)
	ch, cancel := l.Subscribe(1)
	defer cancel()
	l.Emit(1, LevelInfo, "A", "C", "one")
	l.Emit(2, LevelInfo, "A", "C", "two") // buffer full: dropped, not blocking
	rec := <-ch
	if rec.Msg != "one" {
		t.Fatalf("got %q, want first record", rec.Msg)
	}
	select {
	case rec := <-ch:
		t.Fatalf("unexpected second delivery %q", rec.Msg)
	default:
	}
}

// TestBoundedLogRepeatSuppression: a storm of identical (or two
// alternating) messages folds into counted records in ring mode instead
// of churning the ring, while a distinct message still appends and live
// subscribers see every raw emission.
func TestBoundedLogRepeatSuppression(t *testing.T) {
	l := NewBoundedLog(LevelInfo, 8)
	ch, cancel := l.Subscribe(16)
	defer cancel()
	for i := 0; i < 5; i++ {
		l.Emit(int64(i), LevelError, "RTE", "ERR", "stale chain input")
		l.Emit(int64(i), LevelError, "RTE", "ERR", "implausible chain input")
	}
	l.Emit(100, LevelWarn, "HLTH", "ESCL", "rung 1")
	recs := l.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %+v, want two suppressed bursts and one distinct", recs)
	}
	if recs[0].Repeat != 5 || recs[0].At != 0 || recs[1].Repeat != 5 {
		t.Fatalf("bursts = %+v, want repeat 5 keeping the first At", recs[:2])
	}
	if recs[2].Repeat != 0 {
		t.Fatalf("distinct record carries repeat %d", recs[2].Repeat)
	}
	if l.Total() != 11 {
		t.Fatalf("total = %d, want every suppressed emission counted", l.Total())
	}
	if len(ch) != 11 {
		t.Fatalf("subscriber saw %d records, want all 11 raw emissions", len(ch))
	}
	// An unbounded log keeps full fidelity: suppression is a black-box
	// storage policy, not a logging semantics change.
	u := NewLog(LevelInfo)
	u.Emit(1, LevelInfo, "A", "C", "same")
	u.Emit(2, LevelInfo, "A", "C", "same")
	if got := u.Records(); len(got) != 2 {
		t.Fatalf("unbounded log suppressed: %+v", got)
	}
}

func TestBoundedLogWrap(t *testing.T) {
	l := NewBoundedLog(LevelVerbose, 3)
	for i := 0; i < 7; i++ {
		l.Emit(int64(i), LevelInfo, "A", "C", strings.Repeat("x", i+1))
	}
	recs := l.Records()
	if len(recs) != 3 || recs[0].At != 4 || recs[2].At != 6 {
		t.Fatalf("ring records = %+v", recs)
	}
	if l.Total() != 7 || l.Len() != 3 || l.Cap() != 3 {
		t.Fatalf("total=%d len=%d cap=%d", l.Total(), l.Len(), l.Cap())
	}
}
