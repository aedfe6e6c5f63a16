package obs_test

// Snapshot consistency under concurrent writers: par workers hammer
// counters, histograms, the flight DLT and the span/delta rings while
// the main goroutine cuts registry and flight snapshots. Run under
// `go test -race` (make check does) this doubles as a data-race proof;
// the assertions below catch torn reads and non-monotonic counters even
// without the race detector.

import (
	"strconv"
	"sync/atomic"
	"testing"

	"autorte/internal/obs"
	"autorte/internal/par"
)

func TestSnapshotConsistencyUnderConcurrentWriters(t *testing.T) {
	const (
		workers = 8
		jobs    = 64
		perJob  = 200
	)
	reg := obs.NewRegistry()
	counter := reg.Counter("hammer_total", "concurrent increments")
	hist := reg.Histogram("hammer_ns", "concurrent observations")
	flight := obs.NewFlight(obs.FlightConfig{DLTCap: 256, SpanCap: 128, DeltaCap: 128, DLTMin: obs.LevelVerbose})

	var stop atomic.Bool
	snapshotsDone := make(chan int)
	go func() {
		cuts := 0
		var lastCounter float64
		for !stop.Load() {
			for _, s := range reg.Snapshot() {
				if s.Name != "hammer_total" {
					continue
				}
				// Counters are monotonic: a snapshot may lag but never
				// run backwards, and never shows a torn (non-integer)
				// value.
				if s.Value < lastCounter {
					t.Errorf("counter went backwards: %v -> %v", lastCounter, s.Value)
				}
				if s.Value != float64(uint64(s.Value)) {
					t.Errorf("torn counter read: %v", s.Value)
				}
				lastCounter = s.Value
			}
			v := flight.Snapshot()
			if len(v.DLT) > 256 || len(v.Spans) > 128 || len(v.Deltas) > 128 {
				t.Errorf("ring overflow: dlt=%d spans=%d deltas=%d", len(v.DLT), len(v.Spans), len(v.Deltas))
			}
			if uint64(len(v.DLT)) > v.DLTTotal {
				t.Errorf("retained %d DLT records but total is %d", len(v.DLT), v.DLTTotal)
			}
			cuts++
		}
		snapshotsDone <- cuts
	}()

	par.ForEach(workers, jobs, func(i int) {
		for k := 0; k < perJob; k++ {
			counter.Inc()
			hist.Observe(int64(k + 1))
			// Unique payloads per event: identical records would
			// burst-suppress/coalesce instead of wrapping the rings.
			uniq := strconv.Itoa(i*perJob + k)
			flight.DLT.Emit(int64(k), obs.LevelInfo, "TEST", "RACE", uniq)
			flight.Instant(int64(k), "hammer", "test", uniq)
			flight.OnDelta(int64(k), "hammer_total", nil, 1)
		}
	})
	stop.Store(true)
	cuts := <-snapshotsDone
	if cuts == 0 {
		t.Log("no snapshot cut concurrently (machine too fast/slow); final checks still apply")
	}

	const want = jobs * perJob
	if got := counter.Value(); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if got := hist.Count(); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
	v := flight.Snapshot()
	if v.DLTTotal != want || v.SpanTotal != want || v.DeltaTotal != want {
		t.Fatalf("flight totals = %d/%d/%d, want %d", v.DLTTotal, v.SpanTotal, v.DeltaTotal, want)
	}
	if len(v.DLT) != 256 || len(v.Spans) != 128 || len(v.Deltas) != 128 {
		t.Fatalf("rings not at cap: %d/%d/%d", len(v.DLT), len(v.Spans), len(v.Deltas))
	}
}
