package par

import (
	"testing"

	"autorte/internal/obs"
)

// TestObserveCountsJobs checks the pool metrics after an instrumented
// batch: job and batch counters advance, occupancy high-water is at
// least one, and the in-flight gauge settles back to zero.
func TestObserveCountsJobs(t *testing.T) {
	reg := obs.NewRegistry()
	Observe(reg)
	jobsBefore := poolStats.jobs.Load()
	batchesBefore := poolStats.batches.Load()
	ForEach(4, 16, func(i int) {})
	if got := poolStats.jobs.Load() - jobsBefore; got != 16 {
		t.Fatalf("jobs counted %d, want 16", got)
	}
	if got := poolStats.batches.Load() - batchesBefore; got != 1 {
		t.Fatalf("batches counted %d, want 1", got)
	}
	if poolStats.busyMax.Load() < 1 {
		t.Fatal("busy high-water never rose")
	}
	if poolStats.busy.Load() != 0 {
		t.Fatalf("busy gauge = %d after batch, want 0", poolStats.busy.Load())
	}
	// The registry snapshot exposes the same numbers.
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == "par_jobs_total" && s.Value >= 16 {
			found = true
		}
	}
	if !found {
		t.Fatal("par_jobs_total missing or zero in snapshot")
	}
}

// TestSequentialPathRecordsNoQueueWait guards the wait-metric fix: on the
// inline (one-worker) path every job starts at dispatch, so the queue-wait
// counter must not move — it used to accumulate each job's predecessors'
// runtimes.
func TestSequentialPathRecordsNoQueueWait(t *testing.T) {
	reg := obs.NewRegistry()
	Observe(reg)
	waitBefore := poolStats.waitNS.Load()
	ForEach(1, 64, func(i int) {})
	if d := poolStats.waitNS.Load() - waitBefore; d != 0 {
		t.Fatalf("sequential path accrued %dns queue wait, want 0", d)
	}
}
