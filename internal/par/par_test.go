package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestForEachRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		n := 100
		counts := make([]int32, n)
		if err := ForEach(workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachDeterministicMerge(t *testing.T) {
	n := 64
	out := make([]int, n)
	if err := ForEach(8, n, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Every job fails; the reported error must be job 0's, matching the
	// sequential loop, independent of scheduling.
	for _, workers := range []int{1, 4} {
		err := ForEach(workers, 16, func(i int) error {
			return fmt.Errorf("job %d", i)
		})
		if err == nil || err.Error() != "job 0" {
			t.Fatalf("workers=%d: err = %v, want job 0", workers, err)
		}
	}
}

func TestForEachCancelsUndispatchedAfterError(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	err := ForEach(1, 100, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran != 4 { // sequential path: jobs 0..3, then stop
		t.Fatalf("ran = %d jobs, want 4", ran)
	}
}

func TestForEachZeroJobs(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachChunkedDeterministicAcrossWorkerCounts(t *testing.T) {
	// 257 is coprime with every chunk size in play, so chunk boundaries
	// land differently per worker count; the merged output must not.
	n := 257
	for _, workers := range []int{1, 2, 3, 8, 64} {
		out := make([]int, n)
		if err := ForEach(workers, n, func(i int) error {
			out[i] = 3*i + 1
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != 3*i+1 {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, 3*i+1)
			}
		}
	}
}

func TestForEachSingleFailureMatchesSequential(t *testing.T) {
	// With exactly one failing job, the reported error must be that job's,
	// at any worker count and wherever the failure lands within a chunk.
	boom := errors.New("boom")
	for _, workers := range []int{1, 3, 8} {
		for _, failAt := range []int{0, 17, 99} {
			err := ForEach(workers, 100, func(i int) error {
				if i == failAt {
					return fmt.Errorf("job %d failed: %w", i, boom)
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("workers=%d failAt=%d: err = %v", workers, failAt, err)
			}
			want := fmt.Sprintf("job %d failed: boom", failAt)
			if err.Error() != want {
				t.Fatalf("workers=%d failAt=%d: err = %q, want %q", workers, failAt, err, want)
			}
		}
	}
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// With one processor the helpers ForEach starts cannot run while the
// caller works. The caller runs every chunk itself and returns without
// waiting for them: a helper that starts late neither takes work from
// the batch nor delays it.
func TestForEachLateHelpersDoNotDelayTheCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	caller := goid()
	var elsewhere atomic.Int32
	if err := ForEach(4, 64, func(i int) error {
		if goid() != caller {
			elsewhere.Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := elsewhere.Load(); n != 0 {
		t.Fatalf("%d of 64 jobs ran on helpers that started after the caller took the batch", n)
	}
}
