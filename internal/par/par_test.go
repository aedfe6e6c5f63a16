package par

import (
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
		ForEach(workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
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
	ForEach(8, n, func(i int) {
		out[i] = i * i
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	ForEach(4, 0, func(int) { t.Fatal("job ran in an empty batch") })
}

func TestForEachChunkedDeterministicAcrossWorkerCounts(t *testing.T) {
	// 257 is coprime with every chunk size in play, so chunk boundaries
	// land differently per worker count; the merged output must not.
	n := 257
	for _, workers := range []int{1, 2, 3, 8, 64} {
		out := make([]int, n)
		ForEach(workers, n, func(i int) {
			out[i] = 3*i + 1
		})
		for i, v := range out {
			if v != 3*i+1 {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, 3*i+1)
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
	ForEach(4, 64, func(i int) {
		if goid() != caller {
			elsewhere.Add(1)
		}
	})
	if n := elsewhere.Load(); n != 0 {
		t.Fatalf("%d of 64 jobs ran on helpers that started after the caller took the batch", n)
	}
}
