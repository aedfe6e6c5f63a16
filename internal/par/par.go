// Package par provides the bounded fan-out primitive of the fault
// campaigns (fault.RunCampaign) and the restart-based annealing search
// (deploy.AnnealParallel): a GOMAXPROCS-sized worker pool that runs
// indexed jobs and merges results deterministically. Callers pre-size an
// output slice and have job i write only slot i, so the merged output is
// identical to a sequential loop regardless of scheduling. It pays across
// independent units of work of about 100 µs or more (scenarios,
// restarts); a pass made of microsecond jobs, such as one verification
// pass or one descent round, runs faster inline on its caller.
package par

import (
	"runtime"
	"sync/atomic"
	"time"

	"autorte/internal/obs"
)

// poolStats is the pool's shared instrumentation. The counters are
// always declared but only maintained once Observe has been called
// (checking `enabled` is a single atomic load per batch), so the
// uninstrumented hot path pays nothing measurable.
var poolStats struct {
	enabled atomic.Bool
	batches atomic.Uint64 // ForEach calls that dispatched at least one job
	jobs    atomic.Uint64 // jobs executed
	waitNS  atomic.Uint64 // total ns dispatched chunks waited before pickup
	busyNS  atomic.Uint64 // total ns workers spent inside job functions
	busy    atomic.Int64  // workers currently inside a job function
	busyMax atomic.Int64  // high-water mark of busy
}

// Observe registers the pool's occupancy metrics into a registry and
// enables their collection (collection stays enabled for the process
// lifetime; the counters are global because the pool is). Metrics:
//
//	par_batches_total       ForEach invocations
//	par_jobs_total          jobs executed
//	par_queue_wait_ns_total ns dispatched chunks spent queued before a
//	                        worker picked them up (the fan-out path only:
//	                        on the sequential path every job starts the
//	                        moment it is dispatched, so no wait accrues)
//	par_busy_ns_total       ns workers spent executing jobs
//	par_busy_workers        workers inside a job right now
//	par_busy_workers_max    high-water mark of par_busy_workers
func Observe(reg *obs.Registry) {
	poolStats.enabled.Store(true)
	reg.CounterFunc("par_batches_total", "ForEach invocations that dispatched jobs.", poolStats.batches.Load)
	reg.CounterFunc("par_jobs_total", "Jobs executed by the worker pool.", poolStats.jobs.Load)
	reg.CounterFunc("par_queue_wait_ns_total", "Nanoseconds dispatched work chunks spent queued before a worker picked them up.", poolStats.waitNS.Load)
	reg.CounterFunc("par_busy_ns_total", "Nanoseconds workers spent inside job functions.", poolStats.busyNS.Load)
	reg.GaugeFunc("par_busy_workers", "Workers currently executing a job.", func() float64 { return float64(poolStats.busy.Load()) })
	reg.GaugeFunc("par_busy_workers_max", "High-water mark of concurrently busy workers.", func() float64 { return float64(poolStats.busyMax.Load()) })
}

// runJob executes one job with occupancy accounting. Queue wait is NOT
// measured here — a job's predecessors on the same worker are execution,
// not queuing, so per-job wait measured from batch start would wrongly
// charge each job with every sibling's runtime (it used to). Pickup
// delay is accounted per dispatched chunk in ForEach instead.
func runJob(instrumented bool, job func(i int), i int) {
	if !instrumented {
		job(i)
		return
	}
	started := time.Now() //autovet:allow walltime pool busy metric measures the host
	busy := poolStats.busy.Add(1)
	for {
		max := poolStats.busyMax.Load()
		if busy <= max || poolStats.busyMax.CompareAndSwap(max, busy) {
			break
		}
	}
	job(i)
	poolStats.busyNS.Add(uint64(time.Since(started).Nanoseconds())) //autovet:allow walltime pool busy metric measures the host
	poolStats.busy.Add(-1)
	poolStats.jobs.Add(1)
}

// Workers normalizes a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0).
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

const (
	// minFanOut is the smallest batch worth fanning out: below it the
	// goroutine and channel setup costs more than the overlap buys, so
	// smaller batches run on the caller's goroutine.
	minFanOut = 4
	// chunksPerWorker trades dispatch overhead against load balance:
	// each worker's share is split into this many chunks so uneven job
	// costs still spread, while the per-index channel handoff of the old
	// dispatcher (one blocking send per job) is gone.
	chunksPerWorker = 4
)

// chunkSpan is one contiguous dispatched index range [lo, hi).
type chunkSpan struct{ lo, hi int }

// ForEach runs job(0) … job(n-1) on at most workers goroutines
// (normalized via Workers) and blocks until every job has returned. Work
// is dispatched in index order as contiguous chunks through a buffered
// queue, so dispatch never blocks on a worker, and batches below
// minFanOut (or with one worker) run inline on the caller's goroutine.
// Jobs report outcomes through their slots: job i writes only slot i of a
// pre-sized output, so the merged output is the same whatever the
// scheduling.
func ForEach(workers, n int, job func(i int)) {
	if n <= 0 {
		return
	}
	instrumented := poolStats.enabled.Load()
	var batchStart time.Time
	if instrumented {
		batchStart = time.Now() //autovet:allow walltime pool batch metric measures the host
		poolStats.batches.Add(1)
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 || n < minFanOut {
		// Inline path: each job starts the moment it is dispatched, so no
		// queue wait accrues (and none is recorded).
		for i := 0; i < n; i++ {
			runJob(instrumented, job, i)
		}
		return
	}
	chunk := n / (w * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	// The whole batch is enqueued up front into a buffered channel and the
	// channel closed: dispatch is a non-blocking O(chunks) loop and no
	// producer goroutine is left behind.
	spans := make(chan chunkSpan, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		spans <- chunkSpan{lo, hi}
	}
	close(spans)
	var (
		left atomic.Int64 // chunks not run yet
		done = make(chan struct{})
	)
	left.Store(int64(cap(spans)))
	work := func() {
		for sp := range spans {
			if instrumented {
				// Queue wait: how long the chunk sat dispatched before
				// any worker was free to start it.
				poolStats.waitNS.Add(uint64(time.Since(batchStart).Nanoseconds())) //autovet:allow walltime pool queue-wait metric measures the host
			}
			for i := sp.lo; i < sp.hi; i++ {
				runJob(instrumented, job, i)
			}
			if left.Add(-1) == 0 {
				close(done)
			}
		}
	}
	// The caller is one of the workers, and it waits for the chunks, not
	// for the helpers: a helper that starts only after the queue drained
	// finds nothing to do and exits without delaying the batch. Helpers
	// do start late: the runtime queues the last goroutine a caller
	// starts in its own processor's run-next slot, which an idle
	// processor steals only after a back-off (50–70 µs measured on a
	// 2-vCPU Linux VM), so with two workers a batch shorter than that
	// runs on the caller alone.
	for k := 1; k < w; k++ {
		go work()
	}
	work()
	<-done
}
