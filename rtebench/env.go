package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"autorte/internal/obs"
	"autorte/internal/par"
)

// env is the per-run state the workloads share: the span recorder and the
// layer accumulator (both nil while the run is untraced), and the failure
// bookkeeping.
type env struct {
	name   string
	log    io.Writer
	spans  *tracer
	layers *layers

	attempted, failed int
	failures          []string
	// excluded marks the current traced operation as not comparable with
	// the untraced ones (simulate's recorder-off episodes), so it stays out
	// of trace_overhead_ratio.
	excluded bool
	// cmp holds the latencies of the comparable traced operations.
	cmp []float64
	// held samples heldBytes after every operation, in MB.
	held []float64
}

func newEnv(name string, log io.Writer) *env {
	return &env{name: name, log: log}
}

// failf records a failed check; the run then reports correct=false.
func (e *env) failf(format string, args ...any) {
	e.failures = append(e.failures, fmt.Sprintf(format, args...))
}

// loop is the closed loop: one client, each operation starting when the
// previous one returned, until length has elapsed. It returns the host
// latency of every successful operation in ms.
func (e *env) loop(inst instance, i *int, length time.Duration) []float64 {
	var lat []float64
	runtime.GC()
	deadline := time.Now().Add(length)
	for time.Now().Before(deadline) {
		root := e.spans.open("bench.op")
		e.excluded = false
		d, err := inst.op(*i)
		e.spans.close(root)
		*i++
		e.attempted++
		e.held = append(e.held, float64(heldBytes())/mib)
		if e.layers != nil {
			e.layers.ops++
			e.layers.timed += d
		}
		if err != nil {
			e.failed++
			if e.failed <= 5 {
				fmt.Fprintf(e.log, "rtebench: %s operation %d: %v\n", e.name, *i-1, err)
			}
			continue
		}
		ms := d.Seconds() * 1e3
		lat = append(lat, ms)
		if e.layers != nil && !e.excluded {
			e.cmp = append(e.cmp, ms)
		}
	}
	return lat
}

// repeatCheck records input j's first result digest and checks every
// later one against it.
func repeatCheck(seen []string, j int, dig string) error {
	if seen[j] == "" {
		seen[j] = dig
	} else if seen[j] != dig {
		return fmt.Errorf("input %d: result differs from the input's first one", j)
	}
	return nil
}

// recheck re-runs up to n visited inputs through run, another way of
// computing the same output (described by how), and compares with seen.
func recheck(seen []string, n int, how string, run func(j int) (string, error)) error {
	var bad []string
	checked := 0
	for j := 0; j < len(seen) && checked < n; j++ {
		if seen[j] == "" {
			continue
		}
		checked++
		dig, err := run(j)
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("input %d %s: %v", j, how, err))
		case dig != seen[j]:
			bad = append(bad, fmt.Sprintf("input %d: result %s differs from the timed one", j, how))
		}
	}
	if checked == 0 {
		return fmt.Errorf("no result to re-run %s", how)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}

// call times one public call. While the run is traced it also records a
// span and the call's duration and allocation by name.
func (e *env) call(name string, fn func() error) (time.Duration, error) {
	var a0 uint64
	if e.layers != nil {
		a0 = heapAllocBytes()
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	e.spans.record(name, t0, d)
	if e.layers != nil {
		e.layers.raw["ns:"+name] += float64(d.Nanoseconds())
		e.layers.raw["calls:"+name]++
		e.layers.raw["alloc:"+name] += float64(heapAllocBytes() - a0)
	}
	return d, err
}

// add accumulates a value a workload measures itself (traced runs only).
func (e *env) add(key string, v float64) {
	if e.layers != nil {
		e.layers.raw[key] += v
	}
}

// layers accumulates the traced phase's per-layer raw values.
type layers struct {
	ops   int
	timed time.Duration
	raw   map[string]float64
	max   map[string]float64
	rt0   runtime.MemStats
	rt1   runtime.MemStats
}

func newLayers() *layers {
	return &layers{raw: map[string]float64{}, max: map[string]float64{}}
}

// startPhase begins the traced phase: the values set-up recorded are kept
// under a "setup:" prefix, operation values start from zero, and the
// process-wide pool counters start counting.
func (l *layers) startPhase() {
	setup := make(map[string]float64, len(l.raw))
	for k, v := range l.raw {
		setup["setup:"+k] = v
	}
	l.raw = setup
	l.ops, l.timed = 0, 0
	par.Observe(obs.NewRegistry())
	runtime.ReadMemStats(&l.rt0)
}

func (l *layers) stopPhase() {
	runtime.ReadMemStats(&l.rt1)
}

// probe is one traced operation's view of the platform's Observe hooks:
// a fresh registry the operation's objects register into, read before and
// after so that only the operation's own work counts.
type probe struct {
	e      *env
	reg    *obs.Registry
	before map[string]float64
}

// probe attaches the worker pool and the given hooks to a fresh registry.
// It returns nil while the run is untraced; a nil probe's methods do
// nothing.
func (e *env) probe(attach ...func(*obs.Registry)) *probe {
	if e.layers == nil {
		return nil
	}
	reg := obs.NewRegistry()
	par.Observe(reg)
	for _, a := range attach {
		a(reg)
	}
	return &probe{e: e, reg: reg, before: readSeries(reg)}
}

// done adds the change of every counter and histogram since the probe was
// opened, and keeps the maximum of every gauge.
func (p *probe) done() {
	if p == nil {
		return
	}
	for k, v := range readSeries(p.reg) {
		if strings.HasPrefix(k, "gauge:") {
			p.e.layers.max[k] = math.Max(p.e.layers.max[k], v)
			continue
		}
		p.e.layers.raw[k] += v - p.before[k]
	}
}

// readSeries flattens a registry snapshot to key → value. Keys are the
// series name plus its sorted labels; gauges are prefixed "gauge:",
// histograms contribute "_sum" and "_count" keys.
func readSeries(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Snapshot() {
		key := seriesKey(s.Name, s.Labels)
		switch s.Kind {
		case "gauge":
			out["gauge:"+key] = s.Value
		case "histogram":
			out[key+"_sum"] = float64(s.Sum)
			out[key+"_count"] = float64(s.Count)
		default:
			out[key] = s.Value
		}
	}
	return out
}

func seriesKey(name string, labels []obs.Label) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "=" + l.Value
	}
	sort.Strings(parts)
	return name + "{" + strings.Join(parts, ",") + "}"
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	if allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample[0].Value.Uint64()
}

var heldSample = []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}

// heldBytes is the memory the Go runtime holds from the operating system:
// everything it mapped minus the heap pages it returned.
func heldBytes() uint64 {
	metrics.Read(heldSample)
	if heldSample[0].Value.Kind() != metrics.KindUint64 || heldSample[1].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return heldSample[0].Value.Uint64() - heldSample[1].Value.Uint64()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile is the p-th percentile of xs by linear interpolation between
// the closest ranks (the usual "type 7" definition). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples strictly above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}
