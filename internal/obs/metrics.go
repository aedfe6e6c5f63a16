// Package obs is the platform's observability layer: a dependency-free
// metrics core (counters, gauges, log-bucketed histograms with
// allocation-free updates and deterministic snapshots), a structured
// event log modeled on AUTOSAR DLT (internal/obs/log.go), host-time
// span tracing (internal/obs/span.go), and one timeline format,
// SpanEvent, that flight-recorder spans, virtual-time execution traces
// and tracer spans all export through one Chrome trace-event converter
// (ChromeEvents, internal/obs/chrome.go).
//
// The substrate packages (sched, can, flexray, par, sim, rte, deploy,
// core) expose their hidden state — cache hit rates, pool occupancy,
// kernel event counts, error reports, DSE move counters, pipeline stage
// durations — through Observe hooks that register into a Registry; the
// CLIs export the result as Prometheus text exposition or JSON.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. Updates are single atomic
// adds: allocation-free and safe for concurrent use. The zero value is
// ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// SetMax raises the gauge to v if v is larger — a high-water mark.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// histBuckets is the number of histogram buckets: bucket 0 holds values
// <= 0 and bucket i (1..64) holds values v with 2^(i-1) <= v < 2^i.
const histBuckets = 65

// Histogram counts observations in fixed log2-scale buckets — the
// classic latency-histogram shape, covering 1ns to ~9.2s-in-ns (and any
// other int64-valued sample) without configuration. Observations are two
// atomic adds plus one atomic increment: allocation-free. The zero value
// is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// BucketBound returns the inclusive upper bound of bucket i: 0 for
// bucket 0, 2^i - 1 for buckets 1..63, and MaxInt64 for the last bucket.
func BucketBound(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= histBuckets-1:
		return int64(^uint64(0) >> 1) // MaxInt64
	default:
		return int64(1)<<i - 1
	}
}

// Label is one metric dimension, e.g. {Key: "stage", Value: "ecu"}.
type Label struct{ Key, Value string }

// Kind classifies a registered metric.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered time series.
type metric struct {
	name   string
	help   string
	labels []Label
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// pull-style readers; at most one is set, taking precedence over the
	// push-style fields above.
	counterFn func() uint64
	gaugeFn   func() float64
}

// key returns the identity of the series: name plus sorted labels.
func seriesKey(name string, labels []Label) string {
	k := name
	for _, l := range labels {
		k += "\xff" + l.Key + "\xfe" + l.Value
	}
	return k
}

// Registry holds named metrics. Registration is idempotent: asking for
// the same (name, labels) series again returns the existing instrument,
// so independent layers can share a registry without coordination.
// Registration takes a lock; updates on the returned instruments do not.
// A nil *Registry is valid and records nothing.
//
//autovet:nilsafe
type Registry struct {
	mu    sync.Mutex
	index map[string]*metric
	//autovet:bounded one entry per distinct series key, deduped via index
	all []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*metric{}}
}

// register returns the existing series or creates it via make. Mixing
// kinds under one series key panics: it is a programming error that
// would silently corrupt the export otherwise.
func (r *Registry) register(name, help string, kind Kind, labels []Label, create func(*metric)) *metric {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	key := seriesKey(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[key]; ok {
		if m.kind != kind {
			panic("obs: metric " + name + " re-registered as a different kind")
		}
		return m
	}
	m := &metric{name: name, help: help, labels: sorted, kind: kind}
	//autovet:allow lockorder create is the registry's own field-initializer closure, not user code
	create(m)
	r.index[key] = m
	r.all = append(r.all, m)
	return m
}

// Counter returns the counter for (name, labels), creating it on first
// use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{} // live but unregistered: updates are discarded
	}
	m := r.register(name, help, KindCounter, labels, func(m *metric) { m.counter = &Counter{} })
	return m.counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	m := r.register(name, help, KindGauge, labels, func(m *metric) { m.gauge = &Gauge{} })
	return m.gauge
}

// Histogram returns the histogram for (name, labels), creating it on
// first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	m := r.register(name, help, KindHistogram, labels, func(m *metric) { m.hist = &Histogram{} })
	return m.hist
}

// CounterFunc registers a pull-style counter: fn is read at snapshot
// time. Use it to surface counters a substrate already maintains (cache
// hits, kernel event counts) without double-counting.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, KindCounter, labels, func(m *metric) { m.counterFn = fn })
}

// GaugeFunc registers a pull-style gauge read at snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, KindGauge, labels, func(m *metric) { m.gaugeFn = fn })
}
