package obs

// The flight recorder: always-on, fixed-size ring buffers for the three
// observability streams (DLT records, spans, metric deltas) plus a
// platform-history ring (escalations, degradations, mode changes). The
// rings are bounded and allocation-free once full, so a platform keeps
// one attached for its whole life — like an automotive event-data
// recorder, the last seconds before an incident are always available,
// and a diagnostic bundle (bundle.go) is a serialized Snapshot.

import "sync"

// SpanEvent is one interval or instant of a timeline — the one span
// format every timeline renders through (ChromeEvents): the flight
// recorder's ring, a trace.Recorder's execution slices and a Tracer's
// pipeline spans. Platform task lifecycle events record as instants
// (Start == End); intervals carry Interval, so a zero-length one stays
// an interval; spans still open at the last observation carry Open. A
// burst of identical instants coalesces into one event whose Count is
// the number of occurrences (zero means one) and whose Start..End
// brackets the burst — so a fault storm neither churns the ring nor
// evicts the surrounding context.
type SpanEvent struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Kind     string `json:"kind,omitempty"`
	Detail   string `json:"detail,omitempty"`
	Open     bool   `json:"open,omitempty"`
	Interval bool   `json:"interval,omitempty"`
	Count    int    `json:"count,omitempty"`
}

// Lane returns where every timeline view draws the span: its lane (the
// Kind, else the Name) and whether it is an interval (marked Interval, or
// with extent) rather than an instant.
func (sp SpanEvent) Lane() (lane string, interval bool) {
	lane = sp.Kind
	if lane == "" {
		lane = sp.Name
	}
	return lane, sp.Interval || sp.End > sp.Start
}

// MetricDelta is one flight-recorded counter increment, observed between
// two sampler grid points.
type MetricDelta struct {
	At     int64   `json:"at_ns"`
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Delta  float64 `json:"delta"`
}

// HistoryEvent is one entry of the platform history: an escalation
// attempt, a degradation transition, a safe stop — the audit trail a
// bundle preserves even when the DLT ring has wrapped past it.
type HistoryEvent struct {
	At     int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// FlightConfig sizes the flight recorder's rings. Zero values select the
// defaults; negative values are treated as the default too (a ring of
// zero slots would silently record nothing).
type FlightConfig struct {
	// DLTCap bounds the DLT ring (default 2048 records).
	DLTCap int
	// DLTMin is the minimum level kept in the DLT ring (default
	// LevelInfo — debug chatter does not belong in a black box).
	DLTMin Level
	// SpanCap bounds the span ring (default 1024).
	SpanCap int
	// DeltaCap bounds the metric-delta ring (default 1024).
	DeltaCap int
	// HistoryCap bounds the history ring (default 256).
	HistoryCap int
}

// Default flight ring capacities.
const (
	DefaultFlightDLTCap     = 2048
	DefaultFlightSpanCap    = 1024
	DefaultFlightDeltaCap   = 1024
	DefaultFlightHistoryCap = 256
)

func (c FlightConfig) fill() FlightConfig {
	if c.DLTCap <= 0 {
		c.DLTCap = DefaultFlightDLTCap
	}
	if c.DLTMin == 0 {
		c.DLTMin = LevelInfo
	}
	if c.SpanCap <= 0 {
		c.SpanCap = DefaultFlightSpanCap
	}
	if c.DeltaCap <= 0 {
		c.DeltaCap = DefaultFlightDeltaCap
	}
	if c.HistoryCap <= 0 {
		c.HistoryCap = DefaultFlightHistoryCap
	}
	return c
}

// Flight is the flight recorder. DLT is a bounded ring-mode Log the
// platform emits into directly; spans, metric deltas and history feed
// through the push methods into rings guarded by one mutex. Safe for
// concurrent use. A nil *Flight is valid and records nothing, so an
// instrumented platform can run with the recorder disabled at zero cost.
//
//autovet:nilsafe
type Flight struct {
	// DLT is the bounded structured event log (NewBoundedLog).
	DLT *Log

	mu      sync.Mutex
	spans   *Ring[SpanEvent]
	deltas  *Ring[MetricDelta]
	history *Ring[HistoryEvent]
}

// FlightView is one consistent cut of the flight recorder: every ring's
// retained entries oldest-first, plus the all-time totals that tell how
// much history the caps discarded.
type FlightView struct {
	DLT        []LogRecord    `json:"dlt,omitempty"`
	DLTTotal   uint64         `json:"dlt_total"`
	Spans      []SpanEvent    `json:"spans,omitempty"`
	SpanTotal  uint64         `json:"span_total"`
	Deltas     []MetricDelta  `json:"deltas,omitempty"`
	DeltaTotal uint64         `json:"delta_total"`
	History    []HistoryEvent `json:"history,omitempty"`
}

// NewFlight returns a flight recorder sized by cfg (zero value: defaults).
func NewFlight(cfg FlightConfig) *Flight {
	cfg = cfg.fill()
	return &Flight{
		DLT:     NewBoundedLog(cfg.DLTMin, cfg.DLTCap),
		spans:   NewRing[SpanEvent](cfg.SpanCap),
		deltas:  NewRing[MetricDelta](cfg.DeltaCap),
		history: NewRing[HistoryEvent](cfg.HistoryCap),
	}
}

// Span records one span event. Safe on a nil receiver (discards).
func (f *Flight) Span(e SpanEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.spans.Push(e)
}

// instantLookback bounds the coalescing scan of Instant: a storm that
// interleaves a handful of sources (CAN messages losing arbitration in
// turn, say) still folds per source, while the scan stays O(1).
const instantLookback = 4

// Instant records an instantaneous span event (Start == End == at).
// Identical instants repeated in a burst coalesce into one counted
// event (see SpanEvent): scanning the newest instantLookback retained
// spans, the first identical one that is not Open absorbs the instant,
// its Count growing and its End stretching to the newest occurrence.
// Total counts the instant either way. Safe on a nil receiver
// (discards).
func (f *Flight) Instant(at int64, name, kind, detail string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 0; i < instantLookback; i++ {
		prev := f.spans.Newest(i)
		if prev == nil {
			break
		}
		if !prev.Open && prev.Name == name && prev.Kind == kind && prev.Detail == detail {
			if prev.Count == 0 {
				prev.Count = 1
			}
			prev.Count++
			prev.End = at
			f.spans.Absorbed()
			return
		}
	}
	f.spans.Push(SpanEvent{Name: name, Start: at, End: at, Kind: kind, Detail: detail})
}

// OnDelta records one counter increment; its signature matches
// SamplerOptions.OnDelta so a sampler feeds the delta ring directly.
// Safe on a nil receiver (discards).
func (f *Flight) OnDelta(at int64, name string, labels []Label, delta float64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deltas.Push(MetricDelta{At: at, Name: name, Labels: labels, Delta: delta})
}

// Note records one history event. Safe on a nil receiver (discards).
func (f *Flight) Note(at int64, kind, detail string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.history.Push(HistoryEvent{At: at, Kind: kind, Detail: detail})
}

// History returns the retained history events oldest-first. Nil on a nil
// receiver.
func (f *Flight) History() []HistoryEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.history.Snapshot()
}

// Snapshot cuts a point-in-time view of every ring. The span, delta and
// history rings are cut together under the recorder's mutex, the DLT
// under the Log's own; each ring is copied out oldest-first, so the
// recorder keeps running while the view is inspected or serialized.
// Safe on a nil receiver (empty view).
func (f *Flight) Snapshot() FlightView {
	if f == nil {
		return FlightView{}
	}
	dlt, dltTotal := f.DLT.Records(), f.DLT.Total()
	f.mu.Lock()
	defer f.mu.Unlock()
	return FlightView{
		DLT:        dlt,
		DLTTotal:   dltTotal,
		Spans:      f.spans.Snapshot(),
		SpanTotal:  f.spans.Total(),
		Deltas:     f.deltas.Snapshot(),
		DeltaTotal: f.deltas.Total(),
		History:    f.history.Snapshot(),
	}
}
