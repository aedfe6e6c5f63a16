package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer records wall-clock spans — named, optionally nested intervals —
// for pipeline-style work. A nil *Tracer is valid and records nothing,
// so instrumented code traces unconditionally. Safe for concurrent use:
// parallel jobs start sibling spans under a shared parent.
//
//autovet:nilsafe
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	//autovet:bounded host-side dev tracing, one bounded export run per tracer
	spans []spanData
}

// spanData is one recorded span. start/end are offsets from the tracer
// epoch; end < 0 means still open.
type spanData struct {
	name   string
	parent int // index into spans; -1 for roots
	start  time.Duration
	end    time.Duration
}

// Span is a handle to an open span. A nil *Span is valid: End is a no-op
// and children of a nil span become roots.
type Span struct {
	t   *Tracer
	idx int
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Start opens a root span. Nil-safe: returns nil on a nil tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.StartChild(nil, name)
}

// StartChild opens a span under parent (nil parent makes a root). The
// returned handle's End closes it; spans left open are closed at export
// time.
func (t *Tracer) StartChild(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.epoch.IsZero() {
		t.epoch = time.Now() //autovet:allow walltime spans measure host execution, not sim time
	}
	p := -1
	if parent != nil && parent.t == t {
		p = parent.idx
	}
	t.spans = append(t.spans, spanData{name: name, parent: p, start: time.Since(t.epoch), end: -1}) //autovet:allow walltime host-side span clock
	return &Span{t: t, idx: len(t.spans) - 1}
}

// End closes the span. Safe on a nil receiver; double End keeps the
// first close.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.t.spans[s.idx].end < 0 {
		s.t.spans[s.idx].end = time.Since(s.t.epoch) //autovet:allow walltime host-side span clock
	}
}

// Len returns the number of recorded spans. Zero on a nil receiver.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the spans, closing any still-open span at the current
// time so exports always see finite intervals.
func (t *Tracer) snapshot() []spanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]spanData(nil), t.spans...)
	now := time.Since(t.epoch) //autovet:allow walltime host-side span clock
	for i := range out {
		if out[i].end < 0 {
			out[i].end = now
		}
	}
	return out
}

// SpanEvents converts the recorded spans to flight-recorder span
// events — host-time nanosecond offsets from the tracer epoch — ready
// to embed in a diagnostic bundle. Open spans are closed at the
// snapshot instant. Safe on a nil receiver (returns nil).
func (t *Tracer) SpanEvents() []SpanEvent {
	if t == nil {
		return nil
	}
	data := t.snapshot()
	if len(data) == 0 {
		return nil
	}
	out := make([]SpanEvent, len(data))
	for i, s := range data {
		detail := ""
		if s.parent >= 0 {
			detail = "parent: " + data[s.parent].name
		}
		out[i] = SpanEvent{
			Name: s.name, Start: int64(s.start), End: int64(s.end),
			Kind: "pipeline", Detail: detail, Interval: true,
		}
	}
	return out
}

// WriteTree renders the spans as an indented text tree in start order:
//
//	verify                         12.4ms
//	  verify/ecu                    1.2ms
//
// Safe on a nil receiver (writes nothing).
func (t *Tracer) WriteTree(w io.Writer) error {
	if t == nil {
		return nil
	}
	spans := t.snapshot()
	children := make(map[int][]int, len(spans))
	var roots []int
	for i := range spans {
		if spans[i].parent < 0 {
			roots = append(roots, i)
		} else {
			children[spans[i].parent] = append(children[spans[i].parent], i)
		}
	}
	byStart := func(idx []int) {
		sort.SliceStable(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	byStart(roots)
	var render func(idx []int, depth int) error
	render = func(idx []int, depth int) error {
		for _, i := range idx {
			s := &spans[i]
			_, err := fmt.Fprintf(w, "%*s%-*s %12v\n", 2*depth, "", 48-2*depth, s.name, s.end-s.start)
			if err != nil {
				return err
			}
			kids := children[i]
			byStart(kids)
			if err := render(kids, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return render(roots, 0)
}

// WriteChrome writes the spans as a Chrome trace-event JSON document
// loadable in chrome://tracing and Perfetto, through SpanEvents and
// ChromeEvents. Every span shares the one "pipeline" lane, which renders
// right while spans nest — as a verification pass's do, since it runs on
// its caller. Safe on a nil receiver (writes a trace with no spans).
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		t = &Tracer{}
	}
	return WriteChromeTrace(w, ChromeEvents(t.SpanEvents()))
}
