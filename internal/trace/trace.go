// Package trace records timed events emitted by the simulated platform and
// reduces them to the latency, jitter and deadline statistics the
// experiments report, and to one span timeline (Recorder.Spans) that the
// ASCII Gantt and the Chrome trace export (obs.ChromeEvents) both draw.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"autorte/internal/sim"
)

// Kind classifies a trace record.
type Kind uint8

// Record kinds, covering the task lifecycle, message transmission and
// fault handling.
const (
	Activate Kind = iota // job released / message queued
	Start                // first got the resource
	Preempt              // lost the resource before finishing
	Resume               // got the resource back
	Finish               // completed
	Abort                // killed (budget exhaustion, fault)
	Miss                 // deadline passed before Finish
	Drop                 // discarded before transmission/start
	Error                // fault detected / error reported
	Recover              // recovery action performed (restart, reset, degrade)
)

var kindNames = [...]string{"activate", "start", "preempt", "resume", "finish", "abort", "miss", "drop", "error", "recover"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindMask is a bit set of record kinds, for selective sinks.
type KindMask uint16

// MaskOf builds a mask containing the given kinds.
func MaskOf(kinds ...Kind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether k is in the mask.
func (m KindMask) Has(k Kind) bool { return m&(1<<k) != 0 }

// Record is one trace entry.
type Record struct {
	At     sim.Time
	Kind   Kind
	Source string // task, message or component name
	Job    int64  // per-source job/instance counter
	Info   string // optional detail (e.g. fault kind)
}

// Recorder accumulates records. The zero value is ready to use. A nil
// *Recorder is valid and discards everything, so substrates can trace
// unconditionally.
//
//autovet:nilsafe
type Recorder struct {
	Records []Record

	// Sink, when set, observes records as they are added — the feed of
	// the flight recorder's span ring. It runs on the kernel goroutine;
	// it must not call back into the recorder.
	Sink func(Record)

	// SinkKinds restricts Sink to the masked kinds (MaskOf). Zero means
	// every kind. The mask is checked before the indirect call, which is
	// what keeps a selective sink off the per-record hot path: Add runs
	// for every activation and completion the platform makes.
	SinkKinds KindMask

	// totals counts records by kind over all sources, and sources holds
	// one counter block per source, resolved on the source's first record,
	// so Count is O(1): supervision and health monitors poll counts every
	// window, which would otherwise rescan the whole trace each time. last
	// caches the block of the most recent source, since a job's records
	// come in runs. Maintained by Add; callers must not append to Records
	// directly.
	totals  kindCounts
	sources map[string]*sourceCounts
	last    *sourceCounts
}

// kindCounts is a dense per-kind counter. Kinds outside the named enum
// are counted too, in a map made on first use.
type kindCounts struct {
	named [numKinds]int
	other map[Kind]int
}

const numKinds = len(kindNames)

func (c *kindCounts) inc(k Kind) {
	if int(k) < numKinds {
		c.named[k]++
		return
	}
	if c.other == nil {
		c.other = map[Kind]int{}
	}
	c.other[k]++
}

func (c *kindCounts) get(k Kind) int {
	if int(k) < numKinds {
		return c.named[k]
	}
	return c.other[k]
}

// sourceCounts is one source's counter block.
type sourceCounts struct {
	source string
	kindCounts
}

// minRecords is the capacity of the first Records allocation.
const minRecords = 256

// Add appends a record. Safe on a nil receiver (no-op).
func (r *Recorder) Add(rec Record) {
	if r == nil {
		return
	}
	if n := len(r.Records); n == cap(r.Records) {
		// Grow by doubling: append's 1.25x growth for large slices
		// allocates about five times the final trace over a long run.
		grown := make([]Record, n, max(2*n, minRecords))
		copy(grown, r.Records)
		r.Records = grown
	}
	r.Records = append(r.Records, rec)
	r.totals.inc(rec.Kind)
	if rec.Source != "" {
		r.counter(rec.Source).inc(rec.Kind)
	}
	if r.Sink != nil && (r.SinkKinds == 0 || r.SinkKinds.Has(rec.Kind)) {
		r.Sink(rec)
	}
}

// counter returns the counter block of a source, making it on the
// source's first record.
func (r *Recorder) counter(source string) *sourceCounts {
	if c := r.last; c != nil && c.source == source {
		return c
	}
	c := r.sources[source]
	if c == nil {
		if r.sources == nil {
			r.sources = map[string]*sourceCounts{}
		}
		c = &sourceCounts{source: source}
		r.sources[source] = c
	}
	r.last = c
	return c
}

// Emit is shorthand for Add. Safe on a nil receiver (no-op).
func (r *Recorder) Emit(at sim.Time, kind Kind, source string, job int64, info string) {
	if r == nil {
		return
	}
	r.Add(Record{At: at, Kind: kind, Source: source, Job: job, Info: info})
}

// Reset discards all records, keeping capacity.
func (r *Recorder) Reset() {
	if r != nil {
		r.Records = r.Records[:0]
		r.totals = kindCounts{}
		r.sources, r.last = nil, nil
	}
}

// BySource returns the records of one source, in order.
func (r *Recorder) BySource(source string) []Record {
	if r == nil {
		return nil
	}
	var out []Record
	for _, rec := range r.Records {
		if rec.Source == source {
			out = append(out, rec)
		}
	}
	return out
}

// Count returns how many records of the given kind a source produced.
// An empty source matches all sources. O(1): counts are maintained
// incrementally by Add, so per-window supervision polls stay cheap no
// matter how long the trace grows.
func (r *Recorder) Count(kind Kind, source string) int {
	if r == nil {
		return 0
	}
	if source == "" {
		return r.totals.get(kind)
	}
	if c := r.sources[source]; c != nil {
		return c.get(kind)
	}
	return 0
}

// WriteCSV writes all records as CSV. Safe on a nil receiver (writes
// the header only).
func (r *Recorder) WriteCSV(w io.Writer) error {
	if r == nil {
		r = &Recorder{}
	}
	if _, err := io.WriteString(w, "time_ns,kind,source,job,info\n"); err != nil {
		return err
	}
	for _, rec := range r.Records {
		info := strings.ReplaceAll(rec.Info, ",", ";")
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%d,%s\n", int64(rec.At), rec.Kind, rec.Source, rec.Job, info); err != nil {
			return err
		}
	}
	return nil
}

// Latencies pairs Activate with the matching Finish per (source, job) and
// returns finish − activate for every completed job of the source, in job
// order. Jobs that never finished are skipped.
func (r *Recorder) Latencies(source string) []sim.Duration {
	if r == nil {
		return nil
	}
	act := map[int64]sim.Time{}
	var done []struct {
		job int64
		lat sim.Duration
	}
	for _, rec := range r.Records {
		if rec.Source != source {
			continue
		}
		switch rec.Kind {
		case Activate:
			act[rec.Job] = rec.At
		case Finish:
			if a, ok := act[rec.Job]; ok {
				done = append(done, struct {
					job int64
					lat sim.Duration
				}{rec.Job, rec.At - a})
				delete(act, rec.Job)
			}
		default:
			// Only the Activate->Finish pair defines latency; scheduling
			// detail in between does not move either endpoint.
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].job < done[j].job })
	out := make([]sim.Duration, len(done))
	for i, d := range done {
		out[i] = d.lat
	}
	return out
}
