package trace

import (
	"io"
	"sort"
	"strconv"

	"autorte/internal/obs"
)

// Spans reduces the records to the one timeline every view renders
// (Gantt here, Chrome trace-event JSON through obs.ChromeEvents). Each
// span's Kind is its source, so a source is one lane. An execution
// slice, from Start/Resume to the next Preempt/Finish/Abort of its
// source, is one "run" interval; a slice still running at the last
// record is Open and ends at that record's time. Every
// Abort/Miss/Drop/Error/Recover is one instant ("abort", "deadline
// miss", "drop", "error", "recover") whose Detail names the job and the
// record's info. Activation is queueing, not execution, and draws
// nothing. Spans come in record order, a slice at its close; the open
// slices follow by source name. Nil on a nil or empty recorder.
func (r *Recorder) Spans() []obs.SpanEvent {
	if r == nil || len(r.Records) == 0 {
		return nil
	}
	var out []obs.SpanEvent
	running := map[string]int64{} // source -> slice start, virtual ns
	closeSlice := func(src string, at int64) {
		if from, ok := running[src]; ok {
			out = append(out, obs.SpanEvent{Name: "run", Kind: src, Start: from, End: at, Interval: true})
			delete(running, src)
		}
	}
	instant := func(name string, rec Record) {
		detail := "job " + strconv.FormatInt(rec.Job, 10)
		if rec.Info != "" {
			detail += ": " + rec.Info
		}
		out = append(out, obs.SpanEvent{Name: name, Kind: rec.Source, Start: int64(rec.At), End: int64(rec.At), Detail: detail})
	}
	var last int64
	for _, rec := range r.Records {
		src, at := rec.Source, int64(rec.At)
		last = max(last, at)
		switch rec.Kind {
		case Start, Resume:
			running[src] = at
		case Preempt, Finish:
			closeSlice(src, at)
		case Abort:
			closeSlice(src, at)
			instant("abort", rec)
		case Miss:
			instant("deadline miss", rec)
		case Drop:
			instant("drop", rec)
		case Error:
			instant("error", rec)
		case Recover:
			instant("recover", rec)
		case Activate:
			// Activation is queueing, not execution: slices open at Start.
		}
	}
	open := make([]string, 0, len(running))
	for src := range running {
		open = append(open, src)
	}
	sort.Strings(open)
	for _, src := range open {
		out = append(out, obs.SpanEvent{Name: "run", Kind: src, Start: running[src], End: last, Interval: true, Open: true})
	}
	return out
}

// WriteChrome writes the recorder's spans as a Chrome trace-event JSON
// document loadable in chrome://tracing and Perfetto, one lane per
// source. Safe on a nil recorder (writes a trace with no spans).
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r == nil {
		r = &Recorder{}
	}
	return obs.WriteChromeTrace(w, obs.ChromeEvents(r.Spans()))
}
