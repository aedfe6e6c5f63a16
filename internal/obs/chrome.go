package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// TraceEvent is one entry of the Chrome trace-event format (the JSON
// array loaded by chrome://tracing and Perfetto). Timestamps and
// durations are microseconds; fractional values carry sub-µs precision.
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope: "t" thread
	Args  map[string]any `json:"args,omitempty"`
}

// ThreadName returns the metadata event that names a (pid, tid) lane in
// the trace viewer.
func ThreadName(pid, tid int64, name string) TraceEvent {
	return TraceEvent{
		Name: "thread_name", Phase: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name},
	}
}

// ProcessName returns the metadata event that names a pid.
func ProcessName(pid int64, name string) TraceEvent {
	return TraceEvent{
		Name: "process_name", Phase: "M", PID: pid,
		Args: map[string]any{"name": name},
	}
}

// ChromeEvents converts spans into Chrome trace events — the one
// converter every timeline (flight-recorder bundles, virtual-time
// execution traces, pipeline tracer spans) exports through. Each lane of
// SpanEvent.Lane is one viewer lane, numbered in first-appearance order
// and named by metadata events. An interval becomes a complete ("X")
// event; any other span is a thread-scoped instant ("i"), except an Open
// span without extent, which has nothing to draw yet and is left out.
// Detail and a coalesced burst's Count travel as args. Nanoseconds map to
// trace microseconds fractionally, so sub-µs spans survive.
func ChromeEvents(spans []SpanEvent) []TraceEvent {
	const pid = 1
	lanes := map[string]int64{}
	var order []string
	lane := func(key string) int64 {
		if id, ok := lanes[key]; ok {
			return id
		}
		id := int64(len(lanes) + 1)
		lanes[key] = id
		order = append(order, key)
		return id
	}
	var events []TraceEvent
	for _, sp := range spans {
		if sp.Open && sp.End <= sp.Start {
			continue // opened where observation stopped: nothing to draw yet
		}
		key, interval := sp.Lane()
		tid := lane(key)
		ev := TraceEvent{
			Name: sp.Name,
			Cat:  sp.Kind,
			TS:   float64(sp.Start) / 1e3,
			PID:  pid,
			TID:  tid,
		}
		if sp.Detail != "" {
			ev.Args = map[string]any{"detail": sp.Detail}
		}
		if sp.Count > 1 {
			if ev.Args == nil {
				ev.Args = map[string]any{}
			}
			ev.Args["count"] = sp.Count
		}
		if interval {
			ev.Phase = "X"
			ev.Dur = float64(sp.End-sp.Start) / 1e3
		} else {
			ev.Phase = "i"
			ev.Scope = "t"
		}
		events = append(events, ev)
	}
	meta := []TraceEvent{ProcessName(pid, "autorte")}
	for _, key := range order {
		meta = append(meta, ThreadName(pid, lanes[key], key))
	}
	return append(meta, events...)
}

// WriteChromeTrace writes events as a complete JSON object trace
// ({"traceEvents": [...]}, one event per line), the container format
// both chrome://tracing and Perfetto accept, and returns the first
// error: an event that does not encode or a failed write.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, ev := range events {
		buf, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
		bw.Write(buf)
	}
	bw.WriteString("\n]}\n")
	// A bufio.Writer keeps its first write error and returns it from
	// every later call, so Flush reports it.
	return bw.Flush()
}
