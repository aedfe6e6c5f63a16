package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("root")
	if sp != nil {
		t.Fatal("nil tracer must return a nil span")
	}
	sp.End() // must not panic
	child := tr.StartChild(sp, "child")
	child.End()
	if tr.Len() != 0 {
		t.Fatal("nil tracer recorded spans")
	}
	var sb strings.Builder
	if err := tr.WriteTree(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil WriteTree wrote %q, err %v", sb.String(), err)
	}
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Fatal("nil WriteChrome must still emit a valid empty trace")
	}
}

func TestTracerTreeAndChrome(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("verify")
	a := tr.StartChild(root, "verify/ecu")
	a.End()
	b := tr.StartChild(root, "verify/bus")
	b.End()
	root.End()
	if tr.Len() != 3 {
		t.Fatalf("recorded %d spans, want 3", tr.Len())
	}
	var tree strings.Builder
	if err := tr.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tree.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("tree has %d lines:\n%s", len(lines), tree.String())
	}
	if !strings.HasPrefix(lines[0], "verify") || !strings.HasPrefix(lines[1], "  verify/ecu") {
		t.Fatalf("tree nesting wrong:\n%s", tree.String())
	}

	var js strings.Builder
	if err := tr.WriteChrome(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(js.String()), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	// One process, one "pipeline" lane, then the three spans in start
	// order on that lane.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("chrome trace has %d events, want 5", len(doc.TraceEvents))
	}
	for i, ev := range doc.TraceEvents[2:] {
		if ev.Phase != "X" || ev.TID != 1 || ev.Name != []string{"verify", "verify/ecu", "verify/bus"}[i] {
			t.Fatalf("bad event %+v", ev)
		}
		if ev.Dur < 0 || ev.TS < 0 {
			t.Fatalf("negative timing in %+v", ev)
		}
	}
}

func TestOpenSpanClosedAtExport(t *testing.T) {
	tr := NewTracer()
	tr.Start("open") // never ended
	events := ChromeEvents(tr.SpanEvents())
	if len(events) != 3 || events[2].Phase != "X" || events[2].Dur < 0 {
		t.Fatalf("open span exported badly: %+v", events)
	}
}
