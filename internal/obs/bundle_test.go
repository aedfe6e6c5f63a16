package obs

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func testBundle() *Bundle {
	f := NewFlight(FlightConfig{DLTCap: 8, DLTMin: LevelVerbose})
	f.DLT.Emit(100, LevelError, "HLTH", "ESC", "rung 2: restart partition")
	f.DLT.Emit(200, LevelFatal, "HLTH", "ESC", "safe stop")
	f.Span(SpanEvent{Name: "recover", Start: 100, End: 180, Kind: "recovery"})
	f.Instant(200, "safe-stop", "escalation", "final")
	f.Note(100, "escalation", "rung=restart-partition")
	f.Note(200, "escalation", "rung=safe-stop")
	reg := NewRegistry()
	reg.Counter("errors_total", "errors").Add(3)
	reg.Gauge("health_degradation_level", "level").Set(3)
	return &Bundle{
		Version:    BundleVersion,
		Reason:     "safe-stop",
		At:         200,
		ConfigHash: "sha256:abc",
		Meta:       map[string]string{"platform": "e11"},
		Flight:     f.Snapshot(),
		Metrics:    reg.Snapshot(),
	}
}

func TestBundleRoundTrip(t *testing.T) {
	b := testBundle()
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "safe-stop" || got.At != 200 || got.ConfigHash != "sha256:abc" {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Flight.DLT) != 2 || got.Flight.DLT[1].Level != LevelFatal {
		t.Fatalf("DLT did not round-trip levels: %+v", got.Flight.DLT)
	}
	if len(got.Flight.History) != 2 || got.Flight.History[1].Detail != "rung=safe-stop" {
		t.Fatalf("history mismatch: %+v", got.Flight.History)
	}
	if len(got.Metrics) != 2 {
		t.Fatalf("metrics = %d series, want 2", len(got.Metrics))
	}
}

func TestBundleFileRoundTripAndPlainJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.bundle")
	b := testBundle()
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["platform"] != "e11" {
		t.Fatalf("meta lost: %+v", got.Meta)
	}

	// Plain JSON (no gzip) loads too.
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ReadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("plain JSON bundle rejected: %v", err)
	}
	if got2.Reason != b.Reason {
		t.Fatal("plain JSON round-trip mismatch")
	}

	// Unknown version rejected.
	bad, _ := json.Marshal(map[string]any{"version": BundleVersion + 1})
	if _, err := ReadBundle(bytes.NewReader(bad)); err == nil {
		t.Fatal("future bundle version accepted")
	}
}

// TestReadBundleRejectsTrailingData: after the bundle's JSON only
// whitespace may follow, gzipped or plain. A decoder's More alone would
// let a stray '}' or ']' through.
func TestReadBundleRejectsTrailingData(t *testing.T) {
	plain, err := json.Marshal(testBundle())
	if err != nil {
		t.Fatal(err)
	}
	gzipped := func(parts ...[]byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		for _, p := range parts {
			zw.Write(p)
		}
		zw.Close()
		return buf.Bytes()
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"plain", plain, true},
		{"plain + whitespace", cat(plain, []byte("\n \t\n")), true},
		{"plain + {", cat(plain, []byte("{")), false},
		{"plain + }", cat(plain, []byte("}")), false},
		{"plain + ]", cat(plain, []byte("]")), false},
		{"plain twice", cat(plain, plain), false},
		{"gzip", gzipped(plain), true},
		{"gzip of whitespace-padded", gzipped(plain, []byte("\n\n")), true},
		{"gzip of trailing }", gzipped(plain, []byte("}")), false},
		{"gzip + {", cat(gzipped(plain), []byte("{")), false},
		{"gzip twice", cat(gzipped(plain), gzipped(plain)), false},
	} {
		_, err := ReadBundle(bytes.NewReader(tc.data))
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted %v", tc.name, err, tc.ok)
		}
	}
}

func TestNilBundleSafe(t *testing.T) {
	var b *Bundle
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil bundle wrote data")
	}
	if err := b.WriteFile(filepath.Join(t.TempDir(), "n")); err != nil {
		t.Fatal(err)
	}
	if b.ChromeEvents() != nil {
		t.Fatal("nil bundle produced events")
	}
	if err := b.WriteSummary(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil bundle wrote a summary")
	}
}

func TestBundleChromeEvents(t *testing.T) {
	b := testBundle()
	events := b.ChromeEvents()
	var complete, instant, meta int
	for _, ev := range events {
		switch ev.Phase {
		case "X":
			complete++
		case "i":
			instant++
		case "M":
			meta++
		}
	}
	if complete != 1 || instant != 1 || meta < 2 {
		t.Fatalf("phases X=%d i=%d M=%d", complete, instant, meta)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(events) {
		t.Fatalf("trace has %d events, want %d", len(doc.TraceEvents), len(events))
	}
}

func TestDiffSamples(t *testing.T) {
	regA := NewRegistry()
	regA.Counter("errs_total", "").Add(1)
	regA.Gauge("steady", "").Set(5)
	regA.Histogram("lat", "").Observe(10)
	before := regA.Snapshot()

	regB := NewRegistry()
	regB.Counter("errs_total", "").Add(4)
	regB.Gauge("steady", "").Set(5)
	h := regB.Histogram("lat", "")
	h.Observe(10)
	h.Observe(20)
	regB.Counter("new_total", "").Add(7)
	after := regB.Snapshot()

	diffs := DiffSamples(before, after)
	byName := map[string]SampleDiff{}
	for _, d := range diffs {
		byName[d.Name] = d
	}
	if len(diffs) != 3 {
		t.Fatalf("diffs = %+v, want 3 (steady unchanged)", diffs)
	}
	if d := byName["errs_total"]; d.Delta != 3 {
		t.Fatalf("errs delta = %v, want 3", d.Delta)
	}
	if d := byName["new_total"]; d.Before != 0 || d.After != 7 {
		t.Fatalf("new-series diff = %+v", d)
	}
	if d := byName["lat"]; d.Delta != 1 {
		t.Fatalf("histogram diff on count = %+v, want +1", d)
	}
	if _, ok := byName["steady"]; ok {
		t.Fatal("unchanged series reported")
	}
}

func TestBundleSummary(t *testing.T) {
	var sb strings.Builder
	if err := testBundle().WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"reason=safe-stop", "sha256:abc", "platform: e11", "fatal=1", "rung=safe-stop"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
