package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"autorte/internal/experiments"
	"autorte/internal/obs"
)

// writeSafeStopBundles runs the E11 permanent-fault scenario once and
// serializes the first severe-escalation bundle and the terminal
// safe-stop bundle for the CLI to chew on.
func writeSafeStopBundles(t *testing.T) (first, last string, bundles []*obs.Bundle) {
	t.Helper()
	dir := t.TempDir()
	last = filepath.Join(dir, "safestop.bundle")
	bundles, err := experiments.E11SafeStopBundle(experiments.DefaultE11(), last)
	if err != nil {
		t.Fatal(err)
	}
	first = filepath.Join(dir, "first.bundle")
	if err := bundles[0].WriteFile(first); err != nil {
		t.Fatal(err)
	}
	return first, last, bundles
}

// TestEndToEndSafeStopBundle is the acceptance path: a forced safe-stop
// in E11 produces a bundle whose escalation ladder, final degradation
// level and last DLT records are all visible through autodiag.
func TestEndToEndSafeStopBundle(t *testing.T) {
	first, last, bundles := writeSafeStopBundles(t)

	var out strings.Builder
	if err := run(&out, "summary", []string{last}); err != nil {
		t.Fatal(err)
	}
	sum := out.String()
	if !strings.Contains(sum, "safe-stop:Sensor") {
		t.Fatalf("summary misses the safe-stop reason:\n%s", sum)
	}
	if !strings.Contains(sum, bundles[len(bundles)-1].ConfigHash) {
		t.Fatalf("summary misses the config hash:\n%s", sum)
	}

	// The DLT tail records the ladder walk: filter the health context.
	out.Reset()
	if err := run(&out, "dlt", []string{"-app", "HLTH", last}); err != nil {
		t.Fatal(err)
	}
	dlt := out.String()
	for _, rung := range []string{"restart-runnable", "restart-partition", "ecu-reset"} {
		if !strings.Contains(dlt, "rung "+rung) {
			t.Fatalf("DLT misses escalation rung %s:\n%s", rung, dlt)
		}
	}
	if !strings.Contains(dlt, "safe-stopped") && !strings.Contains(dlt, "-> safe-stop") {
		t.Fatalf("DLT misses the terminal stop:\n%s", dlt)
	}
	// -grep narrows to the degradation transitions only.
	out.Reset()
	if err := run(&out, "dlt", []string{"-grep", "degradation .* ->", last}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-> safe-stop") {
		t.Fatalf("grep lost the final degradation:\n%s", out.String())
	}

	// The metric snapshot pins the final degradation level at 3.
	out.Reset()
	if err := run(&out, "metrics", []string{"-grep", "health_degradation_level", last}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "health_degradation_level 3") {
		t.Fatalf("final degradation level not 3:\n%s", out.String())
	}

	// The sampled series shows the walk 0 -> 3 over virtual time.
	out.Reset()
	if err := run(&out, "series", []string{"-grep", "health_degradation_level", last}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "health_degradation_level") {
		t.Fatalf("series output:\n%s", out.String())
	}

	// diff against the first severe bundle shows the ladder progressed.
	out.Reset()
	if err := run(&out, "diff", []string{first, last}); err != nil {
		t.Fatal(err)
	}
	diff := out.String()
	if !strings.Contains(diff, "health_escalations_total") {
		t.Fatalf("diff misses escalation progress:\n%s", diff)
	}

	// chrome export is valid trace JSON with events.
	out.Reset()
	if err := run(&out, "chrome", []string{last}); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out.String()), &trace); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" || len(trace.TraceEvents) == 0 {
		t.Fatalf("chrome export empty: %d events", len(trace.TraceEvents))
	}
	// -o writes the same document to a file, and a failed write is an
	// error, not a silent success.
	outPath := filepath.Join(t.TempDir(), "trace.json")
	if err := run(io.Discard, "chrome", []string{"-o", outPath, last}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(outPath); err != nil || string(got) != out.String() {
		t.Fatalf("chrome -o wrote %d bytes (err %v), stdout %d", len(got), err, out.Len())
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := run(io.Discard, "chrome", []string{"-o", "/dev/full", last}); err == nil {
			t.Fatal("chrome -o /dev/full reported success")
		}
	}

	// spans lists the flight recorder's lanes.
	out.Reset()
	if err := run(&out, "spans", []string{last}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "span events retained") {
		t.Fatalf("spans output:\n%s", out.String())
	}
}

// TestSpansAndChromeShareLanes: a span without a Kind lands in the lane
// of its Name, and a span with extent draws as an interval, in both the
// spans listing and the chrome export of one bundle.
func TestSpansAndChromeShareLanes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lanes.bundle")
	b := &obs.Bundle{Version: obs.BundleVersion, Reason: "lanes"}
	b.Flight.Spans = []obs.SpanEvent{
		{Name: "probe", Start: 1000, End: 1000},
		{Name: "window", Start: 2000, End: 5000},
		{Name: "slice", Kind: "Ctrl", Start: 3000, End: 4000, Interval: true},
	}
	b.Flight.SpanTotal = 3
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run(&out, "spans", []string{path}); err != nil {
		t.Fatal(err)
	}
	spans := out.String()
	for _, want := range []string{"probe (1 events)\n", "window (1 events)\n", "Ctrl (1 events)\n", "+   0.003ms window"} {
		if !strings.Contains(spans, want) {
			t.Errorf("spans output misses %q:\n%s", want, spans)
		}
	}
	if strings.Contains(spans, "+   0.000ms probe") {
		t.Errorf("instant listed as an interval:\n%s", spans)
	}

	out.Reset()
	if err := run(&out, "chrome", []string{path}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatal(err)
	}
	laneName := map[int64]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "thread_name" {
			laneName[ev.TID], _ = ev.Args["name"].(string)
		}
	}
	want := map[string][2]string{ // span name -> lane, phase
		"probe":  {"probe", "i"},
		"window": {"window", "X"},
		"slice":  {"Ctrl", "X"},
	}
	seen := 0
	for _, ev := range doc.TraceEvents {
		w, ok := want[ev.Name]
		if !ok {
			continue
		}
		seen++
		if got := laneName[ev.TID]; got != w[0] || ev.Phase != w[1] {
			t.Errorf("chrome %s: lane %q phase %q, want lane %q phase %q", ev.Name, got, ev.Phase, w[0], w[1])
		}
	}
	if seen != len(want) {
		t.Errorf("chrome export holds %d of %d spans:\n%s", seen, len(want), out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "summary", []string{}); err == nil {
		t.Fatal("summary without a bundle path did not fail")
	}
	if err := run(&out, "nope", nil); err == nil {
		t.Fatal("unknown command did not fail")
	}
	if err := run(&out, "diff", []string{"only-one"}); err == nil {
		t.Fatal("diff with one path did not fail")
	}
	if err := run(&out, "dlt", []string{"-min", "bogus", "/dev/null"}); err == nil {
		t.Fatal("bogus level did not fail")
	}
}

// promLine matches one Prometheus exposition line: comment or sample.
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+)$`)

// TestServeScrapeAndLiveTail: the serve handler's /metrics parses as
// Prometheus text and a follower on /dlt?follow=1 receives records
// emitted (replayed) after it connected.
func TestServeScrapeAndLiveTail(t *testing.T) {
	_, last, _ := writeSafeStopBundles(t)
	b, err := obs.ReadBundleFile(last)
	if err != nil {
		t.Fatal(err)
	}
	h, replay := newServeHandler(b)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Scrape: every line must be spec-shaped, and the snapshot's final
	// degradation level must be present.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("scrape content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	lines, sawDeg := 0, false
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		lines++
		if !promLine.MatchString(line) {
			t.Fatalf("invalid Prometheus line: %q", line)
		}
		if line == "health_degradation_level 3" {
			sawDeg = true
		}
	}
	resp.Body.Close()
	if lines < 10 || !sawDeg {
		t.Fatalf("scrape has %d lines, degradation present = %v", lines, sawDeg)
	}

	// Live tail: connect FIRST, then start the replay pump; every record
	// the follower sees was emitted after it connected.
	follow, err := srv.Client().Get(srv.URL + "/dlt?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer follow.Body.Close()
	go replay(time.Millisecond, false)
	fsc := bufio.NewScanner(follow.Body)
	deadline := time.After(10 * time.Second)
	got := make(chan string, 1)
	go func() {
		if fsc.Scan() {
			got <- fsc.Text()
		}
	}()
	select {
	case line := <-got:
		var rec struct {
			Level string `json:"level"`
			Msg   string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("tail line not JSON: %q (%v)", line, err)
		}
		if rec.Msg == "" || rec.Level == "" {
			t.Fatalf("tail record incomplete: %q", line)
		}
	case <-deadline:
		t.Fatal("no tailed record within 10s of starting the replay")
	}

	// Bundle download round-trips.
	bd, err := srv.Client().Get(srv.URL + "/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer bd.Body.Close()
	back, err := obs.ReadBundle(bd.Body)
	if err != nil {
		t.Fatal(err)
	}
	if back.Reason != b.Reason || back.ConfigHash != b.ConfigHash {
		t.Fatal("served bundle does not match the loaded one")
	}

	// Summary endpoint renders.
	sm, err := srv.Client().Get(srv.URL + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Body.Close()
	body, err := io.ReadAll(sm.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "safe-stop:Sensor") {
		t.Fatalf("summary endpoint output:\n%s", body)
	}
}
