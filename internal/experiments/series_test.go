package experiments

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"autorte/internal/obs"
	"autorte/internal/sim"
)

func TestE11RecoverySeriesShape(t *testing.T) {
	cfg := DefaultE11()
	tab, err := E11RecoverySeries(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 50ms grid over a 600ms horizon: samples at 0..600ms inclusive.
	if len(tab.Rows) != 13 {
		t.Fatalf("got %d grid rows, want 13", len(tab.Rows))
	}
	// Every scenario contributes at every grid point.
	for _, row := range tab.Rows {
		if row[len(row)-1] != "11" {
			t.Fatalf("coverage %s runs at %s, want 11", row[len(row)-1], row[0])
		}
	}
	// Before injection (first two rows, t < 100ms) the fleet is Normal.
	for _, row := range tab.Rows[:2] {
		if row[1] != "0" || row[3] != "0" {
			t.Fatalf("fleet degraded before injection: %v", row)
		}
	}
	// The permanent fault drags the max to safe-stop (3) by the end.
	last := tab.Rows[len(tab.Rows)-1]
	if last[3] != "3" {
		t.Fatalf("final deg max %s, want 3 (safe-stop): %v", last[3], last)
	}
	// Mean degradation must move off zero after injection.
	moved := false
	for _, row := range tab.Rows[2:] {
		if row[2] != "0.00" {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("mean degradation level never left zero after injection")
	}
	// Service delivery: cumulative finishes mean is non-decreasing.
	prev := -1.0
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil || v < prev {
			t.Fatalf("finishes mean not monotone at %s: %v", row[0], row)
		}
		prev = v
	}
}

func TestE11RecoverySeriesDeterministic(t *testing.T) {
	sameAcrossWorkers(t, func(workers int) (*Table, error) {
		cfg := DefaultE11()
		cfg.Workers = workers
		return E11RecoverySeries(cfg)
	})
}

func TestE11SafeStopBundleEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "safestop.bundle")
	bundles, err := E11SafeStopBundle(DefaultE11(), path)
	if err != nil {
		t.Fatal(err)
	}
	last := bundles[len(bundles)-1]
	if !strings.HasPrefix(last.Reason, "safe-stop:") {
		t.Fatalf("terminal bundle reason %q", last.Reason)
	}
	// The serialized file round-trips to the same bundle.
	got, err := obs.ReadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != last.Reason || got.At != last.At || got.ConfigHash != last.ConfigHash {
		t.Fatalf("file round-trip mismatch: %+v vs %+v", got, last)
	}
	// The black box proves the ladder walked: escalation notes, the
	// degradation walk into safe-stop and the final level in the metrics.
	kinds := map[string]int{}
	sawSafeStopDeg := false
	for _, ev := range got.Flight.History {
		kinds[ev.Kind]++
		if ev.Kind == "degradation" && strings.HasSuffix(ev.Detail, "-> safe-stop") {
			sawSafeStopDeg = true
		}
	}
	if kinds["escalation"] < 5 || kinds["degradation"] < 2 || kinds["safe-stop"] != 1 {
		t.Fatalf("history incomplete: %v (%+v)", kinds, got.Flight.History)
	}
	if !sawSafeStopDeg {
		t.Fatalf("no degradation transition into safe-stop: %+v", got.Flight.History)
	}
	degFinal := -1.0
	for _, s := range got.Metrics {
		if s.Name == "health_degradation_level" {
			degFinal = s.Value
		}
	}
	if degFinal != 3 {
		t.Fatalf("bundle metric snapshot degradation level = %v, want 3", degFinal)
	}
	// Sampled series rode along for post-mortem curves.
	if len(got.Series) == 0 {
		t.Fatal("terminal bundle carries no sampled series")
	}
	// And the last DLT records cover the stop itself.
	if len(got.Flight.DLT) == 0 {
		t.Fatal("terminal bundle carries no DLT records")
	}
	tail := got.Flight.DLT[len(got.Flight.DLT)-1]
	if int64(last.At)-tail.At > int64(sim.MS(50)) {
		t.Fatalf("last DLT record is stale: bundle at %d, record at %d", last.At, tail.At)
	}
}

func TestE11EscalationTimelineShape(t *testing.T) {
	tab, err := E11EscalationTimeline(DefaultE11())
	if err != nil {
		t.Fatal(err)
	}
	var events, bundleRows []string
	for _, row := range tab.Rows {
		if row[1] == "bundle" {
			bundleRows = append(bundleRows, row[2])
		} else {
			events = append(events, row[1]+" "+row[2])
		}
	}
	if len(events) < 8 {
		t.Fatalf("timeline too short: %v", events)
	}
	if len(bundleRows) < 3 || !strings.HasPrefix(bundleRows[len(bundleRows)-1], "safe-stop:") {
		t.Fatalf("bundle rows = %v", bundleRows)
	}
}

func TestE12RecoverySeriesShape(t *testing.T) {
	tab, err := E12RecoverySeries(DefaultE12())
	if err != nil {
		t.Fatal(err)
	}
	// 50ms grid over 500ms: samples at 0..500ms inclusive.
	byScenario := map[string][][]string{}
	for _, row := range tab.Rows {
		byScenario[row[0]] = append(byScenario[row[0]], row)
	}
	for name, rows := range byScenario {
		if len(rows) != 11 {
			t.Fatalf("%s has %d rows, want 11", name, len(rows))
		}
	}
	can, fr := byScenario["can corrupt"], byScenario["flexray loss"]
	if can == nil || fr == nil {
		t.Fatalf("scenarios = %v", byScenario)
	}
	// CAN corruption: degradation leaves normal; delivery collapses and
	// stays collapsed (fail-silent).
	if can[len(can)-1][2] == "0" {
		t.Fatalf("can chain never degraded: %v", can[len(can)-1])
	}
	lastCan, err := strconv.Atoi(can[len(can)-1][5])
	if err != nil || lastCan != 0 {
		t.Fatalf("can delivery in last window = %v, want 0 (fail-silent)", can[len(can)-1])
	}
	// FlexRay failover: at least one failover counted; the final window
	// delivers (nearly) full service again — 5 completions per 50ms at a
	// 10ms period, minus at most one in flight across the horizon edge.
	sawFailover := false
	for _, row := range fr {
		if row[3] != "-" && row[3] != "0" {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Fatalf("no failover sampled: %v", fr)
	}
	got, err := strconv.Atoi(fr[len(fr)-1][5])
	if err != nil || got < 4 {
		t.Fatalf("flexray final-window delivery = %s, want >= 4: %v", fr[len(fr)-1][5], fr[len(fr)-1])
	}
}

func TestSeriesTablesRender(t *testing.T) {
	for _, run := range []func() (*Table, error){
		func() (*Table, error) { return E11RecoverySeries(DefaultE11()) },
		func() (*Table, error) { return E12RecoverySeries(DefaultE12()) },
	} {
		tab, err := run()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		tab.Render(&b)
		if !strings.Contains(b.String(), "==") {
			t.Fatal("render produced nothing")
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Fatal(fmt.Errorf("ragged row %v", row))
			}
		}
	}
}
