package core

import (
	"strings"
	"testing"

	"autorte/internal/obs"
	"autorte/internal/rte"
)

// TestVerifyPopulatesMetrics runs an instrumented pipeline and checks
// that the registry surfaces real work: per-stage duration histograms,
// exported in the Prometheus text format.
func TestVerifyPopulatesMetrics(t *testing.T) {
	sys := vehicle(t, 1)
	p := NewPipeline(2)
	reg := obs.NewRegistry()
	p.Observe(reg)
	if _, err := p.Verify(sys, nil, rte.Options{}); err != nil {
		t.Fatal(err)
	}
	hist := map[string]uint64{}
	for _, s := range reg.Snapshot() {
		if s.Kind == obs.KindHistogram.String() {
			hist[seriesKey(s)] = s.Count
		}
	}
	for _, stage := range []string{"verify/setup", "verify/ecu", "verify/bus"} {
		if hist["pipeline_stage_duration_ns{stage="+stage+"}"] == 0 {
			t.Fatalf("stage %q has no duration observations", stage)
		}
	}
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pipeline_stage_duration_ns_bucket") {
		t.Fatal("Prometheus export misses the stage histogram")
	}
}

// TestVerifyRecordsSpans checks the tracer captures the stage tree:
// a verify root with per-ECU children, exportable as both a text tree
// and a Chrome trace document.
func TestVerifyRecordsSpans(t *testing.T) {
	sys := vehicle(t, 1)
	p := NewPipeline(2)
	p.Tracer = obs.NewTracer()
	if _, err := p.Verify(sys, nil, rte.Options{}); err != nil {
		t.Fatal(err)
	}
	if p.Tracer.Len() < 1+len(sys.ECUs) {
		t.Fatalf("recorded %d spans, want at least root + %d ECU stages",
			p.Tracer.Len(), len(sys.ECUs))
	}
	var tree strings.Builder
	if err := p.Tracer.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"verify ", "verify/setup", "verify/ecu "} {
		if !strings.Contains(tree.String(), want) {
			t.Fatalf("span tree missing %q:\n%s", want, tree.String())
		}
	}
	var chrome strings.Builder
	if err := p.Tracer.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"ph":"X"`) {
		t.Fatal("Chrome export has no complete events")
	}
}

// TestUninstrumentedPipelineUnaffected pins the zero-cost default: a
// pipeline without Observe/Tracer verifies identically (nil spans and
// nil registry are no-ops on the hot path).
func TestUninstrumentedPipelineUnaffected(t *testing.T) {
	sys := vehicle(t, 1)
	plain := NewPipeline(2)
	rep, err := plain.Verify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatal("uninstrumented verify should pass like the instrumented one")
	}
}

// seriesKey names a registry series by its name and labels, as
// name{key=value}...
func seriesKey(s obs.Sample) string {
	key := s.Name
	for _, l := range s.Labels {
		key += "{" + l.Key + "=" + l.Value + "}"
	}
	return key
}
