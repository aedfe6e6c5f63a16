package core

import (
	"bytes"
	"encoding/json"
	"maps"
	"testing"

	"autorte/internal/deploy"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

func demoVehicle(t *testing.T, seed uint64) *model.System {
	t.Helper()
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The zero Pipeline and NewPipeline's produce byte-identical reports,
// on a fresh pipeline and on a reused one — on both the federated demo
// vehicle and a consolidated mapping (dense task sets) — and they must be
// the reference derivation's report.
func TestVerifyParallelMatchesSequential(t *testing.T) {
	federated := demoVehicle(t, 1)
	consolidated, err := deploy.Greedy(federated, deploy.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	for name, sys := range map[string]*model.System{
		"federated":    federated,
		"consolidated": consolidated,
	} {
		want, err := (&Pipeline{}).Verify(sys, nil, rte.Options{})
		if err != nil {
			t.Fatalf("%s: verify: %v", name, err)
		}
		wantB := reportBytes(t, want)
		ref, err := refVerify(sys, nil, rte.Options{})
		if err != nil {
			t.Fatalf("%s: reference verify: %v", name, err)
		}
		if !bytes.Equal(reportBytes(t, ref), wantB) {
			t.Fatalf("%s: report diverges from the reference", name)
		}
		p := NewPipeline(0)
		for pass := 0; pass < 2; pass++ {
			got, err := p.Verify(sys, nil, rte.Options{})
			if err != nil {
				t.Fatalf("%s pass=%d: %v", name, pass, err)
			}
			if !bytes.Equal(reportBytes(t, got), wantB) {
				t.Fatalf("%s pass=%d: reused pipeline's report diverges", name, pass)
			}
		}
	}
}

// The demo vehicle on a FlexRay backbone exercises the FlexRay bus path.
func TestVerifyParallelFlexRayBackbone(t *testing.T) {
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{BusKind: model.BusFlexRay}, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Pipeline{}).Verify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(0)
	got, err := p.Verify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, want), reportBytes(t, got)) {
		t.Fatal("FlexRay report diverges between the zero and NewPipeline's pipeline")
	}
	ref, err := refVerify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, ref), reportBytes(t, got)) {
		t.Fatal("FlexRay report diverges from the reference")
	}
}

// Repeated re-verification through one pipeline — the DSE access pattern,
// a move tried and taken back — must be served mostly from the CAN
// analysis memo.
func TestPipelineCachesAreExercised(t *testing.T) {
	sys := demoVehicle(t, 1)
	inc, err := NewIncremental(NewPipeline(0), sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	inc.Observe(reg)
	// Co-locating a connector's consumer with its producer takes the
	// signal off the backbone, so the bus frame set changes both ways.
	home := maps.Clone(sys.Mapping)
	var moved map[string]string
	for _, c := range sys.Connectors {
		if home[c.ToSWC] != home[c.FromSWC] {
			moved = maps.Clone(home)
			moved[c.ToSWC] = home[c.FromSWC]
			break
		}
	}
	if moved == nil {
		t.Fatal("no cross-ECU connector to co-locate")
	}
	for i := 0; i < 4; i++ {
		for _, m := range []map[string]string{moved, home} {
			if _, err := inc.Reverify(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, misses, _ := canMemoSeries(reg)
	if misses == 0 {
		t.Fatal("CAN memo never missed — nothing was analyzed?")
	}
	if hits < 2*misses {
		t.Fatalf("CAN memo hits = %v, misses = %v; repeated re-verification should be memo-dominated", hits, misses)
	}
}
