package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"autorte/internal/deploy"
	"autorte/internal/model"
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

// The pipeline must produce byte-identical reports with or without the
// CAN analysis cache, cold or warm — on both the federated demo vehicle and
// a consolidated mapping (dense task sets) — and they must be the
// reference derivation's report.
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
		want, err := (&Pipeline{}).Verify(sys, nil, rte.Options{}) // no caches
		if err != nil {
			t.Fatalf("%s: uncached verify: %v", name, err)
		}
		wantB := reportBytes(t, want)
		ref, err := refVerify(sys, nil, rte.Options{})
		if err != nil {
			t.Fatalf("%s: reference verify: %v", name, err)
		}
		if !bytes.Equal(reportBytes(t, ref), wantB) {
			t.Fatalf("%s: uncached report diverges from the reference", name)
		}
		p := NewPipeline(0)               // cache on
		for pass := 0; pass < 2; pass++ { // second pass hits the cache
			got, err := p.Verify(sys, nil, rte.Options{})
			if err != nil {
				t.Fatalf("%s pass=%d: %v", name, pass, err)
			}
			if !bytes.Equal(reportBytes(t, got), wantB) {
				t.Fatalf("%s pass=%d: cached report diverges from uncached", name, pass)
			}
		}
	}
}

// Repeated verification through one pipeline — the DSE access pattern —
// must be served mostly from the CAN analysis cache.
func TestPipelineCachesAreExercised(t *testing.T) {
	sys := demoVehicle(t, 1)
	p := NewPipeline(0)
	for i := 0; i < 3; i++ {
		if _, err := p.Verify(sys, nil, rte.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := p.CAN.Stats()
	if misses == 0 {
		t.Fatal("CAN cache never missed — nothing was analyzed?")
	}
	if hits < 2*misses {
		t.Fatalf("CAN cache hits = %d, misses = %d; repeated verification should be cache-dominated", hits, misses)
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
		t.Fatal("FlexRay report diverges between uncached and cached")
	}
	ref, err := refVerify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, ref), reportBytes(t, got)) {
		t.Fatal("FlexRay report diverges from the reference")
	}
}
