package core

import (
	"fmt"
	"reflect"
	"testing"

	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

// incrementalVehicle builds a deployed vehicle with real chain constraints
// and cross-domain traffic — every report section (ECUs, buses, chains)
// non-trivially populated.
func incrementalVehicle(t *testing.T) *model.System {
	t.Helper()
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{
		ECUsPerDAS:       3,
		CrossDASLinks:    2,
		ChainConstraints: true,
		BusBitRate:       1_000_000,
	}, sim.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// mutate moves n random components to random ECUs (possibly their current
// one) and returns the new full mapping.
func mutate(sys *model.System, r *sim.Rand, n int) map[string]string {
	next := make(map[string]string, len(sys.Mapping))
	for c, e := range sys.Mapping {
		next[c] = e
	}
	for i := 0; i < n; i++ {
		comp := sys.Components[r.Intn(len(sys.Components))]
		next[comp.Name] = sys.ECUs[r.Intn(len(sys.ECUs))].Name
	}
	return next
}

// markPassive makes comp a passive standby replica of the system's first
// component: deployed, but with no CPU demand until promoted.
func markPassive(t *testing.T, sys *model.System, comp string) {
	t.Helper()
	c := sys.Component(comp)
	if c == nil {
		t.Fatalf("no component %s", comp)
	}
	c.ReplicaOf = sys.Components[0].Name
	c.Redundancy.Mode = model.StandbyPassive
}

// checkVerify fails unless got is the report both a fresh Verify and the
// reference derivation give for sys.
func checkVerify(t *testing.T, step string, sys *model.System, got *Report) {
	t.Helper()
	want, err := NewPipeline(1).Verify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatalf("%s: full verify: %v", step, err)
	}
	ref, err := refVerify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatalf("%s: reference verify: %v", step, err)
	}
	if !reflect.DeepEqual(want, ref) {
		t.Fatalf("%s: full verify diverges from the reference\n got: %+v\nwant: %+v", step, want, ref)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental report diverges from full verify\n got: %+v\nwant: %+v", step, got, want)
	}
}

func TestIncrementalMatchesFullVerify(t *testing.T) {
	for _, passive := range []bool{false, true} {
		sys := incrementalVehicle(t)
		if passive {
			markPassive(t, sys, "powertrain_c0_ctrl")
		}
		inc, err := NewIncremental(NewPipeline(1), sys, nil, rte.Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkVerify(t, fmt.Sprintf("passive=%v initial", passive), sys, inc.Report())

		r := sim.NewRand(99)
		for step := 0; step < 40; step++ {
			// Mostly single-entry moves (the DSE shape), some multi-moves,
			// and an occasional no-op pass.
			n := 1
			switch step % 8 {
			case 3:
				n = 2
			case 5:
				n = 3
			case 7:
				n = 0
			}
			got, err := inc.Reverify(mutate(sys, r, n))
			if err != nil {
				t.Fatalf("passive=%v step %d: reverify: %v", passive, step, err)
			}
			checkVerify(t, fmt.Sprintf("passive=%v step %d (%d moves)", passive, step, n), sys, got)
		}
		recomputed, reused := inc.Stats()
		if recomputed == 0 || reused == 0 {
			t.Fatalf("stats: recomputed=%d reused=%d — the sweep should both reuse and recompute", recomputed, reused)
		}
		// Single-entry moves must not re-verify the whole system: over the
		// sweep, retained results must dominate recomputed ones.
		if reused < recomputed {
			t.Fatalf("stats: reused=%d < recomputed=%d — incremental layer recomputes too much", reused, recomputed)
		}
	}
}

// A mapping naming an unknown ECU is an error, worded as Verify words it,
// and leaves the retained state on the previous mapping.
func TestReverifyRejectsUnknownECU(t *testing.T) {
	sys := incrementalVehicle(t)
	inc, err := NewIncremental(NewPipeline(1), sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := mutate(sys, sim.NewRand(1), 0)
	bad["powertrain_c0_ctrl"] = "ghost"
	_, err = inc.Reverify(bad)
	if err == nil {
		t.Fatal("mapping onto an unknown ECU accepted")
	}
	clone := sys.Clone()
	clone.Mapping = bad
	_, want := Verify(clone, nil, rte.Options{})
	if want == nil || err.Error() != want.Error() {
		t.Fatalf("reverify error %q, want Verify's %v", err, want)
	}
	if sys.Mapping["powertrain_c0_ctrl"] == "ghost" {
		t.Fatal("failed reverify changed the system's mapping")
	}
	checkVerify(t, "after the error", sys, inc.Report())
	got, err := inc.Reverify(mutate(sys, sim.NewRand(2), 2))
	if err != nil {
		t.Fatal(err)
	}
	checkVerify(t, "next valid reverify", sys, got)
}

// With several unroutable connectors, Verify, the full pass and Reverify
// all report the first in connector declaration order.
func TestFirstRouteErrorFollowsDeclarationOrder(t *testing.T) {
	sys := incrementalVehicle(t)
	sys.ECUs = append(sys.ECUs,
		&model.ECU{Name: "iso_a", Speed: 1},
		&model.ECU{Name: "iso_b", Speed: 1})
	valid := mutate(sys, sim.NewRand(1), 0)
	// powertrain_c0_sensor's connector is declared first; body_c0_ctrl's
	// signals sort first by name.
	sys.Mapping["powertrain_c0_sensor"] = "iso_a"
	sys.Mapping["body_c0_ctrl"] = "iso_b"
	const want = "vfb: no path (direct or one-gateway) between ECUs iso_a and ecu_powertrain_1"
	if _, err := Verify(sys, nil, rte.Options{}); err == nil || err.Error() != want {
		t.Fatalf("Verify error %v, want %q", err, want)
	}
	if _, err := refVerify(sys, nil, rte.Options{}); err == nil || err.Error() != want {
		t.Fatalf("reference error %v, want %q", err, want)
	}
	if _, err := NewIncremental(NewPipeline(1), sys, nil, rte.Options{}); err == nil || err.Error() != want {
		t.Fatalf("NewIncremental error %v, want %q", err, want)
	}
	bad := mutate(sys, sim.NewRand(1), 0)
	sys.Mapping = valid
	inc, err := NewIncremental(NewPipeline(1), sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Reverify(bad); err == nil || err.Error() != want {
		t.Fatalf("Reverify error %v, want %q", err, want)
	}
	checkVerify(t, "after the error", sys, inc.Report())
}

// TestIncrementalConsolidation drives the mapping far from the generated
// federated layout — piling components onto one ECU empties others, which
// must drop cleanly from the report.
func TestIncrementalConsolidation(t *testing.T) {
	sys := incrementalVehicle(t)
	opts := rte.Options{}
	inc, err := NewIncremental(NewPipeline(1), sys, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	target := sys.ECUs[0].Name
	next := make(map[string]string, len(sys.Mapping))
	for c := range sys.Mapping {
		next[c] = target
	}
	got, err := inc.Reverify(next)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ECUs) != 1 || got.ECUs[0].Name != target {
		t.Fatalf("consolidated report should hold exactly ECU %s, got %d ECUs", target, len(got.ECUs))
	}
	if len(got.Buses) != 0 {
		t.Fatalf("fully local mapping should route no bus, got %d bus reports", len(got.Buses))
	}
	want, err := NewPipeline(1).Verify(sys, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("consolidated incremental report diverges from full verify")
	}
	// And back out again: the retained state must survive the round trip.
	back := make(map[string]string, len(sys.Mapping))
	for i, c := range sys.Components {
		back[c.Name] = sys.ECUs[i%len(sys.ECUs)].Name
	}
	got, err = inc.Reverify(back)
	if err != nil {
		t.Fatal(err)
	}
	want, err = NewPipeline(1).Verify(sys, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip incremental report diverges from full verify")
	}
}

func TestIncrementalRejectsUnknownComponent(t *testing.T) {
	sys := incrementalVehicle(t)
	inc, err := NewIncremental(NewPipeline(1), sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := mutate(sys, sim.NewRand(1), 0)
	bad["ghost"] = sys.ECUs[0].Name
	if _, err := inc.Reverify(bad); err == nil {
		t.Fatal("mapping with an extra component should be rejected")
	}
	delete(bad, "ghost")
	delete(bad, sys.Components[0].Name)
	if _, err := inc.Reverify(bad); err == nil {
		t.Fatal("mapping missing a component should be rejected")
	}
}

// Bus names are not required to be unique; like model.System.BusByName,
// the verifier resolves a duplicated name to its first bus, and a route
// change dirties every bus of that name.
func TestVerifyDuplicateBusNameMatchesReference(t *testing.T) {
	sys := incrementalVehicle(t)
	sys.Buses = append(sys.Buses, &model.Bus{Name: sys.Buses[0].Name, Kind: model.BusTTP, BitRate: 1})
	inc, err := NewIncremental(NewPipeline(1), sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkVerify(t, "initial", sys, inc.Report())
	r := sim.NewRand(5)
	for step := 0; step < 10; step++ {
		got, err := inc.Reverify(mutate(sys, r, 1))
		if err != nil {
			t.Fatal(err)
		}
		checkVerify(t, fmt.Sprintf("step %d", step), sys, got)
	}
}

// A component with CPU demand but no mapping entry has no ECU to be
// analyzed on: Verify, the incremental verifier and the reference all
// reject it with the same error, also when it has no connectors (so no
// route fails first). An unmapped passive standby has no demand and
// verifies.
func TestUnmappedComponentIsAnError(t *testing.T) {
	sys := incrementalVehicle(t)
	addOrphan(sys, false, false)
	const want = "core: component orphan is not mapped"
	_, err := Verify(sys, nil, rte.Options{})
	if msg(err) != want {
		t.Fatalf("Verify: err = %v, want %q", err, want)
	}
	if _, err := NewIncremental(NewPipeline(1), sys.Clone(), nil, rte.Options{}); msg(err) != want {
		t.Fatalf("NewIncremental: err = %v, want %q", err, want)
	}
	if _, err := refVerify(sys, nil, rte.Options{}); msg(err) != want {
		t.Fatalf("reference: err = %v, want %q", err, want)
	}

	sys = incrementalVehicle(t)
	addOrphan(sys, false, true)
	inc, err := NewIncremental(NewPipeline(1), sys.Clone(), nil, rte.Options{})
	if err != nil {
		t.Fatalf("unmapped passive standby: %v", err)
	}
	checkVerify(t, "unmapped passive standby", sys, inc.Report())
}
