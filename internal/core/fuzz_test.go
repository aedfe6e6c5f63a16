package core

import (
	"maps"
	"reflect"
	"testing"

	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/workload"
)

// fuzzVehicle generates the vehicle a FuzzReverify seed names: up to
// three ECUs per subsystem, cross-domain links, chain constraints and a
// CAN, FlexRay or TTP backbone, plus three ECUs that make moves
// interesting: ecu_sub on a second CAN bus, reached from the backbone
// through the gateway ecu_gw, and ecu_iso on no bus at all, where every
// remote connector is unroutable.
func fuzzVehicle(t *testing.T, seed uint64) *model.System {
	t.Helper()
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{
		ECUsPerDAS:       1 + int(seed%3),
		CrossDASLinks:    int(seed / 3 % 3),
		BusKind:          model.BusKind(seed / 9 % 3),
		ChainConstraints: true,
		BusBitRate:       1_000_000,
	}, sim.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	backbone := sys.Buses[0].Name
	sys.Buses = append(sys.Buses, &model.Bus{Name: "sub", Kind: model.BusCAN, BitRate: 500_000})
	sys.ECUs = append(sys.ECUs,
		&model.ECU{Name: "ecu_sub", Speed: 1, Buses: []string{"sub"}},
		&model.ECU{Name: "ecu_gw", Speed: 1, Buses: []string{backbone, "sub"}},
		&model.ECU{Name: "ecu_iso", Speed: 1})
	return sys
}

// FuzzReverify drives one incremental verifier through a generated
// sequence of mapping changes. After every step its report — or its
// error — must be the one a fresh Verify of the same mapping gives and
// the one the reference derivation gives, and nothing may panic.
//
// moves[0] marks up to three components as passive standbys (its low two
// bits) and may add a component with no connectors (bit 2), left unmapped
// (bit 3) and a passive standby (bit 4): Reverify only takes a mapping,
// so these changes are made before the verifier is built. Every following 3-byte group is one step: op, component, ECU.
// op selects a no-op, a single move, a two-component move or a move of a
// component next to another; the ECU byte ranges over the vehicle's ECUs
// plus one name no ECU has.
func FuzzReverify(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 3, 5, 2, 7, 1, 0, 0, 0})
	f.Add(uint64(4), []byte{2, 4, 9, 1, 4, 200, 1, 4, 255, 3, 5, 6})
	f.Add(uint64(13), []byte{1, 8, 1, 2, 13, 1, 9, 14, 2, 3, 11})
	f.Add(uint64(23), []byte{0, 1, 0, 13, 1, 6, 12, 2, 2, 14, 1, 6, 0})
	f.Add(uint64(5), []byte{4, 1, 39, 2, 1, 12, 7, 3, 12, 4})
	f.Add(uint64(6), []byte{12, 1, 2, 3})
	f.Add(uint64(7), []byte{29, 2, 1, 39, 1})
	f.Fuzz(func(t *testing.T, seed uint64, moves []byte) {
		if len(moves) > 64 {
			moves = moves[:64]
		}
		sys := fuzzVehicle(t, seed%27)
		if len(moves) > 0 {
			for i := 0; i < int(moves[0]%4) && 1+i < len(moves); i++ {
				if c := 1 + int(moves[1+i])%(len(sys.Components)-1); !sys.Components[c].IsStandby() {
					sys.Components[c].ReplicaOf = sys.Components[0].Name
				}
			}
			if moves[0]&4 != 0 {
				addOrphan(sys, moves[0]&8 == 0, moves[0]&16 != 0)
			}
			moves = moves[1:]
		}
		check := func(step string, mapping map[string]string, got *Report, gotErr error) {
			t.Helper()
			clone := sys.Clone()
			clone.Mapping = maps.Clone(mapping)
			want, wantErr := NewPipeline(1).Verify(clone, nil, rte.Options{})
			ref, refErr := refVerify(clone, nil, rte.Options{})
			if msg(wantErr) != msg(refErr) || !reflect.DeepEqual(want, ref) {
				t.Fatalf("%s: Verify (%v) diverges from the reference (%v)", step, wantErr, refErr)
			}
			if msg(gotErr) != msg(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: incremental (%v) diverges from Verify (%v)\n got: %+v\nwant: %+v", step, gotErr, wantErr, got, want)
			}
		}
		inc, err := NewIncremental(NewPipeline(1), sys.Clone(), nil, rte.Options{})
		if err != nil {
			check("initial", sys.Mapping, nil, err)
			return
		}
		check("initial", sys.Mapping, inc.Report(), nil)

		ecu := func(b byte) string {
			if i := int(b) % (len(sys.ECUs) + 1); i < len(sys.ECUs) {
				return sys.ECUs[i].Name
			}
			return "ecu_unknown"
		}
		// Reverify takes a mapping of the mapped components only.
		var mapped []string
		for _, c := range sys.Components {
			if _, ok := sys.Mapping[c.Name]; ok {
				mapped = append(mapped, c.Name)
			}
		}
		comp := func(b byte) string { return mapped[int(b)%len(mapped)] }
		cur := maps.Clone(sys.Mapping)
		for ; len(moves) >= 3; moves = moves[3:] {
			op, c, e := moves[0], moves[1], moves[2]
			next := maps.Clone(cur)
			switch op % 4 {
			case 0: // no-op
			case 1:
				next[comp(c)] = ecu(e)
			case 2:
				// Two components at once, onto known ECUs only: with two
				// unknown ECUs, Verify's error would name whichever entry
				// its map iteration meets first.
				next[comp(c)] = ecu(e % byte(len(sys.ECUs)))
				next[comp(c+1)] = ecu((e + 1) % byte(len(sys.ECUs)))
			case 3:
				next[comp(c)] = cur[comp(e)]
			}
			got, err := inc.Reverify(next)
			check("step", next, got, err)
			if err != nil {
				check("after the error", cur, inc.Report(), nil)
				continue
			}
			cur = next
		}
	})
}

// addOrphan adds a component with one periodic runnable and no ports to
// sys, mapped to the first ECU when mapped is set, and a passive standby
// of the first component when passive is set.
func addOrphan(sys *model.System, mapped, passive bool) {
	c := &model.SWC{Name: "orphan", Runnables: []model.Runnable{{
		Name: "tick", WCETNominal: sim.US(100),
		Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
	}}}
	if passive {
		c.ReplicaOf = sys.Components[0].Name
		c.Redundancy.Mode = model.StandbyPassive
	}
	sys.Components = append(sys.Components, c)
	if mapped {
		sys.Mapping[c.Name] = sys.ECUs[0].Name
	}
}

func msg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
