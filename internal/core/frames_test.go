package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"autorte/internal/can"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/vfb"
	"autorte/internal/workload"
)

// gatewayedVehicle is a generated vehicle on two CAN buses: alternate
// ECUs on can0 and can1, joined by one gateway ECU, so most remote
// routes take two segments.
func gatewayedVehicle(t *testing.T, seed uint64) *model.System {
	t.Helper()
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{CrossDASLinks: 3, ChainConstraints: true}, sim.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	sys.Buses = []*model.Bus{
		{Name: "can0", Kind: model.BusCAN, BitRate: 500_000},
		{Name: "can1", Kind: model.BusCAN, BitRate: 500_000},
	}
	for i, e := range sys.ECUs {
		e.Buses = []string{fmt.Sprintf("can%d", i%2)}
	}
	sys.ECUs = append(sys.ECUs, &model.ECU{Name: "gateway", Speed: 1, Buses: []string{"can0", "can1"}})
	return sys
}

// routeSignal strips a gateway hop's "~1"/"~2" from a segment name.
func routeSignal(segment string) string {
	if i := strings.LastIndex(segment, "~"); i >= 0 {
		return segment[:i]
	}
	return segment
}

// The verifier must analyze the frames Build wires: on every bus, the
// CAN identifiers, DLCs and channel configuration, the FlexRay static
// slots, and the TTP round, under default options, E2E protection and
// extended identifiers.
func TestVerifyAnalyzesTheFramesBuildWires(t *testing.T) {
	systems := map[string]func(seed uint64) *model.System{
		"can": func(seed uint64) *model.System { return vehicle(t, seed) },
		"flexray": func(seed uint64) *model.System {
			sys, err := workload.GenerateVehicle(workload.VehicleSpec{BusKind: model.BusFlexRay}, sim.NewRand(seed))
			if err != nil {
				t.Fatal(err)
			}
			return sys
		},
		"ttp": func(seed uint64) *model.System {
			sys := vehicle(t, seed)
			sys.Buses[0].Kind = model.BusTTP
			return sys
		},
		"gateway": func(seed uint64) *model.System { return gatewayedVehicle(t, seed) },
	}
	options := map[string]rte.Options{
		"default":  {},
		"e2e":      {E2E: &rte.E2EOptions{}},
		"extended": {CANConfig: can.Config{Extended: true}},
	}
	for kind, gen := range systems {
		for seed := uint64(1); seed <= 3; seed++ {
			for optName, opts := range options {
				name := fmt.Sprintf("%s/seed%d/%s", kind, seed, optName)
				sys := gen(seed)
				inc, err := NewIncremental(NewPipeline(0), sys, nil, opts)
				if err != nil {
					t.Fatalf("%s: verify: %v", name, err)
				}
				p, err := rte.Build(sys.Clone(), opts)
				if err != nil {
					t.Fatalf("%s: build: %v", name, err)
				}
				analyzed := 0
				for bi, b := range sys.Buses {
					st := &inc.buses[bi]
					if st.routes == nil {
						continue
					}
					analyzed++
					switch b.Kind {
					case model.BusCAN:
						checkCANFrames(t, name+"/"+b.Name, st, p.CANBus(b.Name))
					case model.BusFlexRay:
						if st.synthErr != nil {
							t.Fatalf("%s: synthesis: %v", name, st.synthErr)
						}
						static := 0
						for _, f := range p.FlexRayBus(b.Name).Frames() {
							if f.Period != 0 || f.Deadline == 0 {
								continue // dynamic (event) frames
							}
							static++
							a, ok := st.slots[routeSignal(f.Name)]
							if !ok {
								t.Fatalf("%s: frame %s not analyzed", name, f.Name)
							}
							if a.SlotID != f.SlotID || a.Base != f.Base || a.Repetition != f.Repetition {
								t.Fatalf("%s: %s analyzed in slot %d/%d/%d, wired in %d/%d/%d", name, f.Name,
									a.SlotID, a.Base, a.Repetition, f.SlotID, f.Base, f.Repetition)
							}
						}
						if static != len(st.slots) {
							t.Fatalf("%s: %d static frames wired, %d analyzed", name, static, len(st.slots))
						}
					case model.BusTTP:
						if got, want := st.plan.Round(), p.TTPCluster(b.Name).RoundLength(); got != want {
							t.Fatalf("%s: TDMA round analyzed %v, wired %v", name, got, want)
						}
					}
				}
				if analyzed == 0 {
					t.Fatalf("%s: no bus analyzed", name)
				}
				if kind == "gateway" && !slices.ContainsFunc(inc.routes, func(r vfb.Route) bool { return r.Via != "" }) {
					t.Fatalf("%s: no route crosses the gateway", name)
				}
			}
		}
	}
}

// checkCANFrames holds a CAN bus's analyzed frame set to the messages the
// platform wired: the same channel, and per periodic frame the same ID
// and DLC.
func checkCANFrames(t *testing.T, name string, st *busState, bus *can.Bus) {
	t.Helper()
	if st.plan.CAN != bus.Cfg {
		t.Fatalf("%s: analyzed channel %+v, wired %+v", name, st.plan.CAN, bus.Cfg)
	}
	wired := map[string]*can.Message{}
	periodic := 0
	for _, m := range bus.Messages() {
		wired[routeSignal(m.Name)] = m
		if m.Deadline > 0 {
			periodic++
		}
	}
	if periodic != len(st.msgs) {
		t.Fatalf("%s: %d periodic frames wired, %d analyzed", name, periodic, len(st.msgs))
	}
	for _, m := range st.msgs {
		w := wired[m.Name]
		if w == nil {
			t.Fatalf("%s: analyzed frame %s not wired", name, m.Name)
		}
		if m.ID != w.ID || m.DLC != w.DLC || m.Period != w.Deadline {
			t.Fatalf("%s: %s analyzed as ID %#x DLC %d period %v, wired as ID %#x DLC %d deadline %v",
				name, m.Name, m.ID, m.DLC, m.Period, w.ID, w.DLC, w.Deadline)
		}
	}
}

// A frame Build cannot wire is one Verify cannot pass: a 64-bit signal
// fills a classic CAN frame, so the E2E header pushes it to 10 bytes.
func TestVerifyRejectsWhatBuildRejects(t *testing.T) {
	u64 := model.DataType{Name: "UInt64", Bits: 64, Min: 0, Max: 1 << 53}
	ifW := &model.PortInterface{
		Name: "IfW", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "w", Type: u64}},
	}
	sys := &model.System{
		Name:       "wide",
		Interfaces: []*model.PortInterface{ifW},
		Components: []*model.SWC{
			{
				Name:  "Src",
				Ports: []model.Port{{Name: "out", Direction: model.Provided, Interface: ifW}},
				Runnables: []model.Runnable{{
					Name: "tick", WCETNominal: sim.US(50),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
					Writes:  []model.PortRef{{Port: "out", Elem: "w"}},
				}},
			},
			{
				Name:  "Dst",
				Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: ifW}},
				Runnables: []model.Runnable{{
					Name: "use", WCETNominal: sim.US(50),
					Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "w"},
					Reads:   []model.PortRef{{Port: "in", Elem: "w"}},
				}},
			},
		},
		ECUs: []*model.ECU{
			{Name: "e1", Speed: 1, Buses: []string{"can0"}},
			{Name: "e2", Speed: 1, Buses: []string{"can0"}},
		},
		Buses:      []*model.Bus{{Name: "can0", Kind: model.BusCAN, BitRate: 500_000}},
		Connectors: []model.Connector{{FromSWC: "Src", FromPort: "out", ToSWC: "Dst", ToPort: "in"}},
		Mapping:    map[string]string{"Src": "e1", "Dst": "e2"},
	}
	// Unprotected, the 8-byte frame fits and both accept it.
	if _, err := Verify(sys, nil, rte.Options{}); err != nil {
		t.Fatalf("unprotected verify: %v", err)
	}
	if _, err := rte.Build(sys.Clone(), rte.Options{}); err != nil {
		t.Fatalf("unprotected build: %v", err)
	}
	opts := rte.Options{E2E: &rte.E2EOptions{}}
	_, buildErr := rte.Build(sys.Clone(), opts)
	if buildErr == nil {
		t.Fatal("build accepted a 10-byte CAN frame")
	}
	_, verifyErr := Verify(sys, nil, opts)
	if verifyErr == nil || verifyErr.Error() != buildErr.Error() {
		t.Fatalf("verify error %v, build error %v", verifyErr, buildErr)
	}
	if _, refErr := refVerify(sys, nil, opts); refErr == nil || refErr.Error() != buildErr.Error() {
		t.Fatalf("reference error %v, build error %v", refErr, buildErr)
	}
}
