package com_test

import (
	"testing"

	"autorte/internal/fault"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/trace"
)

// gwSignal is the Sensor → Act route; its first segment (gwSignal+"~1")
// carries the PDU into the gateway ECU and its second (gwSignal+"~2")
// out of it onto the destination bus.
const gwSignal = "Sensor.out.v->Act.in"

// gatewayed builds Sensor on ecu1 (bus0) feeding Act on ecu2 (bus1)
// through a gateway ECU on both buses — the Gateway box of the paper's
// Figure 1. The sensor writes its job index; the returned slice collects
// the values the actuator applied, in order.
func gatewayed(protected bool) (*rte.Platform, *[]float64) {
	ifV := &model.PortInterface{
		Name: "IfV", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
	}
	s := &model.System{
		Name:       "gateway",
		Interfaces: []*model.PortInterface{ifV},
		Components: []*model.SWC{
			{
				Name:  "Sensor",
				Ports: []model.Port{{Name: "out", Direction: model.Provided, Interface: ifV}},
				Runnables: []model.Runnable{{
					Name: "sample", WCETNominal: sim.US(50),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
					Writes:  []model.PortRef{{Port: "out", Elem: "v"}},
				}},
			},
			{
				Name:  "Act",
				Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: ifV}},
				Runnables: []model.Runnable{{
					Name: "apply", WCETNominal: sim.US(20),
					Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "v"},
					Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
				}},
			},
		},
		ECUs: []*model.ECU{
			{Name: "ecu1", Speed: 1, Buses: []string{"bus0"}},
			{Name: "ecu2", Speed: 1, Buses: []string{"bus1"}},
			{Name: "gw", Speed: 1, Buses: []string{"bus0", "bus1"}},
		},
		Buses: []*model.Bus{
			{Name: "bus0", Kind: model.BusCAN, BitRate: 500_000},
			{Name: "bus1", Kind: model.BusCAN, BitRate: 500_000},
		},
		Connectors: []model.Connector{{FromSWC: "Sensor", FromPort: "out", ToSWC: "Act", ToPort: "in"}},
		Mapping:    map[string]string{"Sensor": "ecu1", "Act": "ecu2"},
	}
	opts := rte.Options{}
	if protected {
		opts.E2E = &rte.E2EOptions{}
	}
	p := rte.MustBuild(s, opts)
	got := new([]float64)
	p.SetBehavior("Sensor", "sample", func(c *rte.Context) { c.Write("out", "v", float64(c.Job())) })
	p.SetBehavior("Act", "apply", func(c *rte.Context) { *got = append(*got, c.Read("in", "v")) })
	return p, got
}

func detected(p *rte.Platform, class string) int {
	return int(p.Metrics.Counter("e2e_detected_faults_total",
		"Communication faults detected by E2E protection, by detected class.",
		obs.Label{Key: "class", Value: class}).Value())
}

// forwarded counts the PDUs the gateway put on the destination bus.
func forwarded(p *rte.Platform) int {
	return p.Trace.Count(trace.Finish, gwSignal+"~2")
}

// increasing reports whether every value follows a smaller one: no value
// was applied twice and none after a newer one.
func increasing(vs []float64) bool {
	for i := 1; i < len(vs); i++ {
		if vs[i] <= vs[i-1] {
			return false
		}
	}
	return true
}

func TestGatewayDuplicatesProtected(t *testing.T) {
	p, got := gatewayed(true)
	inj := fault.DuplicatePDU(p, gwSignal+"~1", 0, 0) // every PDU doubled on the first bus
	p.Run(sim.MS(95))
	if inj.Injected == 0 {
		t.Fatal("no duplicates injected")
	}
	if n := detected(p, "duplicate"); n != inj.Injected {
		t.Fatalf("gateway flagged %d of %d duplicates", n, inj.Injected)
	}
	if n := forwarded(p); n != 10 {
		t.Fatalf("gateway forwarded %d PDUs, want 10 (duplicates dropped at the gateway)", n)
	}
	if len(*got) != 10 || !increasing(*got) {
		t.Fatalf("applied %v under duplication, want 0..9 once each", *got)
	}
}

func TestGatewayDuplicatesUnprotected(t *testing.T) {
	p, got := gatewayed(false)
	inj := fault.DuplicatePDU(p, gwSignal+"~1", 0, 0)
	p.Run(sim.MS(95))
	// Nothing on the unprotected path notices: every duplicate is
	// forwarded onto the destination bus and applied.
	if inj.Injected == 0 || forwarded(p) != 10+inj.Injected || len(*got) != 10+inj.Injected {
		t.Fatalf("forwarded %d and applied %d PDUs with %d duplicates injected, want 10 + duplicates",
			forwarded(p), len(*got), inj.Injected)
	}
}

func TestGatewayReorderProtected(t *testing.T) {
	p, got := gatewayed(true)
	inj := fault.ResequencePDU(p, gwSignal+"~1", 0, 0) // consecutive pairs swapped on the first bus
	p.Run(sim.MS(95))
	if inj.Injected == 0 {
		t.Fatal("no pairs swapped")
	}
	// The held-back frame of each pair arrives behind its successor and is
	// flagged wrong-sequence; the resync to its stale counter can flag the
	// next pair's lead frame too, so detections meet or exceed the pairs.
	if n := detected(p, "sequence"); n < inj.Injected {
		t.Fatalf("gateway flagged %d of %d swapped pairs", n, inj.Injected)
	}
	if len(*got) == 0 || !increasing(*got) {
		t.Fatalf("applied %v under re-ordering, want each value at most once and in order", *got)
	}
}

func TestGatewayReorderUnprotected(t *testing.T) {
	p, got := gatewayed(false)
	fault.ResequencePDU(p, gwSignal+"~1", 0, 0)
	p.Run(sim.MS(95))
	// Re-ordering passes the gateway silently: the stale half of each
	// pair is applied after its successor.
	if len(*got) != 10 || increasing(*got) {
		t.Fatalf("applied %v, want all 10 values with the swapped pairs showing", *got)
	}
}
