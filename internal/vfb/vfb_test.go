package vfb

import (
	"strings"
	"testing"

	"autorte/internal/model"
	"autorte/internal/sim"
)

func buildSystem() *model.System {
	pi := &model.PortInterface{
		Name: "IfSpeed", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
	}
	sensor := &model.SWC{
		Name:  "Sensor",
		Ports: []model.Port{{Name: "out", Direction: model.Provided, Interface: pi}},
		Runnables: []model.Runnable{{
			Name: "sample", WCETNominal: sim.US(50),
			Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
			Writes:  []model.PortRef{{Port: "out", Elem: "v"}},
		}},
	}
	ctrl := &model.SWC{
		Name:  "Ctrl",
		Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: pi}},
		Runnables: []model.Runnable{{
			Name: "act", WCETNominal: sim.US(100),
			Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "v"},
			Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
		}},
	}
	return &model.System{
		Name:       "sys",
		Interfaces: []*model.PortInterface{pi},
		Components: []*model.SWC{sensor, ctrl},
		ECUs: []*model.ECU{
			{Name: "e1", Speed: 1, Buses: []string{"can0"}},
			{Name: "e2", Speed: 1, Buses: []string{"can0"}},
			{Name: "e3", Speed: 1}, // no bus
		},
		Buses:      []*model.Bus{{Name: "can0", Kind: model.BusCAN, BitRate: 500000}},
		Connectors: []model.Connector{{FromSWC: "Sensor", FromPort: "out", ToSWC: "Ctrl", ToPort: "in"}},
		Mapping:    map[string]string{"Sensor": "e1", "Ctrl": "e2"},
	}
}

func TestCheckConnectivity(t *testing.T) {
	s := buildSystem()
	if err := CheckConnectivity(s); err != nil {
		t.Fatal(err)
	}
	s.Connectors = nil
	if err := CheckConnectivity(s); err == nil || !strings.Contains(err.Error(), "unconnected") {
		t.Fatalf("unconnected R-port not caught: %v", err)
	}
	s = buildSystem()
	s.Connectors = append(s.Connectors, s.Connectors[0])
	if err := CheckConnectivity(s); err == nil || !strings.Contains(err.Error(), "providers") {
		t.Fatalf("double-connected R-port not caught: %v", err)
	}
}

// A replica group is one logical provider: the primary and its standbys
// may all feed the same required port. Providers from different groups
// stay rejected.
func TestCheckConnectivityReplicaFanIn(t *testing.T) {
	s := buildSystem()
	sb := *s.Components[0] // standby of Sensor
	sb.Name = "Sensor#1"
	sb.ReplicaOf = "Sensor"
	s.Components = append(s.Components, &sb)
	s.Connectors = append(s.Connectors,
		model.Connector{FromSWC: "Sensor#1", FromPort: "out", ToSWC: "Ctrl", ToPort: "in"})
	s.Mapping["Sensor#1"] = "e2"
	if err := CheckConnectivity(s); err != nil {
		t.Fatalf("replica fan-in rejected: %v", err)
	}
	// An unrelated second provider is still a design error.
	other := *s.Components[0]
	other.Name = "Rogue"
	other.ReplicaOf = ""
	s.Components = append(s.Components, &other)
	s.Connectors = append(s.Connectors,
		model.Connector{FromSWC: "Rogue", FromPort: "out", ToSWC: "Ctrl", ToPort: "in"})
	if err := CheckConnectivity(s); err == nil || !strings.Contains(err.Error(), "providers") {
		t.Fatalf("cross-group fan-in not caught: %v", err)
	}
}

func TestResolveRemote(t *testing.T) {
	s := buildSystem()
	routes, err := Resolve(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 1 {
		t.Fatalf("routes = %d, want 1", len(routes))
	}
	r := routes[0]
	if r.Local || r.Bus != "can0" {
		t.Fatalf("route should be remote over can0: %+v", r)
	}
	if r.Bits != 16 {
		t.Fatalf("bits = %d, want 16", r.Bits)
	}
	if r.Period != int64(sim.MS(10)) {
		t.Fatalf("period = %d, want 10ms", r.Period)
	}
	if !strings.Contains(r.SignalName, "Sensor.out.v") {
		t.Fatalf("signal name %q", r.SignalName)
	}
}

func TestResolveLocalWhenColocated(t *testing.T) {
	s := buildSystem()
	s.Mapping["Ctrl"] = "e1"
	routes, err := Resolve(s)
	if err != nil {
		t.Fatal(err)
	}
	if !routes[0].Local || routes[0].Bus != "" {
		t.Fatalf("co-located route should be local: %+v", routes[0])
	}
}

func TestResolveNoSharedBus(t *testing.T) {
	s := buildSystem()
	s.Mapping["Ctrl"] = "e3"
	if _, err := Resolve(s); err == nil || !strings.Contains(err.Error(), "no path") {
		t.Fatalf("missing path not caught: %v", err)
	}
}

func TestResolveThroughGateway(t *testing.T) {
	s := buildSystem()
	// Two domain buses joined by a gateway ECU: the sensor's ECU sits on
	// can0, the controller's on can1, and e2 bridges them.
	s.Buses = append(s.Buses, &model.Bus{Name: "can1", Kind: model.BusCAN, BitRate: 500_000})
	s.ECUs[0].Buses = []string{"can0"}         // e1: source domain
	s.ECUs[1].Buses = []string{"can0", "can1"} // e2: the gateway
	s.ECUs[2].Buses = []string{"can1"}         // e3: destination domain
	s.Mapping["Ctrl"] = "e3"
	routes, err := Resolve(s)
	if err != nil {
		t.Fatal(err)
	}
	r := routes[0]
	if r.Via != "e2" || r.Bus != "can0" || r.Bus2 != "can1" {
		t.Fatalf("gateway route wrong: %+v", r)
	}
	// The gatewayed route loads both buses.
	if !r.Crosses("can0") || !r.Crosses("can1") {
		t.Fatalf("gatewayed route does not cross both buses: %+v", r)
	}
}

func TestResolveUnmappedComponent(t *testing.T) {
	s := buildSystem()
	delete(s.Mapping, "Ctrl")
	if _, err := Resolve(s); err == nil || !strings.Contains(err.Error(), "not mapped") {
		t.Fatalf("unmapped component not caught: %v", err)
	}
}

// A remote route crosses its bus; a local route crosses none.
func TestByBusGroupsRemoteOnly(t *testing.T) {
	s := buildSystem()
	routes, _ := Resolve(s)
	if len(routes) != 1 || !routes[0].Crosses("can0") {
		t.Fatalf("remote route does not cross can0: %+v", routes)
	}
	s.Mapping["Ctrl"] = "e1"
	routes, _ = Resolve(s)
	for _, bus := range s.Buses {
		if routes[0].Crosses(bus.Name) {
			t.Fatalf("local route crosses %s", bus.Name)
		}
	}
}

func TestResolveDeterministicOrder(t *testing.T) {
	s := buildSystem()
	a, _ := Resolve(s)
	b, _ := Resolve(s)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("route order not deterministic")
		}
	}
}
