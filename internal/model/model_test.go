package model

import (
	"strings"
	"testing"

	"autorte/internal/sim"
)

func speedIface() *PortInterface {
	return &PortInterface{
		Name: "IfWheelSpeed", Kind: SenderReceiver,
		Elements: []DataElement{{Name: "speed", Type: UInt16}},
	}
}

func sensorSWC(pi *PortInterface) *SWC {
	return &SWC{
		Name: "WheelSensor", Supplier: "TierA", DAS: "chassis", ASIL: ASILD,
		Ports: []Port{{Name: "out", Direction: Provided, Interface: pi}},
		Runnables: []Runnable{{
			Name: "sample", WCETNominal: sim.US(100),
			Trigger: Trigger{Kind: TimingEvent, Period: sim.MS(5)},
			Writes:  []PortRef{{Port: "out", Elem: "speed"}},
		}},
		MemoryKB: 4,
	}
}

func ctrlSWC(pi *PortInterface) *SWC {
	return &SWC{
		Name: "BrakeCtrl", Supplier: "TierB", DAS: "chassis", ASIL: ASILD,
		Ports: []Port{{Name: "in", Direction: Required, Interface: pi}},
		Runnables: []Runnable{{
			Name: "control", WCETNominal: sim.US(300),
			Trigger: Trigger{Kind: DataReceivedEvent, Port: "in", Elem: "speed"},
			Reads:   []PortRef{{Port: "in", Elem: "speed"}},
		}},
		MemoryKB: 16,
	}
}

func testSystem() *System {
	pi := speedIface()
	return &System{
		Name:       "test",
		Interfaces: []*PortInterface{pi},
		Components: []*SWC{sensorSWC(pi), ctrlSWC(pi)},
		ECUs: []*ECU{
			{Name: "ecu1", Speed: 1, MemoryKB: 256, Buses: []string{"can0"}, Position: [2]float64{0, 0}, MaxASIL: ASILD},
			{Name: "ecu2", Speed: 1, MemoryKB: 256, Buses: []string{"can0"}, Position: [2]float64{3, 4}, MaxASIL: ASILD},
		},
		Buses:      []*Bus{{Name: "can0", Kind: BusCAN, BitRate: 500_000}},
		Connectors: []Connector{{FromSWC: "WheelSensor", FromPort: "out", ToSWC: "BrakeCtrl", ToPort: "in"}},
		Constraints: []LatencyConstraint{{
			Name:   "brakeChain",
			Chain:  []PortRef2{{SWC: "WheelSensor", Port: "out"}, {SWC: "BrakeCtrl", Port: "in"}},
			Budget: sim.MS(10),
		}},
		Mapping: map[string]string{"WheelSensor": "ecu1", "BrakeCtrl": "ecu2"},
	}
}

func TestSystemValidateOK(t *testing.T) {
	if err := testSystem().Validate(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*System)
		want string
	}{
		{"unknown connector provider", func(s *System) { s.Connectors[0].FromSWC = "nope" }, "unknown provider"},
		{"wrong port direction", func(s *System) {
			s.Connectors[0] = Connector{FromSWC: "BrakeCtrl", FromPort: "in", ToSWC: "WheelSensor", ToPort: "out"}
		}, "not a provided port"},
		{"mapping to unknown ecu", func(s *System) { s.Mapping["WheelSensor"] = "ghost" }, "unknown ECU"},
		{"constraint unknown component", func(s *System) { s.Constraints[0].Chain[0].SWC = "ghost" }, "unknown component"},
		{"short chain", func(s *System) { s.Constraints[0].Chain = s.Constraints[0].Chain[:1] }, "at least two"},
		{"duplicate component", func(s *System) { s.Components = append(s.Components, s.Components[0]) }, "duplicate component"},
		{"zero bit rate", func(s *System) { s.Buses[0].BitRate = 0 }, "bit rate"},
		{"ecu on unknown bus", func(s *System) { s.ECUs[0].Buses = []string{"lin9"} }, "unknown bus"},
		{"non-positive ecu speed", func(s *System) { s.ECUs[0].Speed = 0 }, "speed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := testSystem()
			c.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("invalid system accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// With several bad Mapping entries, Validate names the first in
// component-name order on every call.
func TestValidateMappingDiagnosticIsStable(t *testing.T) {
	want := `mapping references unknown component "Aaa"`
	for i := 0; i < 20; i++ {
		s := testSystem()
		s.Mapping["WheelSensor"] = "ghost-w"
		s.Mapping["BrakeCtrl"] = "ghost-b"
		s.Mapping["Aaa"] = "ecu1"
		if err := s.Validate(); err == nil || err.Error() != want {
			t.Fatalf("Validate = %v, want %q", err, want)
		}
	}
}

func TestSWCValidateRejects(t *testing.T) {
	pi := speedIface()
	cases := []struct {
		name string
		mut  func(*SWC)
	}{
		{"no runnables", func(c *SWC) { c.Runnables = nil }},
		{"zero wcet", func(c *SWC) { c.Runnables[0].WCETNominal = 0 }},
		{"bcet above wcet", func(c *SWC) { c.Runnables[0].BCET = c.Runnables[0].WCETNominal * 2 }},
		{"zero period", func(c *SWC) { c.Runnables[0].Trigger.Period = 0 }},
		{"write unknown port", func(c *SWC) { c.Runnables[0].Writes = []PortRef{{Port: "ghost"}} }},
		{"duplicate port", func(c *SWC) { c.Ports = append(c.Ports, c.Ports[0]) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			swc := sensorSWC(pi)
			c.mut(swc)
			if swc.Validate() == nil {
				t.Fatal("invalid SWC accepted")
			}
		})
	}
}

func TestInterfaceCompatibility(t *testing.T) {
	prov := &PortInterface{Name: "P", Kind: SenderReceiver, Elements: []DataElement{
		{Name: "a", Type: UInt16}, {Name: "b", Type: UInt8},
	}}
	req := &PortInterface{Name: "R", Kind: SenderReceiver, Elements: []DataElement{
		{Name: "a", Type: UInt16},
	}}
	if err := Compatible(req, prov); err != nil {
		t.Fatalf("superset provider rejected: %v", err)
	}
	req2 := &PortInterface{Name: "R2", Kind: SenderReceiver, Elements: []DataElement{
		{Name: "a", Type: UInt32}, // wrong width
	}}
	if Compatible(req2, prov) == nil {
		t.Fatal("width mismatch accepted")
	}
	req3 := &PortInterface{Name: "R3", Kind: ClientServer, Operations: []Operation{{Name: "x"}}}
	if Compatible(req3, prov) == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestClientServerCompatibility(t *testing.T) {
	prov := &PortInterface{Name: "P", Kind: ClientServer, Operations: []Operation{
		{Name: "Apply", Args: []DataElement{{Name: "force", Type: UInt16}}},
	}}
	req := &PortInterface{Name: "R", Kind: ClientServer, Operations: []Operation{
		{Name: "Apply", Args: []DataElement{{Name: "f", Type: UInt16}}},
	}}
	if err := Compatible(req, prov); err != nil {
		t.Fatalf("matching operation rejected: %v", err)
	}
	req.Operations[0].Args = nil
	if Compatible(req, prov) == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestUtilization(t *testing.T) {
	pi := speedIface()
	c := sensorSWC(pi) // 100us / 5ms = 0.02
	if u := c.Utilization(); u < 0.0199 || u > 0.0201 {
		t.Fatalf("utilization = %v, want 0.02", u)
	}
	// Data-received runnables contribute no periodic utilization.
	if u := ctrlSWC(pi).Utilization(); u != 0 {
		t.Fatalf("event-triggered utilization = %v, want 0", u)
	}
}

func TestHarnessLengthAndUsedECUs(t *testing.T) {
	s := testSystem()
	if got := s.HarnessLength(); got < 4.99 || got > 5.01 {
		t.Fatalf("harness length = %v, want 5 (3-4-5 triangle)", got)
	}
	if used := s.UsedECUs(); len(used) != 2 {
		t.Fatalf("used ECUs = %v, want 2", used)
	}
	// Co-locating both components removes the remote connector.
	s.Mapping["BrakeCtrl"] = "ecu1"
	if got := s.HarnessLength(); got != 0 {
		t.Fatalf("co-located harness length = %v, want 0", got)
	}
	if used := s.UsedECUs(); len(used) != 1 || used[0] != "ecu1" {
		t.Fatalf("used ECUs = %v, want [ecu1]", used)
	}
}

func TestECULoadScalesWithSpeed(t *testing.T) {
	s := testSystem()
	s.Mapping = map[string]string{"WheelSensor": "ecu1"}
	base := s.ECULoad("ecu1")
	s.ECUs[0].Speed = 2
	if got := s.ECULoad("ecu1"); got != base/2 {
		t.Fatalf("load at speed 2 = %v, want %v", got, base/2)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := testSystem()
	s.Components[0].Config.Set("gain", PostBuild, "1")
	c := s.Clone()
	c.Mapping["WheelSensor"] = "ecu2"
	c.Components[0].Runnables[0].WCETNominal = sim.MS(99)
	c.Components[0].Ports[0].Name = "renamed"
	c.Components[0].Config.Set("gain", PostBuild, "2")
	c.Connectors[0].FromSWC = "X"
	if s.Mapping["WheelSensor"] != "ecu1" {
		t.Fatal("clone shares mapping")
	}
	if s.Components[0].Runnables[0].WCETNominal == sim.MS(99) {
		t.Fatal("clone shares runnables")
	}
	if s.Components[0].Ports[0].Name == "renamed" {
		t.Fatal("clone shares ports")
	}
	if s.Components[0].Config.Params["gain"].Value != "1" {
		t.Fatal("clone shares configuration parameters")
	}
	if s.Connectors[0].FromSWC == "X" {
		t.Fatal("clone shares connectors")
	}
	if err := c.Validate(); err == nil {
		// c was mutated to be invalid; original must still validate
		t.Log("clone validation did not fail, mutations were benign")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("original corrupted by clone mutation: %v", err)
	}
}

func TestConfigRebindRules(t *testing.T) {
	var cs ConfigSet
	cs.Set("busSpeed", PreCompile, "500k")
	cs.Set("nodeId", PostBuild, "7")
	if err := cs.Rebind("busSpeed", PreCompile, "250k"); err != nil {
		t.Fatalf("pre-compile rebind at pre-compile stage failed: %v", err)
	}
	if err := cs.Rebind("busSpeed", LinkTime, "125k"); err == nil {
		t.Fatal("pre-compile parameter rebound after compile")
	}
	if err := cs.Rebind("nodeId", PostBuild, "9"); err != nil {
		t.Fatalf("post-build rebind failed: %v", err)
	}
	if v, _ := cs.Get("nodeId"); v != "9" {
		t.Fatalf("nodeId = %q, want 9", v)
	}
	if err := cs.Rebind("ghost", PreCompile, "x"); err == nil {
		t.Fatal("unknown parameter rebound")
	}
	if names := cs.ByClass(PostBuild); len(names) != 1 || names[0] != "nodeId" {
		t.Fatalf("ByClass = %v", names)
	}
}

func TestDataTypeValidate(t *testing.T) {
	bad := DataType{Name: "x", Bits: 0}
	if bad.Validate() == nil {
		t.Fatal("zero-width type accepted")
	}
	bad = DataType{Name: "x", Bits: 65}
	if bad.Validate() == nil {
		t.Fatal("65-bit type accepted")
	}
	bad = DataType{Name: "x", Bits: 8, Min: 10, Max: 5}
	if bad.Validate() == nil {
		t.Fatal("inverted range accepted")
	}
	if UInt16.Validate() != nil || Bool.Validate() != nil {
		t.Fatal("standard type rejected")
	}
}

func TestStringers(t *testing.T) {
	if SenderReceiver.String() != "sender-receiver" || ClientServer.String() != "client-server" {
		t.Fatal("interface kind names")
	}
	if Provided.String() != "provided" || Required.String() != "required" {
		t.Fatal("direction names")
	}
	if ASILD.String() != "ASIL-D" || QM.String() != "QM" {
		t.Fatal("ASIL names")
	}
	if BusCAN.String() != "CAN" || BusFlexRay.String() != "FlexRay" || BusTTP.String() != "TTP" {
		t.Fatal("bus names")
	}
	if TimingEvent.String() != "timing" || DataReceivedEvent.String() != "data-received" {
		t.Fatal("event kind names")
	}
	if PreCompile.String() != "pre-compile" || PostBuild.String() != "post-build" {
		t.Fatal("config class names")
	}
}
