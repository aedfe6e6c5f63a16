package contract

import (
	"bytes"
	"strings"
	"testing"

	"autorte/internal/model"
	"autorte/internal/sim"
)

func sensorContract() *Contract {
	return &Contract{
		Component: "Sensor",
		Guarantees: []Condition{
			{Kind: ValueRange, Port: "out", Elem: "v", Lo: 0, Hi: 300},
			{Kind: UpdateRate, Port: "out", Elem: "v", Lo: float64(sim.MS(9)), Hi: float64(sim.MS(11))},
		},
		Vertical: []VerticalAssumption{
			{Resource: "cpu", Budget: float64(sim.US(50)), Confidence: 0.9},
		},
	}
}

func ctrlContract() *Contract {
	return &Contract{
		Component: "Ctrl",
		Assumes: []Condition{
			{Kind: ValueRange, Port: "in", Elem: "v", Lo: 0, Hi: 400},
			{Kind: UpdateRate, Port: "in", Elem: "v", Lo: float64(sim.MS(5)), Hi: float64(sim.MS(20))},
		},
		Guarantees: []Condition{
			{Kind: Latency, Port: "in", Elem: "cmd", Hi: float64(sim.MS(2))},
		},
		Vertical: []VerticalAssumption{
			{Resource: "cpu", Budget: float64(sim.US(200)), Confidence: 0.8},
		},
	}
}

func TestCompatibleOK(t *testing.T) {
	if err := Compatible(sensorContract(), "out", ctrlContract(), "in"); err != nil {
		t.Fatal(err)
	}
}

func TestCompatibleValueRangeViolation(t *testing.T) {
	cons := ctrlContract()
	cons.Assumes[0].Hi = 200 // consumer needs tighter range than guaranteed
	err := Compatible(sensorContract(), "out", cons, "in")
	if err == nil || !strings.Contains(err.Error(), "assumes") {
		t.Fatalf("range violation not caught: %v", err)
	}
}

func TestCompatibleRateViolation(t *testing.T) {
	cons := ctrlContract()
	cons.Assumes[1].Hi = float64(sim.MS(10)) // needs updates at least every 10ms; sensor may take 11
	if Compatible(sensorContract(), "out", cons, "in") == nil {
		t.Fatal("rate violation not caught")
	}
}

func TestCompatibleMissingGuarantee(t *testing.T) {
	prov := sensorContract()
	prov.Guarantees = prov.Guarantees[:1] // drop the rate guarantee
	if Compatible(prov, "out", ctrlContract(), "in") == nil {
		t.Fatal("missing guarantee not caught")
	}
}

func TestDominance(t *testing.T) {
	abstract := sensorContract()
	// A refined sensor: guarantees a tighter range at the same rate, and
	// assumes nothing new.
	refined := &Contract{
		Component: "SensorV2",
		Guarantees: []Condition{
			{Kind: ValueRange, Port: "out", Elem: "v", Lo: 0, Hi: 250},
			{Kind: UpdateRate, Port: "out", Elem: "v", Lo: float64(sim.MS(9)), Hi: float64(sim.MS(10))},
		},
	}
	if err := Dominates(refined, abstract); err != nil {
		t.Fatalf("valid refinement rejected: %v", err)
	}
	// A "refinement" that weakens the guarantee must fail.
	worse := &Contract{
		Component: "SensorCheap",
		Guarantees: []Condition{
			{Kind: ValueRange, Port: "out", Elem: "v", Lo: 0, Hi: 500},
			{Kind: UpdateRate, Port: "out", Elem: "v", Lo: float64(sim.MS(9)), Hi: float64(sim.MS(11))},
		},
	}
	if Dominates(worse, abstract) == nil {
		t.Fatal("weaker guarantee accepted as refinement")
	}
	// A refinement that assumes more must fail.
	needy := &Contract{
		Component:  "SensorNeedy",
		Assumes:    []Condition{{Kind: ValueRange, Port: "pwr", Elem: "volt", Lo: 11, Hi: 13}},
		Guarantees: abstract.Guarantees,
	}
	if Dominates(needy, abstract) == nil {
		t.Fatal("stronger assumption accepted as refinement")
	}
}

func TestDominanceReflexive(t *testing.T) {
	c := sensorContract()
	if err := Dominates(c, c); err != nil {
		t.Fatalf("contract does not dominate itself: %v", err)
	}
}

func TestValidation(t *testing.T) {
	c := sensorContract()
	c.Component = ""
	if c.Validate() == nil {
		t.Fatal("empty component accepted")
	}
	c = sensorContract()
	c.Guarantees[0].Hi = -1
	if c.Validate() == nil {
		t.Fatal("inverted interval accepted")
	}
	c = sensorContract()
	c.Vertical[0].Confidence = 1.5
	if c.Validate() == nil {
		t.Fatal("confidence > 1 accepted")
	}
}

func TestConfidence(t *testing.T) {
	c := ctrlContract()
	if c.Confidence() != 0.8 {
		t.Fatalf("confidence %v, want 0.8", c.Confidence())
	}
	c.Vertical = nil
	if c.Confidence() != 1 {
		t.Fatal("no vertical assumptions should give confidence 1")
	}
}

func minimalSystem() *model.System {
	pi := &model.PortInterface{
		Name: "If", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
	}
	mk := func(name string, dir model.PortDirection, port string) *model.SWC {
		return &model.SWC{
			Name:  name,
			Ports: []model.Port{{Name: port, Direction: dir, Interface: pi}},
			Runnables: []model.Runnable{{
				Name: "r", WCETNominal: sim.US(10),
				Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
			}},
		}
	}
	sensor := mk("Sensor", model.Provided, "out")
	ctrl := &model.SWC{
		Name: "Ctrl",
		Ports: []model.Port{
			{Name: "in", Direction: model.Required, Interface: pi},
			{Name: "cmd", Direction: model.Provided, Interface: pi},
		},
		Runnables: []model.Runnable{{
			Name: "r", WCETNominal: sim.US(10),
			Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
		}},
	}
	act := mk("Act", model.Required, "in")
	return &model.System{
		Name:       "s",
		Interfaces: []*model.PortInterface{pi},
		Components: []*model.SWC{sensor, ctrl, act},
		ECUs:       []*model.ECU{{Name: "e1", Speed: 1}},
		Connectors: []model.Connector{
			{FromSWC: "Sensor", FromPort: "out", ToSWC: "Ctrl", ToPort: "in"},
			{FromSWC: "Ctrl", FromPort: "cmd", ToSWC: "Act", ToPort: "in"},
		},
		Constraints: []model.LatencyConstraint{{
			Name:   "e2e",
			Chain:  []model.PortRef2{{SWC: "Sensor", Port: "out"}, {SWC: "Ctrl", Port: "in"}, {SWC: "Ctrl", Port: "cmd"}, {SWC: "Act", Port: "in"}},
			Budget: sim.MS(10),
		}},
	}
}

func TestCheckSystem(t *testing.T) {
	sys := minimalSystem()
	contracts := map[string]*Contract{
		"Sensor": sensorContract(),
		"Ctrl":   ctrlContract(),
	}
	rep, err := CheckSystem(sys, contracts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 1 || rep.Skipped != 1 {
		t.Fatalf("checked %d skipped %d, want 1/1 (Act has no contract)", rep.Checked, rep.Skipped)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Confidence != 0.8 {
		t.Fatalf("confidence %v, want min 0.8", rep.Confidence)
	}
	// Break compatibility and re-check.
	contracts["Ctrl"].Assumes[0].Hi = 100
	rep, _ = CheckSystem(sys, contracts)
	if rep.OK() {
		t.Fatal("violation not reported")
	}
}

func TestConditionKindString(t *testing.T) {
	if ValueRange.String() != "value-range" || UpdateRate.String() != "update-rate" || Latency.String() != "latency" {
		t.Fatal("kind names")
	}
}

func TestExchangeRoundTrip(t *testing.T) {
	in := map[string]*Contract{
		"Sensor": sensorContract(),
		"Ctrl":   ctrlContract(),
	}
	var buf bytes.Buffer
	if err := Export(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("contracts = %d, want 2", len(out))
	}
	got := out["Sensor"]
	want := in["Sensor"]
	if len(got.Guarantees) != len(want.Guarantees) || got.Guarantees[0] != want.Guarantees[0] {
		t.Fatalf("guarantees lost: %+v", got.Guarantees)
	}
	if got.Vertical[0] != want.Vertical[0] {
		t.Fatalf("vertical assumptions lost: %+v", got.Vertical)
	}
	// Compatibility must survive the round trip.
	if err := Compatible(out["Sensor"], "out", out["Ctrl"], "in"); err != nil {
		t.Fatal(err)
	}
}

func TestImportRejectsBadCatalogue(t *testing.T) {
	for _, doc := range []string{
		`{"formatVersion":9,"contracts":[]}`,
		`{"formatVersion":1,"contracts":[{"component":"a","assumes":[{"kind":"psychic","port":"p","lo":0,"hi":1}]}]}`,
		`{"formatVersion":1,"contracts":[{"component":"a"},{"component":"a"}]}`,
		`{"formatVersion":1,"contracts":[{"component":"a","vertical":[{"Resource":"cpu","Budget":1,"Confidence":7}]}]}`,
		`{"formatVersion":1,"bogus":1,"contracts":[]}`,
	} {
		if _, err := Import(strings.NewReader(doc)); err == nil {
			t.Errorf("bad catalogue accepted: %s", doc[:40])
		}
	}
}

// TestImportRejectsTrailingData: after the catalogue only whitespace may
// follow. A decoder's More alone would let a stray '}' or ']' through.
func TestImportRejectsTrailingData(t *testing.T) {
	const doc = `{"formatVersion":1,"contracts":[]}`
	for _, tc := range []struct {
		tail string
		ok   bool
	}{
		{"", true},
		{"\n\t \n", true},
		{" {", false},
		{"}", false},
		{"]", false},
		{" trailing garbage {", false},
		{doc, false},
	} {
		_, err := Import(strings.NewReader(doc + tc.tail))
		if (err == nil) != tc.ok {
			t.Errorf("tail %q: err = %v, want accepted %v", tc.tail, err, tc.ok)
		}
	}
}

// With several invalid contracts, the reported error must not depend on
// map iteration order: the alphabetically first invalid contract wins.
func TestCheckSystemDeterministicError(t *testing.T) {
	sys := minimalSystem()
	bad := func(comp string) *Contract {
		return &Contract{
			Component: comp,
			Assumes:   []Condition{{Kind: ValueRange, Port: "in", Elem: "v", Lo: 10, Hi: 0}},
		}
	}
	contracts := map[string]*Contract{
		"Sensor": bad("Sensor"),
		"Ctrl":   bad("Ctrl"),
	}
	_, err := CheckSystem(sys, contracts)
	if err == nil {
		t.Fatal("invalid contracts accepted")
	}
	first := err.Error()
	if !strings.Contains(first, "Ctrl") {
		t.Fatalf("error %q does not name Ctrl, the first invalid contract in name order", first)
	}
	for i := 0; i < 10; i++ {
		_, err := CheckSystem(sys, contracts)
		if err == nil || err.Error() != first {
			t.Fatalf("run %d reported %v, first run reported %q", i, err, first)
		}
	}
}
