package model

import (
	"bytes"
	"strings"
	"testing"
)

func TestExportImportRoundTrip(t *testing.T) {
	s := testSystem()
	var buf bytes.Buffer
	if err := Export(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name {
		t.Errorf("name %q != %q", got.Name, s.Name)
	}
	if len(got.Components) != len(s.Components) || len(got.ECUs) != len(s.ECUs) ||
		len(got.Buses) != len(s.Buses) || len(got.Connectors) != len(s.Connectors) {
		t.Fatal("structure counts differ after round trip")
	}
	gc := got.Component("WheelSensor")
	sc := s.Component("WheelSensor")
	if gc == nil {
		t.Fatal("WheelSensor lost in round trip")
	}
	if gc.Runnables[0].WCETNominal != sc.Runnables[0].WCETNominal {
		t.Errorf("WCET %v != %v", gc.Runnables[0].WCETNominal, sc.Runnables[0].WCETNominal)
	}
	if gc.Runnables[0].Trigger.Period != sc.Runnables[0].Trigger.Period {
		t.Errorf("period changed in round trip")
	}
	if gc.ASIL != ASILD || gc.Supplier != "TierA" {
		t.Errorf("metadata lost: %+v", gc)
	}
	if got.Mapping["BrakeCtrl"] != "ecu2" {
		t.Errorf("mapping lost")
	}
	if len(got.Constraints) != 1 || got.Constraints[0].Budget != s.Constraints[0].Budget {
		t.Errorf("constraints lost")
	}
	// Interfaces must be shared, not duplicated per port.
	if gc.Ports[0].Interface != got.Interfaces[0] {
		t.Error("port interface not resolved to catalogue entry")
	}
}

func TestImportRejectsUnknownInterface(t *testing.T) {
	doc := `{"formatVersion":1,"system":"s","interfaces":[],"components":[
		{"name":"c","ports":[{"name":"p","direction":"provided","interface":"ghost"}],
		 "runnables":[{"name":"r","wcetUs":10,"trigger":{"kind":"timing","periodUs":1000}}]}],
		"ecus":[],"buses":[],"connectors":[]}`
	_, err := Import(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "unknown interface") {
		t.Fatalf("err = %v, want unknown interface", err)
	}
}

func TestImportRejectsBadVersion(t *testing.T) {
	doc := `{"formatVersion":99,"system":"s","interfaces":[],"components":[],"ecus":[],"buses":[],"connectors":[]}`
	if _, err := Import(strings.NewReader(doc)); err == nil {
		t.Fatal("wrong format version accepted")
	}
}

func TestImportRejectsUnknownFields(t *testing.T) {
	doc := `{"formatVersion":1,"system":"s","bogus":true,"interfaces":[],"components":[],"ecus":[],"buses":[],"connectors":[]}`
	if _, err := Import(strings.NewReader(doc)); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
}

func TestImportValidatesSemantics(t *testing.T) {
	// A structurally parseable but semantically invalid doc (connector to
	// a missing component) must be rejected by validation.
	s := testSystem()
	var buf bytes.Buffer
	if err := Export(&buf, s); err != nil {
		t.Fatal(err)
	}
	broken := strings.Replace(buf.String(), `"BrakeCtrl"`, `"Ghost"`, 1)
	if _, err := Import(strings.NewReader(broken)); err == nil {
		t.Fatal("semantically invalid import accepted")
	}
}

func TestImportRejectsBadEnums(t *testing.T) {
	for _, doc := range []string{
		`{"formatVersion":1,"system":"s","interfaces":[{"name":"i","kind":"mystery","elements":[{"Name":"a","Type":{"Name":"UInt8","Bits":8},"Queued":false}]}],"components":[],"ecus":[],"buses":[],"connectors":[]}`,
		`{"formatVersion":1,"system":"s","interfaces":[],"components":[{"name":"c","asil":"ASIL-Z","runnables":[{"name":"r","wcetUs":1,"trigger":{"kind":"timing","periodUs":100}}]}],"ecus":[],"buses":[],"connectors":[]}`,
		`{"formatVersion":1,"system":"s","interfaces":[],"components":[{"name":"c","runnables":[{"name":"r","wcetUs":1,"trigger":{"kind":"psychic","periodUs":100}}]}],"ecus":[],"buses":[],"connectors":[]}`,
	} {
		if _, err := Import(strings.NewReader(doc)); err == nil {
			t.Fatalf("bad enum accepted in %s", doc[:60])
		}
	}
}

// TestImportRejectsTrailingData: after the document only whitespace may
// follow. A decoder's More alone would let a stray '}' or ']' through.
func TestImportRejectsTrailingData(t *testing.T) {
	const doc = `{"formatVersion":1,"system":"s","interfaces":[],"components":[],"ecus":[],"buses":[],"connectors":[]}`
	for _, tc := range []struct {
		tail string
		ok   bool
	}{
		{"", true},
		{"\n\t \n", true},
		{" {", false},
		{"}", false},
		{"]", false},
		{" trailing garbage", false},
		{doc, false},
	} {
		_, err := Import(strings.NewReader(doc + tc.tail))
		if (err == nil) != tc.ok {
			t.Errorf("tail %q: err = %v, want accepted %v", tc.tail, err, tc.ok)
		}
	}
}
