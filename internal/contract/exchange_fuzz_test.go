package contract

import (
	"bytes"
	"testing"
)

// FuzzImport holds the contract catalogue importer, an input boundary, to
// three properties: any bytes give a catalogue or an error, never a
// panic; an accepted input followed by '{' is rejected (only whitespace
// may follow the catalogue); and a catalogue it accepts exports to a
// document that imports again to the same export. The committed corpus
// holds an export of E6's 16-chain catalogue (testdata/fuzz/FuzzImport:
// 16 sensor guarantees with CPU budgets, 16 controller assumptions, one
// seeded incompatibility); a seed without "formatVersion":1 would never
// get past the version check.
func FuzzImport(f *testing.F) {
	var buf bytes.Buffer
	if err := Export(&buf, map[string]*Contract{"Sensor": sensorContract(), "Ctrl": ctrlContract()}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"formatVersion":1,"contracts":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cat, err := Import(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := Import(bytes.NewReader(append(data[:len(data):len(data)], '{'))); err == nil {
			t.Fatalf("accepted input followed by '{' imports")
		}
		var first, second bytes.Buffer
		if err := Export(&first, cat); err != nil {
			t.Fatalf("export of an imported catalogue: %v", err)
		}
		again, err := Import(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("export of an imported catalogue does not import: %v\n%s", err, first.Bytes())
		}
		if err := Export(&second, again); err != nil {
			t.Fatalf("export of a re-imported catalogue: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export changes across a re-import\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
