package model

import (
	"bytes"
	"testing"
)

// FuzzImport holds the template importer, an input boundary, to three
// properties: any bytes give a system or an error, never a panic; an
// accepted input followed by '{' is rejected (only whitespace may follow
// the document); and a system it accepts exports to a document that
// imports again to the same export. The committed corpus holds an export
// of a generated scale-1 vehicle (testdata/fuzz/FuzzImport); a seed
// without "formatVersion":1 would never get past the version check.
func FuzzImport(f *testing.F) {
	var buf bytes.Buffer
	if err := Export(&buf, testSystem()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"formatVersion":1,"system":"s","interfaces":[],"components":[],"ecus":[],"buses":[],"connectors":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := Import(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := Import(bytes.NewReader(append(data[:len(data):len(data)], '{'))); err == nil {
			t.Fatalf("accepted input followed by '{' imports")
		}
		var first, second bytes.Buffer
		if err := Export(&first, sys); err != nil {
			t.Fatalf("export of an imported system: %v", err)
		}
		again, err := Import(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("export of an imported system does not import: %v\n%s", err, first.Bytes())
		}
		if err := Export(&second, again); err != nil {
			t.Fatalf("export of a re-imported system: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export changes across a re-import\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
