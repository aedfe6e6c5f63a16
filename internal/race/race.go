//go:build race

// Package race reports whether the race detector is compiled in. Tests
// that pin allocation counts consult it: under -race, sync.Pool discards
// a share of its Puts on purpose, so pooled paths allocate.
package race

// Enabled is true when built with -race.
const Enabled = true
