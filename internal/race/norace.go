//go:build !race

package race

// Enabled is true when built with -race.
const Enabled = false
