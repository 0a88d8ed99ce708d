//go:build !race

// Package racegate reports whether the binary was built with the race
// detector. Timing and allocation gates skip under -race: its
// instrumentation swamps nanosecond-scale differences and allocates on
// paths that are allocation-free in a plain build.
package racegate

// Enabled reports whether the race detector is compiled in.
const Enabled = false
