//go:build race

package racegate

// Enabled reports whether the race detector is compiled in.
const Enabled = true
