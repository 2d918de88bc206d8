//go:build race

package testutil

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
