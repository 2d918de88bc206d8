// Package testutil holds small helpers shared by the repo's test suites.
package testutil

import (
	"math"
	"testing"
	"time"
)

// WaitFor polls cond every millisecond until it reports true, failing
// the test with the formatted message if timeout elapses first. It
// replaces the ad-hoc deadline-poll loops that used to be copied between
// test files: one shared implementation, one flake surface.
//
// cond runs on the polling goroutine; it may itself t.Fatalf on states
// that can never satisfy the wait (e.g. a job landing terminal while the
// test waits for running).
func WaitFor(t *testing.T, timeout time.Duration, cond func() bool, format string, args ...any) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf(format, args...)
		}
		time.Sleep(time.Millisecond)
	}
}

// SkipUnderRace skips a test when the race detector is compiled in: an
// allocation-count guard, whose counts the instrumentation inflates, or a
// single-goroutine golden run that the detector only slows down.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	if raceEnabled {
		t.Skip("not meaningful under the race detector")
	}
}

// SameFloat reports whether a and b are the same bits, or both NaN: what
// "bit-identical" can mean for two correct float computations. A NaN's
// payload is not part of any result, and it is the one thing two correct
// loops may disagree on — x86 hands back the first operand's payload when
// both operands are NaN, and which operand of a + b comes first is the
// compiler's choice, loop by loop and build mode by build mode.
func SameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}
