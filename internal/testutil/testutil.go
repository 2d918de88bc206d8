// Package testutil holds small helpers shared by the repo's test suites.
package testutil

import (
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

// SkipUnderRace skips an allocation-count guard when the race detector is
// compiled in: its instrumentation allocates, so the counts mean nothing.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}
