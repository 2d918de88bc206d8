package trace

import (
	"testing"
	"time"
)

func round(n int64, jobs ...int) Round {
	rd := Round{Round: n, Wall: time.Millisecond, Units: 3}
	for _, j := range jobs {
		rd.Jobs = append(rd.Jobs, JobRound{JobID: j, Round: n, Parts: 1, Pushes: 1})
	}
	return rd
}

func TestNewDisabled(t *testing.T) {
	if New(0) != nil || New(-3) != nil {
		t.Fatal("New with depth <= 0 must return nil (tracing disabled)")
	}
}

func TestRoundRingBounded(t *testing.T) {
	r := New(3)
	for i := int64(1); i <= 5; i++ {
		r.RecordRound(round(i, 7))
	}
	got := r.Rounds(0)
	if len(got) != 3 {
		t.Fatalf("%d rounds retained, want 3", len(got))
	}
	// Oldest first, trimmed off the front.
	for i, want := range []int64{3, 4, 5} {
		if got[i].Round != want {
			t.Fatalf("rounds = %v, want indices [3 4 5]", got)
		}
	}
	// Limit returns the newest n, still oldest-first.
	if lim := r.Rounds(2); len(lim) != 2 || lim[0].Round != 4 || lim[1].Round != 5 {
		t.Fatalf("Rounds(2) = %+v, want rounds 4,5", lim)
	}
}
