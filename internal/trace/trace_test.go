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

	// The job timeline trims the same way and counts what it dropped.
	tl, ok := r.Job(7)
	if !ok {
		t.Fatal("job 7 timeline missing")
	}
	if len(tl.Rounds) != 3 || tl.Dropped != 2 || tl.State != "" {
		t.Fatalf("timeline = %+v, want 3 rounds, 2 dropped, live", tl)
	}
}

func TestRetire(t *testing.T) {
	r := New(4)
	r.RecordRound(round(1, 1, 2))
	r.RecordRound(round(2, 1))
	r.Retire(1, "done")

	tl, ok := r.Job(1)
	if !ok || tl.State != "done" || len(tl.Rounds) != 2 {
		t.Fatalf("retired timeline = %+v, ok=%v", tl, ok)
	}
	// Job 2 is still live.
	if tl2, ok := r.Job(2); !ok || tl2.State != "" || len(tl2.Rounds) != 1 {
		t.Fatalf("live timeline = %+v, ok=%v", tl2, ok)
	}
	// Never-traced jobs still get a terminal marker.
	r.Retire(99, "cancelled")
	if tl99, ok := r.Job(99); !ok || tl99.State != "cancelled" || len(tl99.Rounds) != 0 {
		t.Fatalf("untraced retire = %+v, ok=%v", tl99, ok)
	}
	// A round arriving after Retire folds into the retained timeline; a
	// repeat Retire restamps the state without dropping those rounds.
	r.RecordRound(round(3, 1))
	r.Retire(1, "failed")
	if tl, _ := r.Job(1); tl.State != "failed" || len(tl.Rounds) != 3 {
		t.Fatalf("re-retired timeline = %+v", tl)
	}
	if _, ok := r.Job(5); ok {
		t.Fatal("unknown job must not resolve")
	}
}

// TestFinalRoundAfterRetire mirrors the engine's ordering: a job's
// completion is detected mid-round (Retire), then the round record is cut
// (RecordRound). The final round must fold into the retained timeline, not
// resurrect a live one that shadows the history.
func TestFinalRoundAfterRetire(t *testing.T) {
	r := New(8)
	r.RecordRound(round(1, 1))
	r.RecordRound(round(2, 1))
	r.Retire(1, "done")
	r.RecordRound(round(3, 1)) // the round the job finished in

	tl, ok := r.Job(1)
	if !ok || tl.State != "done" {
		t.Fatalf("timeline = %+v, ok=%v", tl, ok)
	}
	if len(tl.Rounds) != 3 || tl.Rounds[2].Round != 3 {
		t.Fatalf("rounds = %+v, want 1..3 on the retired timeline", tl.Rounds)
	}
}

func TestRetiredRingBounded(t *testing.T) {
	r := New(2)
	for id := 1; id <= 4; id++ {
		r.RecordRound(round(int64(id), id))
		r.Retire(id, "done")
	}
	// Only the 2 most recent terminal timelines survive.
	for id := 1; id <= 2; id++ {
		if _, ok := r.Job(id); ok {
			t.Fatalf("job %d should have been evicted from the retired ring", id)
		}
	}
	for id := 3; id <= 4; id++ {
		if tl, ok := r.Job(id); !ok || tl.State != "done" {
			t.Fatalf("job %d missing from retired ring (%+v, %v)", id, tl, ok)
		}
	}
}
