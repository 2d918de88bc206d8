package exec

import (
	"testing"

	"cgraph/algo"
	"cgraph/internal/testutil"
	"cgraph/model"
)

// warmedPageRank returns a multi-partition PageRank job a few iterations in,
// far from convergence, with sc and the job's Push buffers at full size.
func warmedPageRank(t *testing.T, sc *Scratch) *Job {
	t.Helper()
	testutil.SkipUnderRace(t)
	edges, n := testGraph(31)
	j := NewJob(0, &algo.PageRank{Damping: 0.85, Epsilon: 1e-13}, buildPG(t, edges, n, 8))
	for it := 0; it < 3; it++ {
		for pid := range j.PG.Parts {
			j.ProcessPartition(pid, sc)
		}
		j.FinishIteration()
	}
	return j
}

// TestPushAllocatesNothing: a steady-state iteration — serial sweep, merge,
// Push, advance — allocates nothing, and neither does Push on its own.
func TestPushAllocatesNothing(t *testing.T) {
	sc := &Scratch{}
	j := warmedPageRank(t, sc)
	var entries int64
	iter := testing.AllocsPerRun(10, func() {
		for pid := range j.PG.Parts {
			j.ProcessPartition(pid, sc)
		}
		entries += j.FinishIteration().Entries
	})
	if j.Done || entries == 0 {
		t.Fatalf("setup: done=%v entries=%d; the guard must measure working pushes", j.Done, entries)
	}
	if iter != 0 {
		t.Fatalf("steady-state iteration allocates %v times, want 0", iter)
	}
	for pid := range j.PG.Parts {
		j.ProcessPartition(pid, sc)
	}
	if push := testing.AllocsPerRun(1, func() { j.Push() }); push != 0 {
		t.Fatalf("Push allocates %v times, want 0", push)
	}
}

// TestApplyRangeAllocations: a warmed scratch absorbs a range with no
// allocation; a zero scratch grows each of its two arrays once, to the
// range's weight, never by doubling.
func TestApplyRangeAllocations(t *testing.T) {
	j := warmedPageRank(t, &Scratch{})
	pid := 0
	r := j.SliceActive(pid, 1<<62, nil)[0]
	// ApplyRange consumes the vertices' deltas, so every measured call
	// needs its own copy of the partition's states.
	saved := append([]model.State(nil), j.PT.States[pid]...)
	measure := func(sc func() *Scratch) float64 {
		return testing.AllocsPerRun(5, func() {
			copy(j.PT.States[pid], saved)
			j.ApplyRange(pid, r, sc())
		})
	}
	warm := &Scratch{}
	if got := measure(func() *Scratch { warm.Reset(); return warm }); got != 0 {
		t.Fatalf("ApplyRange into a warmed scratch allocates %v times, want 0", got)
	}
	var fresh Scratch
	if got := measure(func() *Scratch { fresh = Scratch{}; return &fresh }); got > 2 {
		t.Fatalf("ApplyRange into a zero scratch allocates %v times, want <= 2", got)
	}
	if fresh.Len() == 0 || int64(cap(fresh.dst)) < r.Weight {
		t.Fatalf("setup: buffered %d contributions, cap %d, weight %d", fresh.Len(), cap(fresh.dst), r.Weight)
	}
}

// TestSweepAllocatesNothing: a whole sweep keeps one pair per scattering
// vertex, so a warmed scratch absorbs it with no allocation and a zero
// scratch grows each of its two arrays once, to the partition's active count.
func TestSweepAllocatesNothing(t *testing.T) {
	j := warmedPageRank(t, &Scratch{})
	pid := 0
	// Sweep consumes the vertices' deltas and folds into their neighbours',
	// so every measured call needs its own copy of the partition's states.
	saved := append([]model.State(nil), j.PT.States[pid]...)
	var edges int64
	measure := func(sc func() *Scratch) float64 {
		return testing.AllocsPerRun(5, func() {
			copy(j.PT.States[pid], saved)
			edges += j.Sweep(pid, sc()).Edges
		})
	}
	warm := &Scratch{}
	if got := measure(func() *Scratch { return warm }); got != 0 {
		t.Fatalf("Sweep with a warmed scratch allocates %v times, want 0", got)
	}
	var fresh Scratch
	if got := measure(func() *Scratch { fresh = Scratch{}; return &fresh }); got > 2 {
		t.Fatalf("Sweep with a zero scratch allocates %v times, want <= 2", got)
	}
	if edges == 0 || fresh.Len() == 0 || fresh.Len() > j.PT.ActiveCount[pid] {
		t.Fatalf("setup: %d edges swept, %d pairs kept for %d active vertices", edges, fresh.Len(), j.PT.ActiveCount[pid])
	}
}
