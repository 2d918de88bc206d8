package core

import (
	"runtime"
	"testing"

	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/internal/sched"
	"cgraph/internal/testutil"
)

// denseMixRounds runs batch_dense's four sum programs at toy size, round by
// round, and returns the bytes each round allocated and the (job, partition)
// sweeps it triggered.
func denseMixRounds(t *testing.T) (bytes []uint64, sweeps []int) {
	t.Helper()
	edges := gen.RMAT(77, 512, 16384, 0.57, 0.19, 0.19)
	e := NewSingle(Config{Workers: 2, Scheduler: sched.TwoLevel}, buildPG(t, edges, 512, 8, false))
	e.Submit(algo.NewPageRank(), 0)
	e.Submit(algo.NewPPR(0), 0)
	e.Submit(&algo.PageRank{Damping: 0.7, Epsilon: 1e-3}, 0)
	e.Submit(algo.NewHITS(), 0)
	e.admitPending()
	var m0, m1 runtime.MemStats
	for len(e.jobs) > 0 {
		n := 0
		for _, rj := range e.jobs {
			n += len(rj.PT.ActiveParts())
		}
		runtime.ReadMemStats(&m0)
		e.round()
		runtime.ReadMemStats(&m1)
		bytes = append(bytes, m1.TotalAlloc-m0.TotalAlloc)
		sweeps = append(sweeps, n)
	}
	return bytes, sweeps
}

// TestRoundAllocationBudget: once the first round has sized the engine's
// slabs and the jobs' scratches, a round's allocation is its plan and its
// record — a fixed cost per (job, partition) sweep that no longer grows with
// the edges swept (a fresh scratch per range cost tens of kB per sweep here)
// — and the whole run allocates the same bytes every time, which is what lets
// the benchmark hold alloc_mb_per_op to a 5 % bound.
func TestRoundAllocationBudget(t *testing.T) {
	testutil.SkipUnderRace(t)
	const perSweep = 2 << 10
	bytes, sweeps := denseMixRounds(t)
	if len(bytes) < 10 {
		t.Fatalf("setup: only %d rounds", len(bytes))
	}
	for r, b := range bytes {
		if r > 0 && b > uint64(sweeps[r])*perSweep {
			t.Errorf("round %d allocated %d B over %d sweeps, budget %d B per sweep", r, b, sweeps[r], perSweep)
		}
	}
	// The run above also absorbed the process's one-time costs (the pool
	// workers' first goroutine descriptors); the next ones are like any later
	// batch. Each total is the least of three runs: when a pool.Run starts
	// before the previous one's workers have been recycled, the runtime
	// allocates fresh goroutine descriptors (~5 kB a run, one run in ten on a
	// busy box), which is the scheduler's doing and not the engine's.
	var totals [2]uint64
	for i := range totals {
		for range 3 {
			again, _ := denseMixRounds(t)
			var total uint64
			for _, b := range again {
				total += b
			}
			if totals[i] == 0 || total < totals[i] {
				totals[i] = total
			}
		}
	}
	if diff := max(totals[0], totals[1]) - min(totals[0], totals[1]); diff*100 >= totals[0] {
		t.Fatalf("two identical runs allocated %d and %d B: not within 1 %%", totals[0], totals[1])
	}
}
