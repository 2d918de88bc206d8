package core

import (
	"runtime"
	"sync"
	"testing"

	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/internal/testutil"
)

// denseMixRounds runs batch_dense's four sum programs at toy size, round by
// round, and returns the bytes each round allocated and the (job, partition)
// sweeps it triggered.
func denseMixRounds(t *testing.T) (bytes []uint64, sweeps []int) {
	t.Helper()
	edges := gen.RMAT(77, 512, 16384, 0.57, 0.19, 0.19)
	e := NewSingle(Config{Workers: 2}, buildPG(t, edges, 512, 8, false))
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

// stockGoroutines parks n goroutines at once, then lets them all exit, so
// that the runtime's free lists of goroutine descriptors hold n between them.
// A pool worker's descriptor is freed onto the list of the P it exited on,
// while the round loop spawns the next workers from whichever P it woke up
// on; until those lists fill, a process keeps allocating descriptors at
// random, a few kB per run of two pool runs a round — bytes that follow the
// scheduler, not the engine.
func stockGoroutines(n int) {
	var wg sync.WaitGroup
	release := make(chan struct{})
	wg.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			<-release
		}()
	}
	close(release)
	wg.Wait()
}

// TestRoundAllocationBudget: once the first round has sized the engine's
// slabs and the workers' scratches, a round's allocation is its plan and its
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
	// The run above also absorbed the process's one-time costs, and
	// stockGoroutines the runtime's; the next runs are like any later batch.
	// Each total is the least of three runs: when a pool.Run starts before
	// the previous one's workers have been recycled, the runtime allocates
	// fresh goroutine descriptors (~5 kB a run, one run in ten on a busy
	// box), which is the scheduler's doing and not the engine's.
	stockGoroutines(256)
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
