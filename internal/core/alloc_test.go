package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/internal/memsim"
	"cgraph/internal/testutil"
	"cgraph/model"
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
// slabs, the workers' scratches and the plan path's buffers, a round
// allocates little beyond the pool's worker launches — nothing that grows
// with the edges swept (a fresh scratch per range cost tens of kB per sweep
// here) or with the plan (footprints, units and record cost ~110 B per sweep
// before they were reused) — and the whole run allocates the same bytes
// every time, which is what lets the benchmark hold alloc_mb_per_op to a 5 %
// bound.
func TestRoundAllocationBudget(t *testing.T) {
	testutil.SkipUnderRace(t)
	const perSweep = 128
	// The first run absorbs the process's one-time costs, and
	// stockGoroutines the runtime's; the next runs are like any later batch.
	// Each total is the least of three runs, and each round's bytes the
	// least of all six: when a pool.Run starts before the previous one's
	// workers have been recycled, the runtime allocates fresh goroutine
	// descriptors (~2–5 kB a run, one run in ten on a busy box), which is
	// the scheduler's doing and not the engine's.
	if bytes, _ := denseMixRounds(t); len(bytes) < 10 {
		t.Fatalf("setup: only %d rounds", len(bytes))
	}
	stockGoroutines(256)
	var totals [2]uint64
	var least []uint64
	var sweeps []int
	for i := range totals {
		for range 3 {
			again, sw := denseMixRounds(t)
			if least == nil {
				least, sweeps = slices.Clone(again), sw
			} else if len(again) != len(least) {
				t.Fatalf("identical runs took %d and %d rounds", len(least), len(again))
			}
			var total uint64
			for r, b := range again {
				total += b
				least[r] = min(least[r], b)
			}
			if totals[i] == 0 || total < totals[i] {
				totals[i] = total
			}
		}
	}
	for r, b := range least {
		if r > 0 && b > uint64(sweeps[r])*perSweep {
			t.Errorf("round %d allocated %d B over %d sweeps, budget %d B per sweep", r, b, sweeps[r], perSweep)
		}
	}
	if diff := max(totals[0], totals[1]) - min(totals[0], totals[1]); diff*100 >= totals[0] {
		t.Fatalf("two identical runs allocated %d and %d B: not within 1 %%", totals[0], totals[1])
	}
}

// latticeEdges is a side x side 4-neighbour grid in row-major vertex order,
// both directions of every link, with weights cycling through 1..7.
func latticeEdges(side int) []model.Edge {
	var edges []model.Edge
	link := func(a, b int) {
		w := float32(1 + len(edges)/2%7)
		edges = append(edges,
			model.Edge{Src: model.VertexID(a), Dst: model.VertexID(b), Weight: w},
			model.Edge{Src: model.VertexID(b), Dst: model.VertexID(a), Weight: w})
	}
	for r := range side {
		for c := range side {
			if c+1 < side {
				link(r*side+c, r*side+c+1)
			}
			if r+1 < side {
				link(r*side+c, (r+1)*side+c)
			}
		}
	}
	return edges
}

// frontierMixRounds runs batch_frontier's eight traversals at toy size on
// one engine, twice, and returns the bytes each round of the second batch
// allocated. The first batch sizes the engine's slabs, the workers'
// scratches and the scheduler's plan buffers for this lattice.
//
// The simulated cache holds no item (CacheBytes 1): memsim keeps an entry
// per (job, partition) it has seen, made the first time the job loads the
// partition, and its maps grow with every job the engine ever ran. Those are
// the cost model's bytes, not the round's, and this test is about the round.
func frontierMixRounds(t *testing.T, side, parts int) []uint64 {
	t.Helper()
	hier := memsim.New(memsim.Config{CacheBytes: 1, Cost: memsim.DefaultCost()})
	e := NewSingle(Config{Workers: 2, Hier: hier}, buildPG(t, latticeEdges(side), side*side, parts, false))
	at := func(r, c int) model.VertexID { return model.VertexID(r*side + c) }
	last, mid := side-1, side/2
	submit := func() {
		for _, p := range []model.Program{
			algo.NewBFS(at(0, 0)), algo.NewBFS(at(last, last)), algo.NewBFS(at(0, last)), algo.NewBFS(at(mid, mid)),
			algo.NewSSSP(at(last, 0)), algo.NewSSSP(at(0, mid)), algo.NewSSSP(at(mid, 0)),
			algo.NewSSWP(at(last, mid)),
		} {
			e.Submit(p, 0)
		}
		e.admitPending()
	}
	submit()
	for len(e.jobs) > 0 {
		e.round()
	}
	submit()
	var bytes []uint64
	var m0, m1 runtime.MemStats
	for len(e.jobs) > 0 {
		runtime.ReadMemStats(&m0)
		e.round()
		runtime.ReadMemStats(&m1)
		bytes = append(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	return bytes
}

// TestFrontierRoundAllocationBudget: on a warmed-up engine, a round of eight
// traversals with tiny frontiers allocates under a fixed budget, the same at
// 8 and at 32 partitions. The plan path — footprints, the scheduler's units
// and plan, the SchedInfo record — reuses its buffers, so what a round still
// allocates is the jobs' own state the first time they reach a partition.
// The round that admits the jobs is excluded: it sizes their per-job tables.
// Each round's figure is the least of three runs, so that a runtime
// allocation landing in one run's window does not count against the engine.
func TestFrontierRoundAllocationBudget(t *testing.T) {
	testutil.SkipUnderRace(t)
	const budget = 2 << 10
	for _, parts := range []int{8, 32} {
		var least []uint64
		for range 3 {
			bytes := frontierMixRounds(t, 24, parts)
			if least == nil {
				least = bytes
				continue
			}
			if len(bytes) != len(least) {
				t.Fatalf("%d partitions: runs took %d and %d rounds", parts, len(least), len(bytes))
			}
			for r, b := range bytes {
				least[r] = min(least[r], b)
			}
		}
		if len(least) < 20 {
			t.Fatalf("setup: %d partitions ran only %d rounds", parts, len(least))
		}
		for r, b := range least[1:] {
			if b > budget {
				t.Errorf("%d partitions: round %d allocated %d B, budget %d B", parts, r+1, b, budget)
			}
		}
	}
}
