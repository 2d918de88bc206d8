package baseline

import (
	"math"
	"testing"

	"cgraph/algo"
	"cgraph/internal/core"
	"cgraph/internal/exec"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/memsim"
	"cgraph/internal/refimpl"
	"cgraph/internal/storage"
	"cgraph/model"
)

func buildStore(t testing.TB, edges []model.Edge, n, parts int) *storage.SnapshotStore {
	t.Helper()
	g := graph.Build(n, edges)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	return storage.NewSnapshotStore(pg, 0)
}

func smallHier() *memsim.Hierarchy {
	return memsim.New(memsim.Config{CacheBytes: 128 << 10, MemoryBytes: 0, Cost: memsim.DefaultCost()})
}

func fourSpecs() []JobSpec {
	return []JobSpec{
		{Prog: &algo.PageRank{Damping: 0.85, Epsilon: 1e-6}},
		{Prog: algo.NewSSSP(0)},
		{Prog: algo.NewSCC()},
		{Prog: algo.NewBFS(0)},
	}
}

func TestAllSystemsComputeCorrectResults(t *testing.T) {
	edges := gen.RMAT(31, 300, 6000, 0.57, 0.19, 0.19)
	for _, sys := range []System{Seraph, SeraphVT, NXgraph, CLIP, Sequential} {
		store := buildStore(t, edges, 300, 6)
		g := graph.Build(300, edges)
		_, jobs, err := Run(Config{System: sys, Workers: 4, Hier: smallHier()}, store, fourSpecs())
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		// SSSP is job 1, BFS job 3.
		wantSS := refimpl.SSSP(g, 0)
		gotSS := jobs[1].Results()
		for v := range gotSS {
			if gotSS[v] != wantSS[v] && !(math.IsInf(gotSS[v], 1) && math.IsInf(wantSS[v], 1)) {
				t.Fatalf("%s: sssp vertex %d: got %v want %v", sys, v, gotSS[v], wantSS[v])
			}
		}
		wantBF := refimpl.BFS(g, 0)
		gotBF := jobs[3].Results()
		for v := range gotBF {
			if gotBF[v] != wantBF[v] && !(math.IsInf(gotBF[v], 1) && math.IsInf(wantBF[v], 1)) {
				t.Fatalf("%s: bfs vertex %d wrong", sys, v)
			}
		}
		// PageRank within epsilon-scaled tolerance.
		wantPR := refimpl.PageRank(g, 0.85, 1e-12, 3000)
		gotPR := jobs[0].Results()
		for v := range gotPR {
			if math.Abs(gotPR[v]-wantPR[v]) > 1e-3 {
				t.Fatalf("%s: pagerank vertex %d: got %v want %v", sys, v, gotPR[v], wantPR[v])
			}
		}
	}
}

func TestClipReentryReducesIterations(t *testing.T) {
	// Reentry compresses long in-partition propagation chains: on a chain
	// graph a whole partition converges per load. (On tiny-diameter R-MAT
	// graphs there is little to compress — that is expected.)
	edges := gen.Chain(2000)
	specs := []JobSpec{{Prog: algo.NewSSSP(0)}}

	store1 := buildStore(t, edges, 2000, 4)
	repSeraph, _, err := Run(Config{System: Seraph, Workers: 4, Hier: smallHier()}, store1, specs)
	if err != nil {
		t.Fatal(err)
	}
	store2 := buildStore(t, edges, 2000, 4)
	repClip, clipJobs, err := Run(Config{System: CLIP, Workers: 4, Hier: smallHier(), ClipMaxPasses: 1 << 20},
		store2, []JobSpec{{Prog: algo.NewSSSP(0)}})
	if err != nil {
		t.Fatal(err)
	}
	if repClip.Jobs[0].Iterations*10 > repSeraph.Jobs[0].Iterations {
		t.Fatalf("CLIP reentry did not cut iterations by >=10x: %d vs %d",
			repClip.Jobs[0].Iterations, repSeraph.Jobs[0].Iterations)
	}
	// And the distances are still exact.
	want := refimpl.SSSP(graph.Build(2000, edges), 0)
	got := clipJobs[0].Results()
	for v := range got {
		if got[v] != want[v] && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("clip chain sssp vertex %d: got %v want %v", v, got[v], want[v])
		}
	}
}

func TestSequentialSlowerThanConcurrent(t *testing.T) {
	// Fig. 2(a): concurrent total (makespan) beats sequential total.
	edges := gen.RMAT(33, 300, 6000, 0.57, 0.19, 0.19)
	storeA := buildStore(t, edges, 300, 6)
	seq, _, err := Run(Config{System: Sequential, Workers: 4, Hier: smallHier()}, storeA, fourSpecs())
	if err != nil {
		t.Fatal(err)
	}
	storeB := buildStore(t, edges, 300, 6)
	conc, _, err := Run(Config{System: Seraph, Workers: 4, Hier: smallHier()}, storeB, fourSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if conc.Makespan >= seq.Makespan {
		t.Fatalf("concurrent makespan %v not better than sequential %v", conc.Makespan, seq.Makespan)
	}
	// Sequential jobs must not overlap.
	for i := 1; i < len(seq.Jobs); i++ {
		if seq.Jobs[i].SubmitAt < seq.Jobs[i-1].FinishAt-1e-9 {
			t.Fatal("sequential jobs overlap")
		}
	}
}

func TestPerJobCopiesCostMoreVolume(t *testing.T) {
	// NXgraph's per-job structure copies must swap more volume into the
	// cache than Seraph's shared copy under the same workload.
	edges := gen.RMAT(34, 300, 6000, 0.57, 0.19, 0.19)
	specs := fourSpecs()

	storeA := buildStore(t, edges, 300, 6)
	hA := smallHier()
	if _, _, err := Run(Config{System: Seraph, Workers: 4, Hier: hA}, storeA, specs); err != nil {
		t.Fatal(err)
	}
	storeB := buildStore(t, edges, 300, 6)
	hB := smallHier()
	if _, _, err := Run(Config{System: NXgraph, Workers: 4, Hier: hB}, storeB, fourSpecs()); err != nil {
		t.Fatal(err)
	}
	volSeraph := hA.Counters().BytesIntoCache
	volNX := hB.Counters().BytesIntoCache
	if volNX <= volSeraph {
		t.Fatalf("NXgraph volume %d not above Seraph %d", volNX, volSeraph)
	}
}

func TestCGraphBeatsBaselinesOnSharedWorkload(t *testing.T) {
	// The headline result (Fig. 9): with four concurrent jobs, CGraph's
	// makespan and cache volume beat every baseline's.
	edges := gen.RMAT(35, 400, 8000, 0.57, 0.19, 0.19)

	runBase := func(sys System) (float64, int64) {
		store := buildStore(t, edges, 400, 8)
		h := smallHier()
		rep, _, err := Run(Config{System: sys, Workers: 4, Hier: h}, store, fourSpecs())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan, rep.Counters.BytesIntoCache
	}

	g := graph.Build(400, edges)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: 8, CoreSubgraph: true})
	if err != nil {
		t.Fatal(err)
	}
	h := smallHier()
	e := core.New(core.Config{Workers: 4, Hier: h}, storage.NewSnapshotStore(pg, 0))
	for _, s := range fourSpecs() {
		e.Submit(s.Prog, 0)
	}
	repC, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, sys := range []System{Seraph, NXgraph} {
		mk, vol := runBase(sys)
		if repC.Makespan >= mk {
			t.Fatalf("CGraph makespan %v not better than %s %v", repC.Makespan, sys, mk)
		}
		if repC.Counters.BytesIntoCache >= vol {
			t.Fatalf("CGraph volume %d not below %s %d", repC.Counters.BytesIntoCache, sys, vol)
		}
	}
}

func TestSeraphVTSharesSnapshotsSeraphDoesNot(t *testing.T) {
	// On a snapshot series, Seraph-VT's incremental storage must beat
	// plain Seraph's full per-version copies in cache volume.
	edges := gen.ER(36, 200, 2400)
	g := graph.Build(200, edges)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	mkStore := func() *storage.SnapshotStore {
		store := storage.NewSnapshotStore(pg, 0)
		prev, prevEdges := pg, edges
		for s := 1; s <= 3; s++ {
			mut, slots := gen.Mutate(prevEdges, 0.001, 200, int64(100+s))
			changed := graph.ChangedPartitions(slots, prev.ChunkSize, len(prev.Parts))
			next, err := graph.Overlay(prev, mut, changed)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Add(next, int64(s*10)); err != nil {
				t.Fatal(err)
			}
			prev, prevEdges = next, mut
		}
		return store
	}
	specs := []JobSpec{
		{Prog: &algo.PageRank{Damping: 0.85, Epsilon: 1e-5}, Arrival: 0},
		{Prog: &algo.PageRank{Damping: 0.85, Epsilon: 1e-5}, Arrival: 10},
		{Prog: &algo.PageRank{Damping: 0.85, Epsilon: 1e-5}, Arrival: 20},
		{Prog: &algo.PageRank{Damping: 0.85, Epsilon: 1e-5}, Arrival: 30},
	}
	hA := smallHier()
	if _, _, err := Run(Config{System: Seraph, Workers: 4, Hier: hA}, mkStore(), specs); err != nil {
		t.Fatal(err)
	}
	hB := smallHier()
	if _, _, err := Run(Config{System: SeraphVT, Workers: 4, Hier: hB}, mkStore(), specs); err != nil {
		t.Fatal(err)
	}
	if hB.Counters().BytesIntoCache >= hA.Counters().BytesIntoCache {
		t.Fatalf("Seraph-VT volume %d not below Seraph %d",
			hB.Counters().BytesIntoCache, hA.Counters().BytesIntoCache)
	}
}

func TestJobSpecificTraversalOrder(t *testing.T) {
	// Jobs must start their sweeps at different offsets (§2.1's
	// "different graph paths").
	edges := gen.RMAT(37, 200, 4000, 0.57, 0.19, 0.19)
	store := buildStore(t, edges, 200, 8)
	pg := store.Latest().PG
	mk := func(id int) *bjob {
		return &bjob{numJobs: 4, job: exec.NewJob(id, &algo.PageRank{Damping: 0.85, Epsilon: 1e-6}, pg)}
	}
	j0, j2 := mk(0), mk(2)
	j0.buildQueue()
	j2.buildQueue()
	if len(j0.queue) != len(j2.queue) || len(j0.queue) == 0 {
		t.Fatal("queues not built")
	}
	if j0.queue[0] == j2.queue[0] {
		t.Fatalf("jobs 0 and 2 start at the same partition %d", j0.queue[0])
	}
}
