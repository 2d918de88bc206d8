package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/memsim"
	"cgraph/internal/refimpl"
	"cgraph/internal/sched"
	"cgraph/internal/storage"
	"cgraph/model"
)

func buildPG(t testing.TB, edges []model.Edge, n, parts int, core bool) *graph.PGraph {
	t.Helper()
	g := graph.Build(n, edges)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: parts, CoreSubgraph: core})
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

func smallHier() *memsim.Hierarchy {
	return memsim.New(memsim.Config{CacheBytes: 256 << 10, MemoryBytes: 0, Cost: memsim.DefaultCost()})
}

// NewSingle wraps a plain partitioned graph as a one-snapshot store.
func NewSingle(cfg Config, pg *graph.PGraph) *Engine {
	return New(cfg, storage.NewSnapshotStore(pg, 0))
}

// JobState reports the engine-side lifecycle state of a submitted job.
func (e *Engine) JobState(jobID int) (JobState, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rj, ok := e.index[jobID]
	if !ok {
		return 0, false
	}
	return rj.state, true
}

func TestEngineFourConcurrentJobsCorrect(t *testing.T) {
	edges := gen.RMAT(21, 400, 8000, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 400, 8, true)
	e := NewSingle(Config{Workers: 4, Hier: smallHier()}, pg)

	pr := e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-9}, 0)
	ss := e.Submit(algo.NewSSSP(0), 0)
	sc := e.Submit(algo.NewSCC(), 0)
	bf := e.Submit(algo.NewBFS(0), 0)

	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 4 {
		t.Fatalf("finished jobs = %d, want 4", len(rep.Jobs))
	}

	g := graph.Build(400, edges)
	prRes, err := e.Results(pr)
	if err != nil {
		t.Fatal(err)
	}
	wantPR := refimpl.PageRank(g, 0.85, 1e-12, 3000)
	for v := range prRes {
		if math.Abs(prRes[v]-wantPR[v]) > 1e-6 {
			t.Fatalf("pagerank vertex %d: got %v want %v", v, prRes[v], wantPR[v])
		}
	}
	ssRes, _ := e.Results(ss)
	wantSS := refimpl.SSSP(g, 0)
	for v := range ssRes {
		if ssRes[v] != wantSS[v] && !(math.IsInf(ssRes[v], 1) && math.IsInf(wantSS[v], 1)) {
			t.Fatalf("sssp vertex %d: got %v want %v", v, ssRes[v], wantSS[v])
		}
	}
	bfRes, _ := e.Results(bf)
	wantBF := refimpl.BFS(g, 0)
	for v := range bfRes {
		if bfRes[v] != wantBF[v] && !(math.IsInf(bfRes[v], 1) && math.IsInf(wantBF[v], 1)) {
			t.Fatalf("bfs vertex %d: got %v want %v", v, bfRes[v], wantBF[v])
		}
	}
	// SCC: group equivalence against Tarjan.
	scRes, _ := e.Results(sc)
	wantSCC := refimpl.SCC(g)
	fwd := map[float64]int{}
	rev := map[int]float64{}
	for v := range scRes {
		if w, ok := fwd[scRes[v]]; ok {
			if w != wantSCC[v] {
				t.Fatalf("scc vertex %d: group mismatch", v)
			}
		} else {
			fwd[scRes[v]] = wantSCC[v]
		}
		if l, ok := rev[wantSCC[v]]; ok {
			if l != scRes[v] {
				t.Fatalf("scc: reference group %d split", wantSCC[v])
			}
		} else {
			rev[wantSCC[v]] = scRes[v]
		}
	}
	if rep.Makespan <= 0 {
		t.Fatal("makespan not accounted")
	}
	if rep.Counters.BytesIntoCache == 0 {
		t.Fatal("no cache traffic recorded")
	}
}

func TestEngineSharedLoadBeatsPerJobLoad(t *testing.T) {
	// The central claim: k jobs sharing partition loads swap far less data
	// into the cache than k times a single job's traffic.
	edges := gen.RMAT(22, 300, 6000, 0.57, 0.19, 0.19)

	run := func(njobs int) (vol int64, makespan float64) {
		pg := buildPG(t, edges, 300, 6, false)
		h := smallHier()
		e := NewSingle(Config{Workers: 4, Hier: h}, pg)
		for i := 0; i < njobs; i++ {
			e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-6}, 0)
		}
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Counters.BytesIntoCache, rep.Makespan
	}
	vol1, _ := run(1)
	vol4, _ := run(4)
	if vol4 >= 4*vol1 {
		t.Fatalf("4-job volume %d not sub-linear vs 4x single-job %d", vol4, 4*vol1)
	}
}

func TestEngineRuntimeSubmission(t *testing.T) {
	edges := gen.RMAT(23, 200, 3000, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 200, 4, false)
	e := NewSingle(Config{Workers: 2, Hier: smallHier()}, pg)
	e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-6}, 0)

	// Submit a second job concurrently while Run is in flight.
	var wg sync.WaitGroup
	wg.Add(1)
	var late int
	go func() {
		defer wg.Done()
		late = e.Submit(algo.NewBFS(0), 0)
	}()
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The late job may have been admitted mid-run or not at all (if Run
	// finished first); run again to drain in the latter case.
	if len(rep.Jobs) == 1 {
		rep2, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep2.Jobs) != 2 {
			t.Fatalf("late job not drained: %d finished", len(rep2.Jobs))
		}
	}
	res, err := e.Results(late)
	if err != nil {
		t.Fatal(err)
	}
	want := refimpl.BFS(graph.Build(200, edges), 0)
	for v := range res {
		if res[v] != want[v] && !(math.IsInf(res[v], 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("late bfs vertex %d: got %v want %v", v, res[v], want[v])
		}
	}
}

// TestEngineSnapshotBinding: jobs bound to the base and to an overlay
// snapshot each converge to the reference on their own edge list, and the
// overlay's degree table equals a batch build of the mutated list.
func TestEngineSnapshotBinding(t *testing.T) {
	edges := gen.ER(24, 100, 1200)
	pg := buildPG(t, edges, 100, 4, false)
	store := storage.NewSnapshotStore(pg, 10)
	mut, slots := gen.Mutate(edges, 0.05, 100, 7)
	changed := graph.ChangedPartitions(slots, pg.ChunkSize, len(pg.Parts))
	pg2, err := graph.Overlay(pg, mut, changed)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Add(pg2, 20); err != nil {
		t.Fatal(err)
	}
	g2 := graph.Build(100, mut)
	if !reflect.DeepEqual(pg2.G, g2.DegreeTable) {
		t.Fatal("overlay's degree table differs from a batch build of the mutated list")
	}

	e := New(Config{Workers: 2, Hier: smallHier()}, store)
	old := e.Submit(algo.NewSSSP(0), 15)  // binds to snapshot ts=10
	new_ := e.Submit(algo.NewSSSP(0), 25) // binds to snapshot ts=20
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	oldRes, _ := e.Results(old)
	newRes, _ := e.Results(new_)
	wantOld := refimpl.SSSP(graph.Build(100, edges), 0)
	wantNew := refimpl.SSSP(g2, 0)
	for v := range oldRes {
		if oldRes[v] != wantOld[v] && !(math.IsInf(oldRes[v], 1) && math.IsInf(wantOld[v], 1)) {
			t.Fatalf("old-snapshot sssp vertex %d wrong", v)
		}
		if newRes[v] != wantNew[v] && !(math.IsInf(newRes[v], 1) && math.IsInf(wantNew[v], 1)) {
			t.Fatalf("new-snapshot sssp vertex %d wrong", v)
		}
	}
}

func TestEngineSchedulerAblation(t *testing.T) {
	// Priority scheduling must not change results, only order/cost.
	edges := gen.RMAT(25, 250, 5000, 0.57, 0.19, 0.19)
	for _, kind := range []sched.Kind{sched.Static, sched.Priority} {
		pg := buildPG(t, edges, 250, 6, true)
		e := NewSingle(Config{Workers: 4, Hier: smallHier(), Scheduler: kind}, pg)
		id := e.Submit(algo.NewSSSP(1), 0)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		res, _ := e.Results(id)
		want := refimpl.SSSP(graph.Build(250, edges), 1)
		for v := range res {
			if res[v] != want[v] && !(math.IsInf(res[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("%v scheduler: sssp vertex %d wrong", kind, v)
			}
		}
	}
}

func TestEngineStragglerSplitAblation(t *testing.T) {
	edges := gen.RMAT(26, 250, 5000, 0.57, 0.19, 0.19)
	// Balance at 1/Workers keeps every sweep whole: splitting off.
	run := func(balance float64) (*Engine, float64) {
		pg := buildPG(t, edges, 250, 6, false)
		e := NewSingle(Config{Workers: 8, Hier: smallHier(), Balance: balance}, pg)
		e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-6}, 0)
		e.Submit(algo.NewWCC(), 0)
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return e, rep.Makespan
	}
	eOn, tOn := run(0)
	eOff, tOff := run(1 / float64(8))
	// Splitting must speed up the virtual makespan (8 workers, 2 jobs).
	if tOn >= tOff {
		t.Fatalf("straggler splitting did not help: %v >= %v", tOn, tOff)
	}
	// And results are identical either way.
	rOn, _ := eOn.Results(1)
	rOff, _ := eOff.Results(1)
	for v := range rOn {
		if rOn[v] != rOff[v] && !(math.IsInf(rOn[v], 1) && math.IsInf(rOff[v], 1)) {
			t.Fatalf("wcc vertex %d differs between split modes", v)
		}
	}
}

// TestEngineScalingInvariants runs the four-job mix (PageRank, SSSP, SCC,
// BFS) on a skewed Zipf graph at 1, 2, 4 and 8 workers. The hierarchy holds
// the whole graph and edges cost 10× the experiment model, so the trigger
// phase's scatter work, not the load stream, sets the makespan: it must fall
// strictly as workers double, a second worker must steal, and converged
// regions must be skipped, on the PageRank tail too.
func TestEngineScalingInvariants(t *testing.T) {
	const n = 20000
	edges := gen.Zipf(42, n, 300000, 1.2)
	cost := memsim.CostModel{
		MemBandwidth: 2000, MemLatency: 1, DiskBandwidth: 100, DiskLatency: 200,
		EdgeCost: 0.5, VertexCost: 0.02, SyncEntryCost: 0.05, ChannelStreams: 1.6,
	}
	prev := math.Inf(1)
	for _, workers := range []int{1, 2, 4, 8} {
		e := NewSingle(Config{
			Workers:    workers,
			Hier:       memsim.New(memsim.Config{CacheBytes: 16 << 20, MemoryBytes: 128 << 20, Cost: cost}),
			TraceDepth: 256,
		}, buildPG(t, edges, n, 32, false))
		e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-3}, 0)
		e.Submit(algo.NewSSSP(0), 0)
		e.Submit(algo.NewSCC(), 0)
		e.Submit(algo.NewBFS(0), 0)
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		es := e.ExecStats()
		var tail int64
		rounds := e.RoundTraces(0)
		for _, r := range rounds[max(0, len(rounds)-32):] {
			tail += r.Skipped
		}
		t.Logf("workers=%d makespan=%.0fµs steals=%d skipped=%d tail=%d", workers, rep.Makespan, es.Steals, es.SkippedPartitions, tail)
		if rep.Makespan >= prev {
			t.Errorf("workers=%d: makespan %v not below %v at half the workers", workers, rep.Makespan, prev)
		}
		prev = rep.Makespan
		if workers > 1 && es.Steals == 0 {
			t.Errorf("workers=%d: no steals", workers)
		}
		if es.SkippedPartitions == 0 || tail == 0 {
			t.Errorf("workers=%d: %d partitions skipped, %d over the last 32 rounds; want both > 0", workers, es.SkippedPartitions, tail)
		}
	}
}

// TestRoundReadOuts: the round record and the scheduler read-out carry the
// one plan a round makes. On the allocation guards' dense four-job mix, each
// retained round's makespan is exactly the clock's advance since the
// previous record, and SchedInfo after the run describes the last record.
func TestRoundReadOuts(t *testing.T) {
	edges := gen.RMAT(77, 512, 16384, 0.57, 0.19, 0.19)
	e := NewSingle(Config{Workers: 2, TraceDepth: 1 << 10}, buildPG(t, edges, 512, 8, false))
	e.Submit(algo.NewPageRank(), 0)
	e.Submit(algo.NewPPR(0), 0)
	e.Submit(&algo.PageRank{Damping: 0.7, Epsilon: 1e-3}, 0)
	e.Submit(algo.NewHITS(), 0)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rounds := e.RoundTraces(0)
	if len(rounds) < 2 || rounds[0].Round != 1 {
		t.Fatalf("want every round retained from round 1, got %d records", len(rounds))
	}
	var prev float64
	for _, r := range rounds {
		if r.MakespanUS != r.VirtualTimeUS-prev {
			t.Fatalf("round %d: makespan %v, want clock advance %v", r.Round, r.MakespanUS, r.VirtualTimeUS-prev)
		}
		if r.Units == 0 || r.MakespanUS <= 0 {
			t.Fatalf("round %d: %d units, makespan %v; want both positive", r.Round, r.Units, r.MakespanUS)
		}
		// One task per sweep: a job's push runs inside its last sweep, not
		// as a task of its own.
		var sweeps int64
		for _, jr := range r.Jobs {
			sweeps += int64(jr.Parts)
		}
		if r.Tasks != sweeps {
			t.Fatalf("round %d: %d tasks for %d sweeps", r.Round, r.Tasks, sweeps)
		}
		prev = r.VirtualTimeUS
	}
	last := rounds[len(rounds)-1]
	info := e.SchedInfo()
	if info.Round != last.Round || info.MakespanUS != last.MakespanUS {
		t.Fatalf("SchedInfo round %d makespan %v, want round %d makespan %v", info.Round, info.MakespanUS, last.Round, last.MakespanUS)
	}
	if len(info.Parts) != last.Units || len(info.UIDs) != last.Units || len(info.JobIDs) == 0 {
		t.Fatalf("SchedInfo: %d parts, %d UIDs, %d jobs; want %d units and some job", len(info.Parts), len(info.UIDs), len(info.JobIDs), last.Units)
	}
}

func TestEngineBatchingWhenJobsExceedWorkers(t *testing.T) {
	edges := gen.RMAT(27, 150, 2500, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 150, 4, false)
	e := NewSingle(Config{Workers: 2, Hier: smallHier()}, pg)
	ids := make([]int, 6)
	for i := range ids {
		ids[i] = e.Submit(algo.NewBFS(model.VertexID(i)), 0)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		res, err := e.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		want := refimpl.BFS(graph.Build(150, edges), model.VertexID(i))
		for v := range res {
			if res[v] != want[v] && !(math.IsInf(res[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("job %d vertex %d wrong", i, v)
			}
		}
	}
}

func TestEngineDeterministicVirtualTime(t *testing.T) {
	edges := gen.RMAT(28, 200, 4000, 0.57, 0.19, 0.19)
	run := func() (float64, int64) {
		pg := buildPG(t, edges, 200, 5, true)
		e := NewSingle(Config{Workers: 4, Hier: smallHier()}, pg)
		e.Submit(algo.NewSSSP(0), 0)
		e.Submit(algo.NewBFS(0), 0)
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan, rep.Counters.BytesIntoCache
	}
	m1, v1 := run()
	m2, v2 := run()
	if m1 != m2 || v1 != v2 {
		t.Fatalf("nondeterministic accounting: (%v,%d) vs (%v,%d)", m1, v1, m2, v2)
	}
}

func TestEngineReportShape(t *testing.T) {
	edges := gen.RMAT(29, 150, 2000, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 150, 4, false)
	e := NewSingle(Config{Workers: 4, Hier: smallHier(), Label: "CGraph-test"}, pg)
	e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-4}, 0)
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.System != "CGraph-test" || rep.Workers != 4 {
		t.Fatal("report header wrong")
	}
	jm := rep.Job("PageRank")
	if jm == nil {
		t.Fatal("job metrics missing")
	}
	if jm.AccessTime <= 0 || jm.ComputeTime <= 0 || jm.Iterations == 0 {
		t.Fatalf("breakdown not populated: %+v", jm)
	}
	if jm.FinishAt <= jm.SubmitAt {
		t.Fatal("job timestamps wrong")
	}
	if jm.Edges == 0 || jm.SyncEntries == 0 {
		t.Fatal("work counters not populated")
	}
	if u := rep.CPUUtilization(); u <= 0 || u > 100 {
		t.Fatalf("utilization out of range: %v", u)
	}
}
