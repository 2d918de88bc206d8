package cgraph

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"cgraph/algo"
	"cgraph/internal/evolve"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/refimpl"
	"cgraph/internal/storage"
	"cgraph/model"
)

func TestQuickstartFlow(t *testing.T) {
	edges := gen.RMAT(51, 300, 6000, 0.57, 0.19, 0.19)
	sys := NewSystem(WithWorkers(4))
	if err := sys.LoadEdges(0, edges); err != nil {
		t.Fatal(err)
	}
	pr, err := sys.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sys.Submit(algo.NewSSSP(0))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 2 || rep.SimulatedMakespanUS <= 0 {
		t.Fatalf("report malformed: %+v", rep)
	}

	g := graph.Build(0, edges)
	wantPR := refimpl.PageRank(g, 0.85, 1e-12, 3000)
	gotPR, err := pr.Results()
	if err != nil {
		t.Fatal(err)
	}
	for v := range gotPR {
		if math.Abs(gotPR[v]-wantPR[v]) > 1e-5 {
			t.Fatalf("pagerank vertex %d: got %v want %v", v, gotPR[v], wantPR[v])
		}
	}
	wantSS := refimpl.SSSP(g, 0)
	gotSS, _ := ss.Results()
	for v := range gotSS {
		if gotSS[v] != wantSS[v] && !(math.IsInf(gotSS[v], 1) && math.IsInf(wantSS[v], 1)) {
			t.Fatalf("sssp vertex %d wrong", v)
		}
	}
}

func TestSystemErrors(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Submit(algo.NewBFS(0)); err == nil {
		t.Fatal("submit before load must fail")
	}
	if _, err := sys.Run(); err == nil {
		t.Fatal("run before submit must fail")
	}
	if err := sys.LoadEdges(0, nil); err == nil {
		t.Fatal("empty edge list must fail")
	}
	edges := gen.ER(1, 50, 400)
	if err := sys.LoadEdges(0, edges); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadEdges(0, edges); err == nil {
		t.Fatal("double load must fail")
	}
	// Snapshots need plain partitioning.
	if err := sys.AddSnapshot(edges, 5); err == nil {
		t.Fatal("snapshot on core-subgraph system must fail")
	}
}

func TestSnapshotWorkflow(t *testing.T) {
	edges := gen.ER(7, 120, 1500)
	sys := NewSystem(WithWorkers(2), WithCoreSubgraph(false))
	if err := sys.LoadEdges(0, edges); err != nil {
		t.Fatal(err)
	}
	mut, _ := gen.Mutate(edges, 0.02, 120, 9)
	if err := sys.AddSnapshot(mut, 10); err != nil {
		t.Fatal(err)
	}
	oldJob, err := sys.Submit(algo.NewBFS(0), AtTimestamp(0))
	if err != nil {
		t.Fatal(err)
	}
	newJob, err := sys.Submit(algo.NewBFS(0), AtTimestamp(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	wantOld := refimpl.BFS(graph.Build(120, edges), 0)
	wantNew := refimpl.BFS(graph.Build(120, mut), 0)
	gotOld, _ := oldJob.Results()
	gotNew, _ := newJob.Results()
	for v := range gotOld {
		if gotOld[v] != wantOld[v] && !(math.IsInf(gotOld[v], 1) && math.IsInf(wantOld[v], 1)) {
			t.Fatalf("old snapshot vertex %d wrong", v)
		}
		if gotNew[v] != wantNew[v] && !(math.IsInf(gotNew[v], 1) && math.IsInf(wantNew[v], 1)) {
			t.Fatalf("new snapshot vertex %d wrong", v)
		}
	}
}

// TestSnapshotHoleAndStaleTimestamp: a full-list snapshot may free a slot
// by rewriting it to model.HoleEdge — the vertex space does not grow to the
// hole's sentinel ids, and the next delta add refills the slot instead of
// appending — and a snapshot whose timestamp is not after the latest is
// refused without disturbing the series.
func TestSnapshotHoleAndStaleTimestamp(t *testing.T) {
	const n = 60
	edges := gen.ER(11, n, 500)
	sys := NewSystem(WithWorkers(1), WithCoreSubgraph(false))
	if err := sys.LoadEdges(n, edges); err != nil {
		t.Fatal(err)
	}
	holed := slices.Clone(edges)
	holed[5] = model.HoleEdge()
	if err := sys.AddSnapshot(holed, 10); err != nil {
		t.Fatal(err)
	}
	g := sys.store.Latest().PG.G
	if g.N != n || g.Slots != 500 || g.NumEdges != 499 {
		t.Fatalf("N/slots/live = %d/%d/%d, want %d/500/499", g.N, g.Slots, g.NumEdges, n)
	}
	for _, ts := range []int64{10, 5} {
		if err := sys.AddSnapshot(edges, ts); err == nil {
			t.Fatalf("snapshot at stale timestamp %d accepted", ts)
		}
	}
	if _, err := sys.ApplyDelta(Delta{Mutations: []Mutation{{Op: MutationAdd, Edge: Edge{Src: 1, Dst: 2, Weight: 1}}}, Flush: true}); err != nil {
		t.Fatal(err)
	}
	g = sys.store.Latest().PG.G
	if g.N != n || g.Slots != 500 || g.NumEdges != 500 {
		t.Fatalf("after the add N/slots/live = %d/%d/%d, want %d/500/500", g.N, g.Slots, g.NumEdges, n)
	}
	if err := sys.AddSnapshot(edges, 20); err != nil {
		t.Fatalf("valid snapshot after the refused one: %v", err)
	}
}

// TestDeltaSnapshotParity is the correctness anchor of the streaming path:
// a job bound to a snapshot built from deltas must compute exactly what it
// would against the same version ingested as a full list via AddSnapshot,
// and the delta-built overlay must share at least as many partitions.
func TestDeltaSnapshotParity(t *testing.T) {
	const n = 150
	base := gen.ER(7, n, 2000)
	mut, slots := gen.MutateClustered(base, 0.02, n, 9, 16)

	full := NewSystem(WithWorkers(2), WithCoreSubgraph(false), WithPartitions(8))
	if err := full.LoadEdges(n, base); err != nil {
		t.Fatal(err)
	}
	if err := full.AddSnapshot(mut, 10); err != nil {
		t.Fatal(err)
	}

	delta := NewSystem(WithWorkers(2), WithCoreSubgraph(false), WithPartitions(8))
	if err := delta.LoadEdges(n, base); err != nil {
		t.Fatal(err)
	}
	d := Delta{Timestamp: 10, Flush: true}
	for _, s := range slots {
		d.Mutations = append(d.Mutations, Mutation{Slot: s, Edge: mut[s]})
	}
	ack, err := delta.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Flushed || ack.Timestamp != 10 {
		t.Fatalf("ack = %+v, want flush at ts 10", ack)
	}

	// The delta overlay shares at least as many partitions as the
	// full-list path (both rebuild exactly the touched chunks).
	sharedParts := func(store *storage.SnapshotStore) int {
		base, _ := store.At(0)
		next, _ := store.At(1)
		n := 0
		for id, p := range next.PG.Parts {
			if id < len(base.PG.Parts) && p == base.PG.Parts[id] {
				n++
			}
		}
		return n
	}
	fullShared := sharedParts(full.store)
	deltaShared := sharedParts(delta.store)
	if deltaShared < fullShared || fullShared <= 0 {
		t.Fatalf("delta path shares %d partitions, full path %d", deltaShared, fullShared)
	}
	ist := delta.IngestStats()
	if ist.PartsShared != int64(deltaShared) || ist.SnapshotsBuilt != 1 || ist.SlotsApplied != int64(len(slots)) {
		t.Fatalf("ingest stats inconsistent: %+v (shared %d, slots %d)", ist, deltaShared, len(slots))
	}

	var jobs []*Job
	for _, sys := range []*System{full, delta} {
		j, err := sys.Submit(algo.NewPageRank(), AtTimestamp(10))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if _, err := full.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := delta.Run(); err != nil {
		t.Fatal(err)
	}
	want, _ := jobs[0].Results()
	got, _ := jobs[1].Results()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: delta-built %v != full-list %v", v, got[v], want[v])
		}
	}
}

// TestDeltaValidation covers the rejection paths of ApplyDelta.
func TestDeltaValidation(t *testing.T) {
	sys := NewSystem(WithWorkers(2), WithCoreSubgraph(false))
	if _, err := sys.ApplyDelta(Delta{}); err == nil {
		t.Fatal("delta before a graph accepted")
	}
	edges := gen.ER(7, 50, 500)
	if err := sys.LoadEdges(50, edges); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ApplyDelta(Delta{Mutations: []Mutation{{Slot: 500, Edge: Edge{Src: 1, Dst: 2}}}}); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if _, err := sys.ApplyDelta(Delta{Mutations: []Mutation{{Op: MutationOp(7), Slot: 0, Edge: Edge{Src: 1, Dst: 2}}}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	// A no-op rewrite flushes without building a snapshot.
	ack, err := sys.ApplyDelta(Delta{Mutations: []Mutation{{Slot: 0, Edge: edges[0]}}, Flush: true})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Flushed || sys.IngestStats().SnapshotsBuilt != 0 {
		t.Fatalf("no-op rewrite built a snapshot: %+v", ack)
	}
	// Core-subgraph partitioning (slot-unstable chunks) rejects delta
	// ingestion up front; the hub-heavy RMAT graph guarantees core
	// partitions actually form.
	coreEdges := gen.RMAT(5, 200, 4000, 0.57, 0.19, 0.19)
	coreSys := NewSystem(WithWorkers(2))
	if err := coreSys.LoadEdges(200, coreEdges); err != nil {
		t.Fatal(err)
	}
	if _, err := coreSys.ApplyDelta(Delta{Mutations: []Mutation{{Slot: 0, Edge: Edge{Src: 1, Dst: 2}}}}); err == nil {
		t.Fatal("core-subgraph system accepted a delta")
	}
}

// TestSnapshotGCSoak drives continuous deltas through a serving system
// while jobs bind to the rolling latest snapshot and retire; the retained
// series must stay bounded, and a job bound to an old retained version
// must keep its snapshot alive until it retires.
func TestSnapshotGCSoak(t *testing.T) {
	const n = 120
	edges := gen.ER(7, n, 1500)
	sys := NewSystem(WithWorkers(2), WithCoreSubgraph(false), WithRetainSnapshots(3))
	if err := sys.LoadEdges(n, edges); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- sys.Serve(ctx) }()

	// mutateDelta derives a small delta against the system's current edge
	// list.
	mutateDelta := func(seed int64) Delta {
		mut, slots := gen.Mutate(seriesEdges(sys), 0.01, n, seed)
		d := Delta{Flush: true}
		for _, s := range slots {
			d.Mutations = append(d.Mutations, Mutation{Slot: s, Edge: mut[s]})
		}
		return d
	}

	for i := 0; i < 12; i++ {
		if _, err := sys.ApplyDelta(mutateDelta(int64(100 + i))); err != nil {
			t.Fatal(err)
		}
		j, err := sys.Submit(algo.NewBFS(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		ist := sys.IngestStats()
		if ist.SnapshotsLive > 4 {
			t.Fatalf("iteration %d: %d live snapshots exceed the bound", i, ist.SnapshotsLive)
		}
	}
	ist := sys.IngestStats()
	if ist.SnapshotsBuilt != 12 || ist.SnapshotsEvicted < 8 {
		t.Fatalf("soak stats: %+v", ist)
	}
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}

	// With the round loop parked, a job bound to the oldest retained
	// snapshot stays pending and pins it: six more ingested versions must
	// not evict it out from under the job.
	oldest, _ := sys.store.Window()
	pinned, err := sys.Submit(algo.NewPageRank(), AtTimestamp(oldest.Timestamp))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := sys.ApplyDelta(mutateDelta(int64(200 + i))); err != nil {
			t.Fatal(err)
		}
	}
	if snap, ok := sys.store.At(oldest.Seq); !ok || snap.PG != oldest.PG {
		t.Fatal("snapshot with a bound job was evicted")
	}
	if live := sys.IngestStats().SnapshotsLive; live <= 3 {
		t.Fatalf("pinned series should exceed the cap while the job lives, got %d", live)
	}
	// The job retires; its reference releases and GC shrinks the series
	// back to the cap.
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := pinned.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if live := sys.IngestStats().SnapshotsLive; live != 3 {
		t.Fatalf("live snapshots after the pinned job retired = %d, want 3", live)
	}
}

func TestLoadEdgeFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.tsv")
	edges := gen.ER(3, 60, 500)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.WriteEdges(f, edges); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sys := NewSystem(WithWorkers(2))
	if err := sys.LoadEdgeFile(path); err != nil {
		t.Fatal(err)
	}
	j, err := sys.Submit(algo.NewDegree())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := j.Results()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(0, edges)
	for v := range res {
		if res[v] != float64(g.OutDegree(VertexID(v))) {
			t.Fatalf("degree vertex %d wrong", v)
		}
	}
	if err := NewSystem().LoadEdgeFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestCacheSimulationReportsMetrics(t *testing.T) {
	edges := gen.RMAT(52, 200, 4000, 0.57, 0.19, 0.19)
	sys := NewSystem(WithWorkers(4), WithCacheSimulation(64<<10, 1<<20))
	if err := sys.LoadEdges(0, edges); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(algo.NewWCC()); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesIntoCache == 0 || rep.CacheMissRate <= 0 {
		t.Fatalf("cache metrics empty: %+v", rep)
	}
	if rep.Jobs[0].Name != "WCC" || rep.Jobs[0].Iterations == 0 || rep.Jobs[0].EdgesProcessed == 0 {
		t.Fatalf("job report empty: %+v", rep.Jobs[0])
	}
}

func TestRerunAfterMoreSubmissions(t *testing.T) {
	edges := gen.ER(8, 100, 900)
	sys := NewSystem(WithWorkers(2), WithPartitions(5))
	if err := sys.LoadEdges(0, edges); err != nil {
		t.Fatal(err)
	}
	j1, _ := sys.Submit(algo.NewBFS(0))
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	j2, _ := sys.Submit(algo.NewBFS(1))
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Results(); err != nil {
		t.Fatal(err)
	}
	res, err := j2.Results()
	if err != nil {
		t.Fatal(err)
	}
	want := refimpl.BFS(graph.Build(0, edges), 1)
	for v := range res {
		if res[v] != want[v] && !(math.IsInf(res[v], 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("second-run bfs vertex %d wrong", v)
		}
	}
}

func TestServeModeLifecycle(t *testing.T) {
	edges := gen.RMAT(53, 250, 4000, 0.57, 0.19, 0.19)
	sys := NewSystem(WithWorkers(2), WithCoreSubgraph(false))
	if err := sys.LoadEdges(250, edges); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- sys.Serve(context.Background()) }()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	pr, err := sys.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Wait(ctx); err != nil {
		t.Fatalf("pagerank wait: %v", err)
	}
	if pr.State() != JobDone || pr.Err() != nil || pr.Metrics() == nil {
		t.Fatalf("done handle wrong: state=%v err=%v", pr.State(), pr.Err())
	}
	res, err := pr.Results()
	if err != nil {
		t.Fatal(err)
	}
	want := refimpl.PageRank(graph.Build(250, edges), 0.85, 1e-12, 3000)
	for v := range res {
		if math.Abs(res[v]-want[v]) > 1e-5 {
			t.Fatalf("pagerank vertex %d: got %v want %v", v, res[v], want[v])
		}
	}

	// Cancellation via the handle: epsilon 0 keeps PageRank iterating far
	// longer than the cancel takes to land.
	long, err := sys.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := long.Cancel(); err != nil {
		t.Fatal(err)
	}
	if err := long.Wait(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled wait = %v, want ErrCancelled", err)
	}
	if long.State() != JobCancelled {
		t.Fatalf("cancelled state = %v", long.State())
	}

	// Serving twice fails; batch Run is excluded while serving.
	if err := sys.Serve(context.Background()); err == nil {
		t.Fatal("second Serve must fail")
	}

	if err := sys.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-ctx.Done():
		t.Fatal("serve did not exit after shutdown")
	}
	// Shutdown when not serving is a no-op.
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Rounds == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

// TestServeKeepsNoRetiredHandles: a serving system forgets each handle
// once the job's retirement has resolved it, so a long-lived system's
// handle index stays empty as jobs flow through it.
func TestServeKeepsNoRetiredHandles(t *testing.T) {
	sys := NewSystem(WithWorkers(2), WithCoreSubgraph(false))
	if err := sys.LoadEdges(200, gen.RMAT(54, 200, 3000, 0.57, 0.19, 0.19)); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- sys.Serve(context.Background()) }()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := range 20 {
		j, err := sys.Submit(algo.NewBFS(model.VertexID(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		j.Release()
	}
	sys.jobsMu.Lock()
	n := len(sys.byID)
	sys.jobsMu.Unlock()
	if n != 0 {
		t.Fatalf("the system still indexes %d handles of retired jobs", n)
	}
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
}

// TestStructuralDeltaParity is the correctness anchor of structural
// evolution: a snapshot materialized from add_edge / remove_edge /
// add_vertex (plus in-place rewrite) mutations must yield per-vertex
// results matching a full Cut of the equivalent mutated edge list, while
// Restructure recuts strictly fewer partitions than the full path.
func TestStructuralDeltaParity(t *testing.T) {
	const n = 140
	base := gen.ER(17, n, 1800)
	sys := NewSystem(WithWorkers(2), WithCoreSubgraph(false), WithPartitions(10))
	if err := sys.LoadEdges(n, base); err != nil {
		t.Fatal(err)
	}

	d := Delta{Flush: true}
	// Ten new users join…
	for v := 0; v < 10; v++ {
		d.Mutations = append(d.Mutations, Mutation{Op: MutationAddVertex, Vertex: VertexID(n + v)})
	}
	// …and follow existing ones (and each other).
	for i := 0; i < 60; i++ {
		d.Mutations = append(d.Mutations, Mutation{
			Op:   MutationAdd,
			Edge: Edge{Src: VertexID(n + i%10), Dst: VertexID((i * 7) % (n + 5)), Weight: 1},
		})
	}
	// A clustered run of old follows is dropped.
	for s := 100; s < 120; s++ {
		d.Mutations = append(d.Mutations, Mutation{Op: MutationRemove, Edge: base[s]})
	}
	// One in-place rewrite and one add+remove pair that must cancel.
	d.Mutations = append(d.Mutations,
		Mutation{Op: MutationRewrite, Slot: 5, Edge: Edge{Src: 1, Dst: 2, Weight: 2}},
		Mutation{Op: MutationAdd, Edge: Edge{Src: 3, Dst: 4, Weight: 9}},
		Mutation{Op: MutationRemove, Edge: Edge{Src: 3, Dst: 4}},
	)
	ack, err := sys.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Flushed {
		t.Fatalf("ack = %+v, want a flush", ack)
	}

	mutated := seriesEdges(sys)
	numV := sys.IngestStats().NumVertices
	if numV != n+10 {
		t.Fatalf("vertex space = %d, want %d", numV, n+10)
	}
	if got := sys.store.Latest().PG.G.N; got != n+10 {
		t.Fatalf("snapshot N = %d, want %d", got, n+10)
	}

	ist := sys.IngestStats()
	if ist.SnapshotsBuilt != 1 || ist.EdgeAdds != 61 || ist.EdgeRemoves != 21 || ist.VertexAdds != 10 {
		t.Fatalf("ingest stats = %+v", ist)
	}
	if ist.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", ist.Cancelled)
	}
	// The acceptance bar: the structural path recut strictly fewer
	// partitions than a full Cut (which rebuilds all of them).
	if ist.PartsShared < 1 {
		t.Fatalf("structural delta rebuilt every partition: %+v", ist)
	}
	// Pin the recut split. Removals become holes in place (free-slot
	// list), so only the chunks actually containing touched slots — the
	// removed run, the rewrite, and the appended tail — are rebuilt; the
	// rest are shared. A regression back to tail-shifting removals would
	// dirty every chunk past the first removal and flip this split.
	if ist.PartsRebuilt != 5 || ist.PartsShared != 6 {
		t.Fatalf("recut split = %d rebuilt / %d shared, want 5 / 6", ist.PartsRebuilt, ist.PartsShared)
	}
	if ist.NumVertices != n+10 || ist.NewestSeq != 1 {
		t.Fatalf("window stats = %+v", ist)
	}

	// The full path: a from-scratch Cut of the equivalent mutated list.
	full := NewSystem(WithWorkers(2), WithCoreSubgraph(false), WithPartitions(10))
	if err := full.LoadEdges(numV, mutated); err != nil {
		t.Fatal(err)
	}
	ts := sys.store.Latest().Timestamp
	deltaJob, err := sys.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-8}, AtTimestamp(ts))
	if err != nil {
		t.Fatal(err)
	}
	fullJob, err := full.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := full.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := deltaJob.Results()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fullJob.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != numV {
		t.Fatalf("result sizes: delta %d, full %d, want %d", len(got), len(want), numV)
	}
	ref := refimpl.PageRank(graph.Build(numV, mutated), 0.85, 1e-12, 3000)
	for v := range got {
		// The two systems chunk the list differently, so float
		// accumulation order differs; parity is within tolerance.
		if math.Abs(got[v]-want[v]) > 1e-6 {
			t.Fatalf("vertex %d: delta-built %v != full-cut %v", v, got[v], want[v])
		}
		if math.Abs(got[v]-ref[v]) > 1e-5 {
			t.Fatalf("vertex %d: delta-built %v != refimpl %v", v, got[v], ref[v])
		}
	}
}

// TestRemoveFreeSlotNoTailRecut pins the free-slot removal path: removing
// edges punches holes instead of shifting the tail down, so a remove-only
// flush keeps the slot count and rebuilds only the chunks that contain
// the removed slots — the tail chunk stays shared. A follow-up add-only
// flush then reuses the holes in place, again leaving the tail untouched.
func TestRemoveFreeSlotNoTailRecut(t *testing.T) {
	const n = 140
	base := gen.ER(23, n, 1800)
	sys := NewSystem(WithWorkers(2), WithCoreSubgraph(false), WithPartitions(10))
	if err := sys.LoadEdges(n, base); err != nil {
		t.Fatal(err)
	}

	// Remove a run of early edges: every removed slot lives in the first
	// chunks, far from the tail.
	d := Delta{Flush: true}
	for s := 0; s < 10; s++ {
		d.Mutations = append(d.Mutations, Mutation{Op: MutationRemove, Edge: base[s]})
	}
	if _, err := sys.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	pg := sys.store.Latest().PG
	if pg.G.Slots != 1800 || pg.G.NumEdges != 1790 {
		t.Fatalf("slots/live = %d/%d, want 1800/1790", pg.G.Slots, pg.G.NumEdges)
	}
	ist := sys.IngestStats()
	if ist.PartsRebuilt != 2 || ist.PartsShared != 8 {
		t.Fatalf("remove-only recut split = %d rebuilt / %d shared, want 2 / 8",
			ist.PartsRebuilt, ist.PartsShared)
	}

	// Adds now pop the free slots and write in place: the slot count must
	// not grow and the tail chunk must again be shared, not rebuilt.
	d = Delta{Flush: true}
	for i := 0; i < 5; i++ {
		d.Mutations = append(d.Mutations, Mutation{
			Op:   MutationAdd,
			Edge: Edge{Src: VertexID(i), Dst: VertexID((i + 70) % n), Weight: 1},
		})
	}
	if _, err := sys.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	pg = sys.store.Latest().PG
	if pg.G.Slots != 1800 || pg.G.NumEdges != 1795 {
		t.Fatalf("slots/live after reuse = %d/%d, want 1800/1795", pg.G.Slots, pg.G.NumEdges)
	}
	ist = sys.IngestStats()
	if got := ist.PartsRebuilt; got != 3 {
		t.Fatalf("cumulative rebuilt after slot-reusing adds = %d, want 3", got)
	}
	if got := ist.PartsShared; got != 17 {
		t.Fatalf("cumulative shared = %d, want 17", got)
	}

	// Parity: the holes must be invisible to computation.
	live := liveEdges(sys)
	if len(live) != 1795 {
		t.Fatalf("live edges = %d, want 1795", len(live))
	}
	job, err := sys.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	ref := refimpl.PageRank(graph.Build(n, live), 0.85, 1e-12, 3000)
	for v := range got {
		if math.Abs(got[v]-ref[v]) > 1e-5 {
			t.Fatalf("vertex %d: %v != refimpl %v", v, got[v], ref[v])
		}
	}
}

// TestPrePostGrowthConcurrentJobs pins the regression the refactor must
// never reintroduce: a job bound to a pre-growth snapshot runs to
// convergence concurrently with a job bound to a post-growth snapshot of
// different N, without panic or result corruption.
func TestPrePostGrowthConcurrentJobs(t *testing.T) {
	const n = 200
	base := gen.ER(19, n, 2600)
	sys := NewSystem(WithWorkers(2), WithCoreSubgraph(false))
	if err := sys.LoadEdges(n, base); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- sys.Serve(context.Background()) }()

	pre, err := sys.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-12}, AtTimestamp(0))
	if err != nil {
		t.Fatal(err)
	}

	// The graph grows while the pre-growth job iterates: 40 new vertices
	// and follows into and out of them.
	d := Delta{Flush: true}
	for v := 0; v < 40; v++ {
		d.Mutations = append(d.Mutations, Mutation{Op: MutationAddVertex, Vertex: VertexID(n + v)})
	}
	for i := 0; i < 160; i++ {
		src, dst := VertexID(n+i%40), VertexID((i*13)%n)
		if i%3 == 0 {
			src, dst = dst, src
		}
		d.Mutations = append(d.Mutations, Mutation{Op: MutationAdd, Edge: Edge{Src: src, Dst: dst, Weight: 1}})
	}
	ack, err := sys.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Flushed {
		t.Fatalf("growth delta did not flush: %+v", ack)
	}
	grown := seriesEdges(sys)

	post, err := sys.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-12}, AtTimestamp(ack.Timestamp))
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := post.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	preRes, err := pre.Results()
	if err != nil {
		t.Fatal(err)
	}
	postRes, err := post.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(preRes) != n || len(postRes) != n+40 {
		t.Fatalf("result sizes: pre %d (want %d), post %d (want %d)", len(preRes), n, len(postRes), n+40)
	}
	wantPre := refimpl.PageRank(graph.Build(n, base), 0.85, 1e-12, 3000)
	wantPost := refimpl.PageRank(graph.Build(n+40, grown), 0.85, 1e-12, 3000)
	for v := range preRes {
		if math.Abs(preRes[v]-wantPre[v]) > 1e-5 {
			t.Fatalf("pre-growth vertex %d: got %v want %v", v, preRes[v], wantPre[v])
		}
	}
	for v := range postRes {
		if math.Abs(postRes[v]-wantPost[v]) > 1e-5 {
			t.Fatalf("post-growth vertex %d: got %v want %v", v, postRes[v], wantPost[v])
		}
	}
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
}

// TestIngestAdmissionControl: with WithIngestCap the system sheds batches
// once the buffer is full, with ErrIngestSaturated, and recovers after a
// flush.
func TestIngestAdmissionControl(t *testing.T) {
	const n = 60
	base := gen.ER(23, n, 600)
	sys := NewSystem(WithWorkers(2), WithCoreSubgraph(false), WithIngestCap(3))
	if err := sys.LoadEdges(n, base); err != nil {
		t.Fatal(err)
	}
	fill := Delta{Mutations: []Mutation{
		{Op: MutationAdd, Edge: Edge{Src: 1, Dst: 2, Weight: 1}},
		{Op: MutationAdd, Edge: Edge{Src: 2, Dst: 3, Weight: 1}},
		{Op: MutationAdd, Edge: Edge{Src: 3, Dst: 4, Weight: 1}},
	}}
	if _, err := sys.ApplyDelta(fill); err != nil {
		t.Fatal(err)
	}
	_, err := sys.ApplyDelta(Delta{Mutations: []Mutation{{Op: MutationAdd, Edge: Edge{Src: 4, Dst: 5, Weight: 1}}}})
	if !errors.Is(err, ErrIngestSaturated) {
		t.Fatalf("err = %v, want ErrIngestSaturated", err)
	}
	if sys.IngestStats().Shed != 1 {
		t.Fatalf("shed = %d, want 1", sys.IngestStats().Shed)
	}
	if _, err := sys.FlushDeltas(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ApplyDelta(Delta{Mutations: []Mutation{{Op: MutationAdd, Edge: Edge{Src: 4, Dst: 5, Weight: 1}}}}); err != nil {
		t.Fatalf("apply after flush = %v", err)
	}
}

// TestStructuralRemoveMisses: removing an edge the graph does not have is
// a counted no-op, not an error, and builds no snapshot on its own.
func TestStructuralRemoveMisses(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 0, Weight: 1}, {Src: 2, Dst: 1, Weight: 1}}
	sys := NewSystem(WithWorkers(1), WithCoreSubgraph(false), WithPartitions(2))
	if err := sys.LoadEdges(3, edges); err != nil {
		t.Fatal(err)
	}
	ack, err := sys.ApplyDelta(Delta{
		Mutations: []Mutation{{Op: MutationRemove, Edge: Edge{Src: 7, Dst: 9}}},
		Flush:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Flushed {
		t.Fatalf("missed remove built a snapshot: %+v", ack)
	}
	ist := sys.IngestStats()
	if ist.RemoveMisses != 1 || ist.SnapshotsBuilt != 0 {
		t.Fatalf("stats = %+v", ist)
	}
	// Removing every edge is rejected — at least one must remain — and the
	// failed batch stays buffered, so the next flush retries it together
	// with newly streamed mutations.
	all := Delta{Flush: true}
	for _, e := range edges {
		all.Mutations = append(all.Mutations, Mutation{Op: MutationRemove, Edge: e})
	}
	if _, err := sys.ApplyDelta(all); err == nil {
		t.Fatal("removing every edge accepted")
	}
	if sys.IngestStats().Failures != 1 {
		t.Fatalf("stats = %+v, want the failed flush counted", sys.IngestStats())
	}
	// An add joins the retained removes; the retried flush applies all of
	// them, leaving exactly the added edge.
	if _, err := sys.ApplyDelta(Delta{
		Mutations: []Mutation{{Op: MutationAdd, Edge: Edge{Src: 0, Dst: 2, Weight: 1}}},
		Flush:     true,
	}); err != nil {
		t.Fatalf("system unusable after rejected batch: %v", err)
	}
	if got := sys.store.Latest().PG.G.NumEdges; got != 1 {
		t.Fatalf("edge count = %d, want 1 (retained removes + the add)", got)
	}
}

// TestSnapshotGrowsVertexSpaceThenDelta: a full-list snapshot whose
// rewritten edges name endpoints beyond the loaded vertex count grows the
// snapshot's N; structural deltas afterwards must keep working against the
// grown space (regression: a stale numVertices wedged the pipeline).
func TestSnapshotGrowsVertexSpaceThenDelta(t *testing.T) {
	edges := gen.ER(29, 50, 400)
	sys := NewSystem(WithWorkers(2), WithCoreSubgraph(false))
	if err := sys.LoadEdges(50, edges); err != nil {
		t.Fatal(err)
	}
	mut := append([]Edge(nil), edges...)
	mut[0] = Edge{Src: 80, Dst: 3, Weight: 1} // endpoint beyond N=50
	if err := sys.AddSnapshot(mut, 10); err != nil {
		t.Fatal(err)
	}
	if got := sys.store.Latest().PG.G.N; got != 81 {
		t.Fatalf("snapshot N = %d, want 81", got)
	}
	ack, err := sys.ApplyDelta(Delta{
		Mutations: []Mutation{{Op: MutationAdd, Edge: Edge{Src: 81, Dst: 0, Weight: 1}}},
		Flush:     true,
	})
	if err != nil {
		t.Fatalf("structural delta after vertex-growing snapshot: %v", err)
	}
	if !ack.Flushed || sys.store.Latest().PG.G.N != 82 {
		t.Fatalf("delta after snapshot growth: ack=%+v N=%d", ack, sys.store.Latest().PG.G.N)
	}
}

// TestVertexGrowthBound: a structural mutation naming an absurd vertex id
// is rejected atomically at admission instead of forcing a dense
// vertex-table allocation to match it; the bound is evolve.MaxVertexGrowth
// past the current vertex space.
func TestVertexGrowthBound(t *testing.T) {
	edges := gen.ER(31, 40, 300)
	sys := NewSystem(WithWorkers(1), WithCoreSubgraph(false))
	if err := sys.LoadEdges(40, edges); err != nil {
		t.Fatal(err)
	}
	const last = 40 + evolve.MaxVertexGrowth - 1 // the largest admissible id
	for _, m := range []Mutation{
		{Op: MutationAddVertex, Vertex: last + 1},                 // one past the bound
		{Op: MutationAdd, Edge: Edge{Src: 0, Dst: 1<<32 - 1}},     // the NoVertex sentinel
		{Op: MutationRewrite, Slot: 0, Edge: Edge{Src: last + 1}}, // rewrite endpoints grow the space too
		{Op: MutationAddVertex, Vertex: 4294967294},               // ~2^32: would allocate gigabytes
	} {
		if _, err := sys.ApplyDelta(Delta{Mutations: []Mutation{m}}); err == nil {
			t.Fatalf("mutation %+v accepted past the growth bound", m)
		}
	}
	if sys.IngestStats().Pending != 0 {
		t.Fatal("rejected mutations were buffered")
	}
	// In-bound growth materializes, and removes of huge ids are exempt —
	// they just miss.
	if _, err := sys.ApplyDelta(Delta{Mutations: []Mutation{
		{Op: MutationAddVertex, Vertex: 139},
		{Op: MutationRemove, Edge: Edge{Src: 4294967294, Dst: 1}},
	}, Flush: true}); err != nil {
		t.Fatalf("in-bound growth rejected: %v", err)
	}
	if got := sys.store.Latest().PG.G.N; got != 140 {
		t.Fatalf("N = %d, want 140", got)
	}
	// The boundary id of the grown space is admitted. It stays buffered:
	// materializing it would allocate vertex tables a million entries long.
	if _, err := sys.ApplyDelta(Delta{Mutations: []Mutation{{Op: MutationAddVertex, Vertex: 140 + evolve.MaxVertexGrowth - 1}}}); err != nil {
		t.Fatalf("boundary id rejected: %v", err)
	}
	if _, err := sys.ApplyDelta(Delta{Mutations: []Mutation{{Op: MutationAddVertex, Vertex: 140 + evolve.MaxVertexGrowth}}}); err == nil {
		t.Fatal("one past the grown space's bound accepted")
	}
	if got := sys.IngestStats().Pending; got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
}

// TestHoleCompaction pins the hole-compaction trigger (evolve.CompactRatio):
// a remove-heavy flush that pushes the tombstone share past the ratio
// compacts the edge list in place — the snapshot's slot space shrinks to
// the live count, the next add appends instead of refilling a hole, and
// computation over the compacted snapshot still matches the reference.
func TestHoleCompaction(t *testing.T) {
	const n = 120
	base := gen.ER(29, n, 1600)
	sys := NewSystem(WithWorkers(2), WithCoreSubgraph(false), WithPartitions(8))
	if err := sys.LoadEdges(n, base); err != nil {
		t.Fatal(err)
	}

	// Remove 30% of the slots in one flush: crossing the default 0.25
	// trigger must compact within the same materialization.
	d := Delta{Flush: true}
	for s := 0; s < 480; s++ {
		d.Mutations = append(d.Mutations, Mutation{Op: MutationRemove, Edge: base[s]})
	}
	if _, err := sys.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	pg := sys.store.Latest().PG
	// Duplicate endpoint pairs in the generated list make the exact remove
	// count data-dependent; the compaction contract is that no tombstone
	// slot survives the flush.
	if pg.G.Slots != pg.G.NumEdges || pg.G.Slots >= 1600 {
		t.Fatalf("slots/live after compaction = %d/%d, want equal and < 1600", pg.G.Slots, pg.G.NumEdges)
	}
	ist := sys.IngestStats()
	if ist.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", ist.Compactions)
	}

	// With no holes left, an add must append a fresh slot.
	compactedSlots := pg.G.Slots
	d = Delta{Flush: true, Mutations: []Mutation{
		{Op: MutationAdd, Edge: Edge{Src: 7, Dst: 90, Weight: 1}},
	}}
	if _, err := sys.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if got := sys.store.Latest().PG.G.Slots; got != compactedSlots+1 {
		t.Fatalf("slots after post-compaction add = %d, want %d", got, compactedSlots+1)
	}
	if got := sys.IngestStats().Compactions; got != 1 {
		t.Fatalf("compactions after hole-free add = %d, want 1", got)
	}

	// Parity over the compacted list: the holes' disappearance must be
	// invisible to computation.
	live := liveEdges(sys)
	job, err := sys.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	ref := refimpl.PageRank(graph.Build(n, live), 0.85, 1e-12, 3000)
	for v := range got {
		if math.Abs(got[v]-ref[v]) > 1e-5 {
			t.Fatalf("vertex %d: %v != refimpl %v", v, got[v], ref[v])
		}
	}
}

// seriesEdges reads the system's current edge list, holes included.
func seriesEdges(sys *System) []Edge {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	return sys.series.Edges()
}

// liveEdges is seriesEdges without the removal holes.
func liveEdges(sys *System) []Edge {
	return slices.DeleteFunc(seriesEdges(sys), Edge.IsHole)
}
