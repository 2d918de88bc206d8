package storage

import (
	"slices"
	"testing"

	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/model"
)

// constProg is a trivial program for table tests: value = vertex id,
// active iff id is even.
type constProg struct{}

func (constProg) Name() string                { return "const" }
func (constProg) Direction() model.Direction  { return model.Out }
func (constProg) Identity() float64           { return 0 }
func (constProg) Acc(a, b float64) float64    { return a + b }
func (constProg) IsActive(s model.State) bool { return s.Delta != 0 }
func (constProg) Init(v model.VertexID, _ model.GraphInfo) (model.State, bool) {
	return model.State{Value: float64(v)}, v%2 == 0
}
func (constProg) Apply(_ model.VertexID, s *model.State, _ int) (float64, bool) {
	s.Delta = 0
	return 0, false
}
func (constProg) Contribution(seed float64, _ float32) float64 { return seed }

func buildPG(t *testing.T, seed int64, parts int) (*graph.PGraph, []model.Edge) {
	t.Helper()
	edges := gen.ER(seed, 80, 800)
	g := graph.Build(0, edges)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	return pg, edges
}

func TestSnapshotResolve(t *testing.T) {
	pg, edges := buildPG(t, 1, 4)
	store := NewSnapshotStore(pg, 100)

	mut, slots := gen.Mutate(edges, 0.02, 80, 2)
	changed := graph.ChangedPartitions(slots, pg.ChunkSize, len(pg.Parts))
	pg2, err := graph.Overlay(pg, mut, changed)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Add(pg2, 200); err != nil {
		t.Fatal(err)
	}

	if got := store.Resolve(50).Timestamp; got != 100 {
		t.Fatalf("Resolve(50) = ts %d, want base 100", got)
	}
	if got := store.Resolve(150).Timestamp; got != 100 {
		t.Fatalf("Resolve(150) = ts %d, want 100", got)
	}
	if got := store.Resolve(200).Timestamp; got != 200 {
		t.Fatalf("Resolve(200) = ts %d, want 200", got)
	}
	if got := store.Resolve(999).Timestamp; got != 200 {
		t.Fatalf("Resolve(999) = ts %d, want 200", got)
	}
	if store.Latest().Timestamp != 200 || store.Len() != 2 {
		t.Fatal("Latest/Len broken")
	}
}

// addVersion mutates a few slots of edges and appends the overlay snapshot
// at ts, returning the mutated list for chaining.
func addVersion(t *testing.T, store *SnapshotStore, edges []model.Edge, ts, seed int64) []model.Edge {
	t.Helper()
	prev := store.Latest().PG
	mut, slots := gen.Mutate(edges, 0.02, 80, seed)
	changed := graph.ChangedPartitions(slots, prev.ChunkSize, len(prev.Parts))
	pg, err := graph.Overlay(prev, mut, changed)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Add(pg, ts); err != nil {
		t.Fatal(err)
	}
	return mut
}

func TestResolveBinarySearch(t *testing.T) {
	pg, edges := buildPG(t, 1, 4)
	store := NewSnapshotStore(pg, 100)
	for i, ts := range []int64{200, 300, 400} {
		edges = addVersion(t, store, edges, ts, int64(10+i))
	}
	cases := []struct {
		arrival int64
		wantTS  int64
		wantSeq int
	}{
		{50, 100, 0},   // before the base: sees the base
		{100, 100, 0},  // exact hit on the base
		{300, 300, 2},  // exact hit mid-series
		{350, 300, 2},  // between two snapshots: the older one
		{400, 400, 3},  // exact hit on the latest
		{9999, 400, 3}, // after the latest
	}
	for _, c := range cases {
		snap, seq := store.ResolveIndex(c.arrival)
		if snap.Timestamp != c.wantTS || seq != c.wantSeq || snap.Seq != c.wantSeq {
			t.Fatalf("ResolveIndex(%d) = ts %d seq %d, want ts %d seq %d",
				c.arrival, snap.Timestamp, seq, c.wantTS, c.wantSeq)
		}
		if got := store.Resolve(c.arrival).Timestamp; got != c.wantTS {
			t.Fatalf("Resolve(%d) = ts %d, want %d", c.arrival, got, c.wantTS)
		}
	}
}

func TestRetentionEvictsUnreferenced(t *testing.T) {
	pg, edges := buildPG(t, 1, 4)
	store := NewSnapshotStore(pg, 100)
	store.SetRetention(2)
	for i := 0; i < 5; i++ {
		edges = addVersion(t, store, edges, int64(200+100*i), int64(20+i))
	}
	if store.Len() != 2 || store.Evicted() != 4 {
		t.Fatalf("len %d evicted %d, want 2 and 4", store.Len(), store.Evicted())
	}
	if _, ok := store.At(0); ok {
		t.Fatal("evicted base still resolvable via At")
	}
	if snap, ok := store.At(4); !ok || snap.Timestamp != 500 {
		t.Fatalf("At(4) = %+v %v, want retained ts 500", snap, ok)
	}
	// Arrivals older than the retained window resolve to the oldest
	// retained snapshot.
	if got := store.Resolve(0).Timestamp; got != 500 {
		t.Fatalf("Resolve(0) = ts %d, want oldest retained 500", got)
	}
	if store.Latest().Timestamp != 600 {
		t.Fatal("latest lost")
	}
	if got := sharedParts(store, 0, 5); got != -1 {
		t.Fatalf("sharedParts with evicted seq = %d, want -1", got)
	}
	if got := sharedParts(store, 4, 5); got < 0 {
		t.Fatalf("sharedParts of retained pair = %d", got)
	}
	// Retention never evicts the latest, even at cap 1.
	store.SetRetention(1)
	if store.Len() != 1 || store.Latest().Timestamp != 600 {
		t.Fatalf("len %d latest %d after cap 1", store.Len(), store.Latest().Timestamp)
	}
}

// sharedParts counts the partitions the retained snapshots with Seqs i and
// j share by pointer; -1 if either was evicted.
func sharedParts(s *SnapshotStore, i, j int) int {
	a, okA := s.At(i)
	b, okB := s.At(j)
	if !okA || !okB {
		return -1
	}
	n := 0
	for k, p := range a.PG.Parts {
		if k < len(b.PG.Parts) && p == b.PG.Parts[k] {
			n++
		}
	}
	return n
}

// refs reads the bound-job reference count of the snapshot with Seq seq.
func refs(s *SnapshotStore, seq int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs[seq]
}

func TestRetentionPinsReferencedSnapshot(t *testing.T) {
	pg, edges := buildPG(t, 1, 4)
	store := NewSnapshotStore(pg, 100)
	store.SetRetention(2)
	// A job binds to the base; eviction must stop in front of it.
	bound := store.Acquire(100)
	if bound.Seq != 0 || refs(store, 0) != 1 {
		t.Fatalf("Acquire = seq %d refs %d", bound.Seq, refs(store, 0))
	}
	for i := 0; i < 4; i++ {
		edges = addVersion(t, store, edges, int64(200+100*i), int64(30+i))
	}
	if store.Len() != 5 || store.Evicted() != 0 {
		t.Fatalf("pinned series evicted: len %d evicted %d", store.Len(), store.Evicted())
	}
	if snap, ok := store.At(0); !ok || snap.PG != bound.PG {
		t.Fatal("bound snapshot evicted out from under its job")
	}
	// The job retires: GC runs on Release and shrinks to the cap.
	store.Release(0)
	if store.Len() != 2 || store.Evicted() != 3 {
		t.Fatalf("after release: len %d evicted %d, want 2 and 3", store.Len(), store.Evicted())
	}
	// Releasing an evicted or unknown seq is a no-op.
	store.Release(0)
	store.Release(99)
	if store.Len() != 2 {
		t.Fatal("no-op release changed the store")
	}
}

func TestRetentionSoakStaysBounded(t *testing.T) {
	pg, edges := buildPG(t, 1, 4)
	store := NewSnapshotStore(pg, 100)
	store.SetRetention(3)
	// Jobs continuously bind to the latest version and retire one version
	// later; the live series must stay bounded the whole run.
	prevSeq := -1
	for i := 0; i < 60; i++ {
		edges = addVersion(t, store, edges, int64(200+100*i), int64(100+i))
		snap := store.Acquire(store.Latest().Timestamp)
		if prevSeq >= 0 {
			store.Release(prevSeq)
		}
		prevSeq = snap.Seq
		// One in-flight ref can pin at most one snapshot beyond the cap.
		if store.Len() > 4 {
			t.Fatalf("iteration %d: live snapshots %d exceed bound", i, store.Len())
		}
	}
	store.Release(prevSeq)
	if store.Len() != 3 {
		t.Fatalf("final live %d, want retention cap 3", store.Len())
	}
	if store.Evicted() != 58 {
		t.Fatalf("evicted %d, want 58", store.Evicted())
	}
}

func TestSnapshotTimestampMonotone(t *testing.T) {
	pg, _ := buildPG(t, 1, 4)
	store := NewSnapshotStore(pg, 100)
	if err := store.Add(pg, 100); err == nil {
		t.Fatal("want error for non-increasing timestamp")
	}
}

func TestOverlaySharesUnchangedParts(t *testing.T) {
	pg, edges := buildPG(t, 3, 8)
	// Mutate a handful of slots all in partition 0's chunk.
	mut := append([]model.Edge(nil), edges...)
	mut[0] = model.Edge{Src: 1, Dst: 2, Weight: 1}
	mut[1] = model.Edge{Src: 3, Dst: 4, Weight: 1}
	pg2, err := graph.Overlay(pg, mut, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	store := NewSnapshotStore(pg, 1)
	if err := store.Add(pg2, 2); err != nil {
		t.Fatal(err)
	}
	if got := sharedParts(store, 0, 1); got != 7 {
		t.Fatalf("shared parts = %d, want 7", got)
	}
	if pg2.Parts[0] == pg.Parts[0] {
		t.Fatal("changed partition must be rebuilt")
	}
	if pg2.Parts[0].UID == pg.Parts[0].UID {
		t.Fatal("rebuilt partition must get a fresh UID")
	}
	// Replica invariants hold on the overlay: one master per vertex.
	masters := map[model.VertexID]int{}
	for pi, p := range pg2.Parts {
		for li, v := range p.Globals {
			if pg2.Masters[pi][li] {
				masters[v]++
			}
		}
	}
	for v, c := range masters {
		if c != 1 {
			t.Fatalf("vertex %d has %d masters in overlay", v, c)
		}
	}
}

func TestOverlayErrors(t *testing.T) {
	pg, edges := buildPG(t, 3, 4)
	if _, err := graph.Overlay(pg, edges, []int{99}); err == nil {
		t.Fatal("want error for out-of-range partition")
	}
	if _, err := graph.Overlay(pg, edges[:10], nil); err == nil {
		t.Fatal("want error when edge count changes partition count")
	}
	// A list a few slots shorter or longer that keeps the partition count
	// would leave the shared tail partition stale: refused as well.
	if _, err := graph.Overlay(pg, edges[:len(edges)-3], nil); err == nil {
		t.Fatal("want error for a shorter list with the same partition count")
	}
	pg3, edges3 := buildPG(t, 3, 3)
	if longer := append(slices.Clone(edges3), edges3[0]); (len(longer)+pg3.ChunkSize-1)/pg3.ChunkSize != len(pg3.Parts) {
		t.Fatalf("setup: %d slots changes the partition count", len(longer))
	} else if _, err := graph.Overlay(pg3, longer, []int{len(pg3.Parts) - 1}); err == nil {
		t.Fatal("want error for a longer list with the same partition count")
	}
	g := graph.Build(0, edges)
	corePG, err := graph.Cut(g, edges, graph.Options{NumPartitions: 4, CoreSubgraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graph.Overlay(corePG, edges, nil); err == nil {
		t.Fatal("want error for core-subgraph overlay")
	}
}

func TestPrivateTableInit(t *testing.T) {
	pg, _ := buildPG(t, 5, 4)
	pt := NewPrivateTable(3, pg, constProg{})
	if pt.JobID != 3 {
		t.Fatal("job id lost")
	}
	for pi, p := range pg.Parts {
		if len(pt.States[pi]) != p.NumVertices() {
			t.Fatalf("part %d: state len mismatch", pi)
		}
		for li, v := range p.Globals {
			if pt.States[pi][li].Value != float64(v) {
				t.Fatalf("init value wrong for %d", v)
			}
			if pt.Active[pi].Test(li) != (v%2 == 0) {
				t.Fatalf("activation wrong for %d", v)
			}
		}
		if pt.ActiveCount[pi] != pt.Active[pi].Count() {
			t.Fatalf("part %d: cached count stale", pi)
		}
		if pt.Bytes[pi] != 64+int64(p.NumVertices())*16 {
			t.Fatalf("part %d: bytes accounting wrong", pi)
		}
	}
	if !pt.HasActive() {
		t.Fatal("table must start active")
	}
}

func TestPrivateTableAdvance(t *testing.T) {
	pg, _ := buildPG(t, 5, 4)
	pt := NewPrivateTable(0, pg, constProg{})
	pt.Next[1].Set(0)
	pt.Next[1].Set(1)
	pt.Received[1].Set(2)
	counts := make([]int, len(pt.Active))
	counts[1] = 2 // the caller's tally of the bits it set
	pt.Advance(counts)
	if pt.ActiveCount[1] != 2 || !pt.Active[1].Test(0) || !pt.Active[1].Test(1) {
		t.Fatal("Advance did not promote Next")
	}
	if slices.ContainsFunc(counts, func(c int) bool { return c != 0 }) {
		t.Fatalf("Advance left the tally %v, want it zeroed", counts)
	}
	if pt.Next[1].Any() || pt.Received[1].Any() {
		t.Fatal("Advance did not clear Next/Received")
	}
	if pt.ActiveCount[0] != 0 || pt.HasActive() != true {
		t.Fatalf("counts wrong after Advance: %v", pt.ActiveCount)
	}
	total := 0
	for _, c := range pt.ActiveCount {
		total += c
	}
	if total != 2 {
		t.Fatalf("active vertices = %d, want 2", total)
	}
	parts := pt.ActiveParts()
	if len(parts) != 1 || parts[0] != 1 {
		t.Fatalf("ActiveParts = %v, want [1]", parts)
	}
}

func TestResultUsesMasterAndInitFallback(t *testing.T) {
	// Vertex 90 exists (N=100 explicit) but has no edges, so no replica.
	edges := []model.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}
	g := graph.Build(100, edges)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPrivateTable(0, pg, constProg{})
	m := pg.MasterOf[1]
	pt.States[m.Part][m.Local].Value = 42
	if got := pt.Result(1, constProg{}); got != 42 {
		t.Fatalf("Result(1) = %v, want master value 42", got)
	}
	if got := pt.Result(90, constProg{}); got != 90 {
		t.Fatalf("Result(90) = %v, want init fallback 90", got)
	}
	res := pt.Results(constProg{})
	if len(res) != 100 || res[1] != 42 || res[90] != 90 {
		t.Fatal("Results materialization wrong")
	}
}

// resultProg is constProg with a Resulter that doubles the stored value.
type resultProg struct{ constProg }

func (resultProg) Result(_ model.VertexID, s model.State) float64 { return 2 * s.Value }

// TestResultsAllocatesOnce: when every vertex has edges, Results allocates
// its output slice and nothing per vertex — the State it reads stays on the
// stack, and a Resulter is resolved once per call.
func TestResultsAllocatesOnce(t *testing.T) {
	var edges []model.Edge
	for v := range 64 {
		edges = append(edges, model.Edge{Src: model.VertexID(v), Dst: model.VertexID((v + 1) % 64)})
	}
	pg, err := graph.Cut(graph.Build(64, edges), edges, graph.Options{NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []model.Program{constProg{}, resultProg{}} {
		pt := NewPrivateTable(0, pg, prog)
		var res []float64
		if n := testing.AllocsPerRun(20, func() { res = pt.Results(prog) }); n != 1 {
			t.Errorf("%T: Results made %v allocations, want 1 (the output slice)", prog, n)
		}
		for v, got := range res {
			if want := pt.Result(model.VertexID(v), prog); got != want {
				t.Fatalf("%T: Results[%d] = %v, Result = %v", prog, v, got, want)
			}
		}
	}
}

// TestWindowBounds: Window reports the retained series' oldest and newest
// snapshots, tracking retention eviction.
func TestWindowBounds(t *testing.T) {
	pg, _ := buildPG(t, 31, 4)
	s := NewSnapshotStore(pg, 0)
	oldest, newest := s.Window()
	if oldest.Seq != 0 || newest.Seq != 0 || oldest.Timestamp != 0 {
		t.Fatalf("base window = %+v .. %+v", oldest, newest)
	}
	for ts := int64(10); ts <= 50; ts += 10 {
		if err := s.Add(pg, ts); err != nil {
			t.Fatal(err)
		}
	}
	oldest, newest = s.Window()
	if oldest.Seq != 0 || newest.Seq != 5 || newest.Timestamp != 50 {
		t.Fatalf("unbounded window = %+v .. %+v", oldest, newest)
	}
	s.SetRetention(2)
	oldest, newest = s.Window()
	if oldest.Seq != 4 || oldest.Timestamp != 40 || newest.Seq != 5 || newest.Timestamp != 50 {
		t.Fatalf("retained window = %+v .. %+v", oldest, newest)
	}
}
