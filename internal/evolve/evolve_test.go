package evolve

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/ingest"
	"cgraph/internal/span"
	"cgraph/internal/storage"
	"cgraph/model"
)

// state is a deep copy of everything a step may change.
type state struct {
	edges       []model.Edge
	free        []int
	index       map[uint64][]int
	numVertices int
	compactions int64
}

func capture(s *Series) state {
	st := state{edges: s.Edges(), free: slices.Clone(s.free), numVertices: s.numVertices, compactions: s.compactions}
	if s.index != nil {
		st.index = make(map[uint64][]int, len(s.index))
		for k, v := range s.index {
			st.index[k] = slices.Clone(v)
		}
	}
	return st
}

// equalState compares two captures exactly: slot contents (holes by
// IsHole, their weight being NaN), free-list and index-list order.
func equalState(a, b state) bool {
	return slices.EqualFunc(a.edges, b.edges, same) && slices.Equal(a.free, b.free) &&
		maps.EqualFunc(a.index, b.index, slices.Equal[[]int]) && (a.index == nil) == (b.index == nil) &&
		a.numVertices == b.numVertices && a.compactions == b.compactions
}

// newSeries cuts a plain-mode base snapshot of edges into a store at
// timestamp 0 and starts a series over it.
func newSeries(t *testing.T, numVertices int, edges []model.Edge, parts int) (*Series, *storage.SnapshotStore) {
	t.Helper()
	g := graph.Build(numVertices, edges)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	return New(edges, g.N), storage.NewSnapshotStore(pg, 0)
}

// publishAt returns a publish func that adds the snapshot to store at ts.
func publishAt(store *storage.SnapshotStore, ts int64) func(*graph.PGraph) error {
	return func(pg *graph.PGraph) error { return store.Add(pg, ts) }
}

func removes(edges []model.Edge) []ingest.Mutation {
	var muts []ingest.Mutation
	for _, e := range edges {
		if !e.IsHole() {
			muts = append(muts, ingest.Mutation{Op: ingest.RemoveEdge, Edge: e})
		}
	}
	return muts
}

// TestUndoJournal: a step that fails — on a batch that would remove every
// edge, or on a publish the store refuses because its timestamp is not
// after the latest — leaves the edge list, free list, remove index, vertex
// space and compaction count exactly as they were, and the next valid
// batch applies exactly as it does on a twin series that never saw the
// failure.
func TestUndoJournal(t *testing.T) {
	base := gen.ER(5, 30, 240)
	// History before the failure: a removal run (builds the index and
	// leaves holes), a rewrite of one hole and one live slot, an add
	// refilling a hole.
	history := [][]ingest.Mutation{
		removes(base[10:30]),
		{
			{Op: ingest.Rewrite, Slot: 3, Edge: model.Edge{Src: 1, Dst: 2, Weight: 3}},
			{Op: ingest.Rewrite, Slot: 29, Edge: model.Edge{Src: 4, Dst: 5, Weight: 1}},
			{Op: ingest.AddEdge, Edge: model.Edge{Src: 6, Dst: 7, Weight: 1}},
		},
	}
	next := []ingest.Mutation{
		{Op: ingest.RemoveEdge, Edge: base[40]},
		{Op: ingest.AddEdge, Edge: model.Edge{Src: 30, Dst: 0, Weight: 2}},
	}
	for _, tc := range []struct {
		name string
		fail func(s *Series, store *storage.SnapshotStore) error
	}{
		{"remove every edge", func(s *Series, store *storage.SnapshotStore) error {
			muts := append(removes(s.edges), ingest.Mutation{Op: ingest.AddVertex, Vertex: 99})
			_, err := s.Apply(store.Latest().PG, muts, publishAt(store, 100))
			return err
		}},
		{"stale snapshot timestamp", func(s *Series, store *storage.SnapshotStore) error {
			edges := s.Edges()
			edges[0], edges[1] = model.HoleEdge(), model.Edge{Src: 70, Dst: 1, Weight: 1}
			_, err := s.Replace(store.Latest().PG, edges, publishAt(store, store.Latest().Timestamp))
			return err
		}},
		{"stale timestamp after compaction", func(s *Series, store *storage.SnapshotStore) error {
			muts := append(removes(s.edges[100:200]), ingest.Mutation{Op: ingest.AddEdge, Edge: model.Edge{Src: 80, Dst: 2, Weight: 1}})
			_, err := s.Apply(store.Latest().PG, muts, publishAt(store, 1))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, store := newSeries(t, 30, base, 6)
			twin, twinStore := newSeries(t, 30, base, 6)
			for i, muts := range history {
				for _, x := range []struct {
					s     *Series
					store *storage.SnapshotStore
				}{{s, store}, {twin, twinStore}} {
					if _, err := x.s.Apply(x.store.Latest().PG, muts, publishAt(x.store, int64(i+1))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if s.index == nil || len(s.free) == 0 {
				t.Fatal("history built no remove index or left no holes")
			}
			before := capture(s)
			if err := tc.fail(s, store); err == nil {
				t.Fatal("step succeeded")
			}
			if after := capture(s); !equalState(before, after) {
				t.Fatalf("failed step changed the series:\nbefore %+v\nafter  %+v", before, after)
			}
			if store.Latest().Timestamp != int64(len(history)) {
				t.Fatal("failed step published a snapshot")
			}
			ts := int64(len(history) + 1)
			step, err := s.Apply(store.Latest().PG, next, publishAt(store, ts))
			if err != nil {
				t.Fatalf("next batch after the failure: %v", err)
			}
			want, err := twin.Apply(twinStore.Latest().PG, next, publishAt(twinStore, ts))
			if err != nil {
				t.Fatal(err)
			}
			if !equalState(capture(s), capture(twin)) || step.Applied != want.Applied || step.Rebuilt != want.Rebuilt || step.Path != want.Path {
				t.Fatalf("next batch after the failure diverged from the twin: %+v vs %+v", step, want)
			}
		})
	}
}

// TestReplaceHole: a full-list step that rewrites a slot to model.HoleEdge
// frees it — the slot joins the free list, the vertex space does not grow
// to the hole's sentinel ids — and the next add refills it in place.
func TestReplaceHole(t *testing.T) {
	base := gen.ER(3, 20, 100)
	s, store := newSeries(t, 20, base, 4)
	edges := s.Edges()
	edges[7] = model.HoleEdge()
	step, err := s.Replace(store.Latest().PG, edges, publishAt(store, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.free, []int{7}) || s.NumVertices() != 20 || step.PG.G.N != 20 || step.Path != "overlay" {
		t.Fatalf("free %v, N %d/%d, path %q; want [7], 20/20, overlay", s.free, s.NumVertices(), step.PG.G.N, step.Path)
	}
	if step.PG.G.NumEdges != 99 || step.Rebuilt != 1 {
		t.Fatalf("live edges %d, rebuilt %d; want 99, 1", step.PG.G.NumEdges, step.Rebuilt)
	}
	// The same list again is an all-shared snapshot, still registered.
	if step, err = s.Replace(store.Latest().PG, edges, publishAt(store, 6)); err != nil || step.Rebuilt != 0 || store.Latest().Timestamp != 6 {
		t.Fatalf("identical list: %+v, %v", step, err)
	}
	add := model.Edge{Src: 2, Dst: 3, Weight: 1}
	if _, err := s.Apply(store.Latest().PG, []ingest.Mutation{{Op: ingest.AddEdge, Edge: add}}, publishAt(store, 7)); err != nil {
		t.Fatal(err)
	}
	if s.Slots() != 100 || s.edges[7] != add || len(s.free) != 0 {
		t.Fatalf("add did not refill the freed slot: slots %d, slot 7 %v, free %v", s.Slots(), s.edges[7], s.free)
	}
	if _, err := s.Replace(store.Latest().PG, edges[:99], publishAt(store, 8)); err == nil {
		t.Fatal("a list of another length was accepted")
	}
}

// TestCompaction: a remove run crossing CompactRatio squeezes the holes
// out in the same step — the free list and the remove index empty, the
// slots below the first hole keep their chunks shared — and the next
// remove rebuilds the index from the compacted list.
func TestCompaction(t *testing.T) {
	base := gen.ER(29, 120, 1600)
	s, store := newSeries(t, 120, base, 8)
	step, err := s.Apply(store.Latest().PG, removes(base[600:1080]), publishAt(store, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Compactions() != 1 || len(s.free) != 0 || s.index != nil || step.Path != "restructure" {
		t.Fatalf("compactions %d, free %d, index kept %v, path %q", s.Compactions(), len(s.free), s.index != nil, step.Path)
	}
	if slices.ContainsFunc(s.edges, model.Edge.IsHole) || step.PG.G.Slots != s.Slots() {
		t.Fatal("holes survived compaction")
	}
	// Chunks 0-2 (slots below 600) are untouched.
	for id := range 3 {
		if oldest, _ := store.Window(); step.PG.Parts[id] != oldest.PG.Parts[id] {
			t.Fatalf("part %d below the first hole was rebuilt", id)
		}
	}
	if step.Shared != 3 {
		t.Fatalf("shared = %d, want 3", step.Shared)
	}
	if _, err := s.Apply(store.Latest().PG, removes(s.edges[:1]), publishAt(store, 2)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedIndex(s.index), buildIndex(s.edges)) || s.Compactions() != 1 {
		t.Fatal("the index rebuilt after compaction is stale")
	}
}

// sortedIndex copies idx with every slot list sorted ascending, the order a
// freshly built index has.
func sortedIndex(idx map[uint64][]int) map[uint64][]int {
	out := make(map[uint64][]int, len(idx))
	for k, v := range idx {
		out[k] = slices.Sorted(slices.Values(v))
	}
	return out
}

// FuzzEvolveMatchesCut streams random batches of rewrites, adds, removes
// (including runs long enough to trigger compaction) and vertex additions
// through the ingest coalescer into a series, with an occasional full-list
// Replace, and after every step checks the series against a reference
// model and the snapshot against a batch build of the series' list:
//   - the live edges (a multiset) and the vertex space match the reference;
//   - the degree table equals that of graph.Build of the list;
//   - the role table (Shared) marks exactly the replicas of vertices held by
//     more than one partition;
//   - every rebuilt partition equals a one-partition graph.Cut of its chunk
//     over that build, AvgDegree included;
//   - every chunk whose slots the step left as they were is pointer-shared
//     with the previous snapshot, and every shared chunk is such a chunk;
//   - the free list is exactly the hole slots, and the remove index equals
//     a freshly built one;
//   - a failed step left the series exactly as it was.
func FuzzEvolveMatchesCut(f *testing.F) {
	f.Add([]byte{40, 3, 60, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2, 40, 1, 3, 20, 5, 5, 5, 0, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%60
		np := 1 + next()%8
		slots := 1 + next()%96
		// An edge's weight is a function of its endpoints, so every edge of
		// one pair is the same edge and a remove's victim is unambiguous.
		edge := func(src, dst int) model.Edge {
			return model.Edge{Src: model.VertexID(src), Dst: model.VertexID(dst), Weight: float32((src*7+dst)%5 + 1)}
		}
		base := make([]model.Edge, slots)
		for i := range base {
			base[i] = edge(next()%n, next()%n)
		}
		s, store := newSeries(t, n, base, np)
		ref := make(map[model.Edge]int)
		for _, e := range base {
			ref[e]++
		}
		refN := n

		// check runs after every step: step is its result, before the
		// series as the step found it, and rewritten the slots a rewrite
		// changed. Only a rewrite can leave a slot written twice in one
		// batch and back at its old content (rewritten, its edge removed,
		// the hole refilled), so those are the slots that change without
		// showing it.
		check := func(step Step, err error, before state, prev *graph.PGraph, rewritten map[int]bool) {
			t.Helper()
			if err != nil {
				if got := capture(s); !equalState(before, got) {
					t.Fatalf("failed step (%v) changed the series", err)
				}
				return
			}
			live := slices.DeleteFunc(s.Edges(), model.Edge.IsHole)
			got := make(map[model.Edge]int)
			for _, e := range live {
				got[e]++
			}
			maps.DeleteFunc(ref, func(_ model.Edge, c int) bool { return c == 0 })
			if !maps.Equal(got, ref) || s.NumVertices() != refN {
				t.Fatalf("series holds %v over %d vertices, reference %v over %d", got, s.NumVertices(), ref, refN)
			}
			var holes []int
			for i, e := range s.edges {
				if e.IsHole() {
					holes = append(holes, i)
				}
			}
			if !slices.Equal(slices.Sorted(slices.Values(s.free)), holes) {
				t.Fatalf("free list %v, hole slots %v", s.free, holes)
			}
			if s.index != nil && !reflect.DeepEqual(sortedIndex(s.index), buildIndex(s.edges)) {
				t.Fatal("remove index differs from a fresh build")
			}
			pg := step.PG
			if pg == nil {
				return
			}
			if pg != store.Latest().PG {
				t.Fatal("step's snapshot is not the published one")
			}
			wantG := graph.Build(s.NumVertices(), s.edges)
			if !reflect.DeepEqual(pg.G, wantG.DegreeTable) {
				t.Fatal("degree table differs from a batch build of the list")
			}
			// The role table marks exactly the replicas of vertices that
			// more than one partition holds, shared partitions included.
			holders := make([]int, pg.G.N)
			for _, p := range pg.Parts {
				for _, v := range p.Globals {
					holders[v]++
				}
			}
			for id, p := range pg.Parts {
				// The engine reads a job's partition index off a unit's
				// partition, whichever snapshot the unit came from.
				if p.ID != id {
					t.Fatalf("partition at index %d has ID %d", id, p.ID)
				}
				for li, v := range p.Globals {
					if pg.Shared[id].Test(li) != (holders[v] > 1) {
						t.Fatalf("part %d: vertex %d shared bit %v with %d holders", id, v, pg.Shared[id].Test(li), holders[v])
					}
				}
			}
			if want := s.Slots() == len(before.edges) && s.NumVertices() == before.numVertices; want != (step.Path == "overlay") {
				t.Fatalf("path %q for a step from %d slots/%d vertices to %d/%d", step.Path, len(before.edges), before.numVertices, s.Slots(), s.NumVertices())
			}
			// Compaction shifts every slot from the first hole on, and a
			// shifted run of equal edges looks unchanged: after one, only
			// a shared chunk's content is checked.
			compacted := s.compactions > before.compactions
			rebuilt := 0
			for id, p := range pg.Parts {
				start, end := id*pg.ChunkSize, min((id+1)*pg.ChunkSize, s.Slots())
				untouched := id < len(prev.Parts) && end == min((id+1)*pg.ChunkSize, len(before.edges)) &&
					slices.EqualFunc(before.edges[start:end], s.edges[start:end], same) &&
					!slices.ContainsFunc(slices.Collect(maps.Keys(rewritten)), func(slot int) bool { return slot >= start && slot < end })
				shared := id < len(prev.Parts) && p == prev.Parts[id]
				if shared && !untouched || untouched && !shared && !compacted {
					t.Fatalf("part %d: shared %v, chunk untouched %v", id, shared, untouched)
				}
				if shared {
					continue
				}
				rebuilt++
				one, err := graph.Cut(wantG, s.edges[start:end], graph.Options{NumPartitions: 1})
				if err != nil {
					t.Fatal(err)
				}
				if d := partDiff(p, one.Parts[0]); d != "" {
					t.Fatalf("rebuilt part %d: %s", id, d)
				}
			}
			if rebuilt != step.Rebuilt || len(pg.Parts)-rebuilt != step.Shared {
				t.Fatalf("step reports %d rebuilt/%d shared, counted %d/%d", step.Rebuilt, step.Shared, rebuilt, len(pg.Parts)-rebuilt)
			}
		}

		// The reference applies the coalesced batch the series receives.
		flushed := false
		p, err := ingest.New(ingest.Config{
			Slots:    s.Slots,
			MaxBatch: 1 << 20,
			Materialize: func(muts []ingest.Mutation, _ int64, _ span.Context) (ingest.Result, error) {
				flushed = true
				before, prev := capture(s), store.Latest().PG
				rewritten := make(map[int]bool)
				for _, m := range muts {
					if m.Op == ingest.Rewrite && !same(before.edges[m.Slot], m.Edge) {
						rewritten[m.Slot] = true
					}
				}
				step, err := s.Apply(prev, muts, publishAt(store, store.Latest().Timestamp+1))
				if err == nil {
					if misses := applyRef(ref, &refN, before.edges, muts); misses != step.Misses {
						t.Fatalf("step counted %d misses, reference %d", step.Misses, misses)
					}
				}
				check(step, err, before, prev, rewritten)
				return ingest.Result{Built: step.PG != nil}, err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for len(data) > 0 {
			if next()%8 == 7 {
				// A full-list step: rewrite a few slots, some to holes.
				edges := s.Edges()
				for k := next() % 4; k >= 0; k-- {
					i, src := next()%len(edges), next()
					if src >= 200 {
						edges[i] = model.HoleEdge()
					} else {
						edges[i] = edge(src%n, next()%(n+2))
					}
				}
				before, prev := capture(s), store.Latest().PG
				step, err := s.Replace(prev, edges, publishAt(store, store.Latest().Timestamp+1))
				if err == nil {
					var muts []ingest.Mutation
					for i, e := range edges {
						muts = append(muts, ingest.Mutation{Op: ingest.Rewrite, Slot: i, Edge: e})
					}
					applyRef(ref, &refN, before.edges, muts)
				}
				check(step, err, before, prev, nil)
				continue
			}
			var batch []ingest.Mutation
			for k := next() % 6; k >= 0; k-- {
				switch op := next(); {
				case op < 80:
					batch = append(batch, ingest.Mutation{Op: ingest.Rewrite, Slot: next() % s.Slots(), Edge: edge(next()%n, next()%(n+2))})
				case op < 140:
					batch = append(batch, ingest.Mutation{Op: ingest.AddEdge, Edge: edge(next()%(n+3), next()%n)})
				case op < 200:
					// A remove of a pair that may be absent (a miss).
					batch = append(batch, ingest.Mutation{Op: ingest.RemoveEdge, Edge: edge(next()%n, next()%n)})
				case op < 230:
					// A run of removes of live edges, up to half the list.
					cur := s.Edges()
					start := next() % len(cur)
					batch = append(batch, removes(cur[start:min(len(cur), start+next()%(len(cur)/2+1))])...)
				default:
					batch = append(batch, ingest.Mutation{Op: ingest.AddVertex, Vertex: model.VertexID(next() % (n + 8))})
				}
			}
			flushed = false
			if _, err := p.Apply(batch, 0, true); err != nil && !flushed {
				t.Fatal(err)
			}
		}
	})
}

// applyRef applies a batch in the series' order to the reference multiset
// and vertex space: list is the series' edge list before the batch, which
// names the edge a rewrite replaces. It returns the misses.
func applyRef(ref map[model.Edge]int, refN *int, list []model.Edge, muts []ingest.Mutation) int {
	misses := 0
	grow := func(e model.Edge) {
		if !e.IsHole() {
			ref[e]++
			*refN = max(*refN, int(e.Src)+1, int(e.Dst)+1)
		}
	}
	for _, m := range muts {
		switch m.Op {
		case ingest.Rewrite:
			old := list[m.Slot]
			if same(old, m.Edge) {
				continue
			}
			if !old.IsHole() {
				ref[old]--
			}
			grow(m.Edge)
		case ingest.RemoveEdge:
			if ref[m.Edge] == 0 {
				misses++
				continue
			}
			ref[m.Edge]--
		case ingest.AddEdge:
			grow(m.Edge)
		case ingest.AddVertex:
			*refN = max(*refN, int(m.Vertex)+1)
		}
	}
	return misses
}

// partDiff compares two partitions field by field, except the ID and the
// process-unique UID.
func partDiff(got, want *graph.Partition) string {
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if name == "ID" || name == "UID" {
			continue
		}
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			return name + " differs from a one-partition Cut of the chunk"
		}
	}
	return ""
}
