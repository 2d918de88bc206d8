package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"cgraph/algo"
	"cgraph/internal/bitset"
	"cgraph/internal/graph"
	"cgraph/internal/storage"
	"cgraph/model"
)

// pushReference is Algorithm 2 as it was written before the direct-fold
// rewrite — Snew entries gathered into a slice, sorted by master location,
// folded, then the aggregation set sorted and broadcast — kept as the oracle
// of TestPushMatchesReference. The entry sort is stable, so entries bound for
// the same master fold in gather order (ascending source partition): the
// order Push defines. It walks every receiver, shared or not, so on a table
// whose Next sets are empty it stands for the sweeps' settle and Push
// together.
func pushReference(j *Job) PushSummary {
	ident := j.Prog.Identity()
	pg := j.PG

	type entry struct {
		v          model.VertexID
		masterPart int32
		delta      float64
	}
	var entries []entry
	touched := make(map[int]bool)
	type pv struct {
		part  int32
		local uint32
	}
	masterSeen := make(map[pv]bool)
	var masters []pv

	for pid := range pg.Parts {
		states := j.PT.States[pid]
		j.PT.Received[pid].Range(func(li int) bool {
			if states[li].Delta == ident {
				return true
			}
			touched[pid] = true
			if pg.Masters[pid][li] {
				key := pv{int32(pid), uint32(li)}
				if !masterSeen[key] {
					masterSeen[key] = true
					masters = append(masters, key)
				}
				return true
			}
			entries = append(entries, entry{
				v:          pg.Parts[pid].Globals[li],
				masterPart: pg.MasterOf[pg.Parts[pid].Globals[li]].Part,
				delta:      states[li].Delta,
			})
			states[li].Delta = ident
			return true
		})
	}

	sort.SliceStable(entries, func(a, b int) bool {
		if entries[a].masterPart != entries[b].masterPart {
			return entries[a].masterPart < entries[b].masterPart
		}
		return entries[a].v < entries[b].v
	})

	for _, e := range entries {
		m := pg.MasterOf[e.v]
		st := &j.PT.States[m.Part][m.Local]
		st.Delta = j.Prog.Acc(st.Delta, e.delta)
		touched[int(m.Part)] = true
		key := pv{m.Part, m.Local}
		if !masterSeen[key] {
			masterSeen[key] = true
			masters = append(masters, key)
		}
	}

	sort.Slice(masters, func(a, b int) bool {
		if masters[a].part != masters[b].part {
			return masters[a].part < masters[b].part
		}
		return masters[a].local < masters[b].local
	})

	for _, m := range masters {
		st := &j.PT.States[m.part][m.local]
		if st.Delta == ident || !j.Prog.IsActive(*st) {
			continue
		}
		v := pg.Parts[m.part].Globals[m.local]
		final := st.Delta
		for _, loc := range pg.ReplicaLocations(v) {
			j.PT.States[loc.Part][loc.Local].Delta = final
			j.PT.Next[loc.Part].Set(int(loc.Local))
			touched[int(loc.Part)] = true
		}
	}

	sum := PushSummary{Entries: int64(len(entries))}
	for pid := range touched {
		sum.TouchedParts = append(sum.TouchedParts, pid)
	}
	sort.Ints(sum.TouchedParts)
	return sum
}

func cloneSets(sets []*bitset.Set) []*bitset.Set {
	out := make([]*bitset.Set, len(sets))
	for i, s := range sets {
		out[i] = bitset.New(s.Cap())
		out[i].CopyFrom(s)
	}
	return out
}

// clonePrivateTable deep-copies the states and activity sets Push touches.
func clonePrivateTable(pt *storage.PrivateTable) *storage.PrivateTable {
	c := *pt
	c.States = make([][]model.State, len(pt.States))
	for pid, st := range pt.States {
		c.States[pid] = slices.Clone(st)
	}
	c.Active, c.Next, c.Received = cloneSets(pt.Active), cloneSets(pt.Next), cloneSets(pt.Received)
	return &c
}

func sameSets(a, b []*bitset.Set) error {
	for pid := range a {
		for i := 0; i < a[pid].Cap(); i++ {
			if a[pid].Test(i) != b[pid].Test(i) {
				return fmt.Errorf("partition %d bit %d: %v != %v", pid, i, a[pid].Test(i), b[pid].Test(i))
			}
		}
	}
	return nil
}

// samePush reports the first bitwise difference between the tables two
// pushes left behind.
func samePush(got, want *storage.PrivateTable) error {
	for pid := range want.States {
		for li, w := range want.States[pid] {
			g := got.States[pid][li]
			if math.Float64bits(g.Value) != math.Float64bits(w.Value) || math.Float64bits(g.Delta) != math.Float64bits(w.Delta) {
				return fmt.Errorf("state [%d][%d] = %+v, reference %+v", pid, li, g, w)
			}
		}
	}
	if err := sameSets(got.Next, want.Next); err != nil {
		return fmt.Errorf("Next: %w", err)
	}
	if err := sameSets(got.Received, want.Received); err != nil {
		return fmt.Errorf("Received: %w", err)
	}
	return nil
}

// holePunched derives the kind of snapshot evolve_ingest runs over: an
// Overlay that frees some slots and reverses others, then a Restructure that
// appends edges reaching two vertices beyond the base vertex space.
func holePunched(t testing.TB, edges []model.Edge, n, parts int) *graph.PGraph {
	t.Helper()
	base := buildPG(t, edges, n, parts)
	mut := slices.Clone(edges)
	var slots []int
	for s := 0; s < len(mut); s += 7 {
		mut[s] = model.HoleEdge()
		slots = append(slots, s)
	}
	for s := 3; s < len(mut); s += 11 {
		if mut[s].IsHole() {
			continue
		}
		mut[s] = model.Edge{Src: mut[s].Dst, Dst: mut[s].Src, Weight: mut[s].Weight + 1}
		slots = append(slots, s)
	}
	over, err := graph.Overlay(base, mut, graph.ChangedPartitions(slots, base.ChunkSize, len(base.Parts)))
	if err != nil {
		t.Fatal(err)
	}
	var changed []int
	for i := 0; i < 20; i++ {
		changed = append(changed, len(mut))
		mut = append(mut, model.Edge{Src: model.VertexID(i * 9 % n), Dst: model.VertexID(n + i%2), Weight: float32(1 + i%5)})
		changed = append(changed, len(mut))
		mut = append(mut, model.Edge{Src: model.VertexID(n + i%2), Dst: model.VertexID(i * 13 % n), Weight: float32(1 + i%3)})
	}
	pg, _, err := graph.Restructure(over, n+2, mut, changed)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// pushSweeps are the ways TestPushMatchesReference fills the private table
// before each push. bsp is the whole-partition Sweep. async is the
// fresh-state sweep ProcessPartitionReentrant makes in one pass: deltas to
// single-replica receivers fold mid-sweep, so vertices later in block order
// read state written in the same iteration. delayed lets that sweep
// re-process locally re-activated vertices for up to three more passes
// before the push, as a bounded-staleness merge barrier would.
var pushSweeps = []struct {
	name   string
	passes int // 0: Sweep; otherwise ProcessPartitionReentrant's maxPasses
}{
	{"bsp", 0},
	{"async", 1},
	{"delayed", 4},
}

// TestPushMatchesReference drives every bundled program under every sweep in
// pushSweeps and, at each iteration close, runs Push and pushReference on
// clones of the same private table, the reference's with Next cleared:
// states, Next, Received and the summary must agree bit for bit, so what the
// sweeps settled and what Push synchronized together equal Algorithm 2.
func TestPushMatchesReference(t *testing.T) {
	programs := []struct {
		name string
		mk   func() model.Program
	}{
		{"pagerank", func() model.Program { return algo.NewPageRank() }},
		{"ppr", func() model.Program { return algo.NewPPR(0) }},
		{"hits", func() model.Program { return algo.NewHITS() }},
		{"katz", func() model.Program { return &algo.Katz{Alpha: 0.005, Beta: 1, Epsilon: 1e-6} }},
		{"sssp", func() model.Program { return algo.NewSSSP(0) }},
		{"bfs", func() model.Program { return algo.NewBFS(0) }},
		{"sswp", func() model.Program { return algo.NewSSWP(0) }},
		{"wcc", func() model.Program { return algo.NewWCC() }},
		{"scc", func() model.Program { return algo.NewSCC() }},
		{"kcore", func() model.Program { return algo.NewKCore(5) }},
	}
	edges, n := testGraph(21)
	for _, parts := range []int{1, 4, 32} {
		graphs := []struct {
			name string
			pg   *graph.PGraph
		}{
			{"rmat", buildPG(t, edges, n, parts)},
			{"holes", holePunched(t, edges, n, parts)},
		}
		for _, gr := range graphs {
			for _, p := range programs {
				for _, sw := range pushSweeps {
					t.Run(fmt.Sprintf("%s/p%d/%s/%s", gr.name, parts, p.name, sw.name), func(t *testing.T) {
						diffPush(t, gr.pg, p.mk(), sw.passes)
					})
				}
			}
		}
	}
}

func diffPush(t *testing.T, pg *graph.PGraph, prog model.Program, passes int) {
	j := NewJob(0, prog, pg)
	sc := &Scratch{}
	pushes := 0
	for it := 0; !j.Done; it++ {
		if it > 10000 {
			t.Fatal("did not converge")
		}
		for pid := range pg.Parts {
			if j.PT.ActiveCount[pid] == 0 {
				continue
			}
			if passes == 0 {
				j.ProcessPartition(pid, sc)
			} else {
				j.ProcessPartitionReentrant(pid, passes)
			}
		}
		// Next is empty before an iteration's sweeps, and only settle and
		// Push set it: the reference starts from the table with Next
		// cleared, so it checks both.
		ref := *j
		ref.PT = clonePrivateTable(j.PT)
		for _, s := range ref.PT.Next {
			s.Reset()
		}
		want := pushReference(&ref)
		got := j.Push()
		pushes++
		if got.Entries != want.Entries || !slices.Equal(got.TouchedParts, want.TouchedParts) {
			t.Fatalf("iteration %d: summary {%d %v}, reference {%d %v}", it, got.Entries, got.TouchedParts, want.Entries, want.TouchedParts)
		}
		if err := samePush(j.PT, ref.PT); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		j.advance()
	}
	if pushes == 0 {
		t.Fatal("no push exercised")
	}
	if err := j.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
}
