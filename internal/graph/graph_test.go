package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cgraph/internal/gen"
	"cgraph/model"
)

func buildSmall(t *testing.T) (*Graph, []model.Edge) {
	t.Helper()
	edges := []model.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 0, Dst: 2, Weight: 2},
		{Src: 1, Dst: 2, Weight: 3},
		{Src: 2, Dst: 3, Weight: 4},
		{Src: 3, Dst: 0, Weight: 5},
		{Src: 3, Dst: 4, Weight: 6},
	}
	return Build(0, edges), edges
}

func TestBuildCSR(t *testing.T) {
	g, _ := buildSmall(t)
	if g.N != 5 {
		t.Fatalf("N = %d, want 5", g.N)
	}
	if g.NumEdges != 6 {
		t.Fatalf("NumEdges = %d, want 6", g.NumEdges)
	}
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 2 || g.OutDegree(4) != 0 {
		t.Fatal("wrong out degrees")
	}
	if g.InDegree(2) != 2 || g.InDegree(0) != 1 || g.InDegree(4) != 1 {
		t.Fatal("wrong in degrees")
	}
	if g.Degree(0, model.Both) != 3 {
		t.Fatalf("Degree(0, Both) = %d, want 3", g.Degree(0, model.Both))
	}
	// Out-neighbours of 0 are 1 and 2.
	nbrs := map[model.VertexID]bool{}
	for i := g.OutOff[0]; i < g.OutOff[1]; i++ {
		nbrs[g.OutDst[i]] = true
	}
	if !nbrs[1] || !nbrs[2] {
		t.Fatalf("out-neighbours of 0 = %v", nbrs)
	}
}

func TestBuildInfersVertexCount(t *testing.T) {
	g := Build(0, []model.Edge{{Src: 7, Dst: 3}})
	if g.N != 8 {
		t.Fatalf("N = %d, want 8", g.N)
	}
	g = Build(20, []model.Edge{{Src: 7, Dst: 3}})
	if g.N != 20 {
		t.Fatalf("N = %d, want 20 (explicit)", g.N)
	}
}

func TestPartitionBasics(t *testing.T) {
	g, edges := buildSmall(t)
	pg, err := Cut(g, edges, Options{NumPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Parts) != 2 {
		t.Fatalf("parts = %d, want 2", len(pg.Parts))
	}
	if pg.Parts[0].NumEdges != 3 || pg.Parts[1].NumEdges != 3 {
		t.Fatalf("edge split = %d/%d, want 3/3", pg.Parts[0].NumEdges, pg.Parts[1].NumEdges)
	}
	// Vertex 2 appears in both partitions: one master, one mirror.
	locs := pg.ReplicaLocations(2)
	if len(locs) != 2 {
		t.Fatalf("vertex 2 replicas = %d, want 2", len(locs))
	}
	m := pg.MasterOf[2]
	if locs[0] != m {
		t.Fatal("ReplicaLocations must list master first")
	}
	if !pg.Masters[m.Part][m.Local] || pg.Parts[m.Part].Globals[m.Local] != 2 {
		t.Fatal("master flag inconsistent")
	}
}

func TestPartitionErrors(t *testing.T) {
	g, edges := buildSmall(t)
	if _, err := Cut(g, edges, Options{NumPartitions: 0}); err == nil {
		t.Fatal("want error for 0 partitions")
	}
	if _, err := Cut(g, nil, Options{NumPartitions: 2}); err == nil {
		t.Fatal("want error for empty edges")
	}
}

// checkInvariants verifies pg against g, a batch build of edges, and the
// vertex-cut partitioning invariants: the degree table equals g's, every
// live edge lands in exactly one partition, each partition's CSRs and
// sorted vertex table agree with LocalOf, every vertex with an edge has exactly one
// master replica (isolated vertices none), the replica index equals a
// brute-force scan of the vertex tables with the lowest partition as master,
// and every replica's Shared bit is set exactly when its vertex has more
// than one. Every partition's ID is its index, shared ones included: the
// engine reads a job's partition index off a unit's partition, whichever
// snapshot the unit came from.
func checkInvariants(t *testing.T, g *Graph, edges []model.Edge, pg *PGraph) {
	t.Helper()
	if d := pg.G; !reflect.DeepEqual(d, g.DegreeTable) {
		t.Fatalf("degree table (N %d, %d slots, %d live) differs from a batch build's (N %d, %d slots, %d live)",
			d.N, d.Slots, d.NumEdges, g.N, g.Slots, g.NumEdges)
	}
	// Every edge appears exactly once across partitions.
	totalEdges := 0
	for pi, p := range pg.Parts {
		if p.ID != pi {
			t.Fatalf("partition at index %d has ID %d", pi, p.ID)
		}
		totalEdges += p.NumEdges
		if int(p.OutOff[len(p.Globals)]) != p.NumEdges {
			t.Fatalf("part %d: out CSR edge count mismatch", p.ID)
		}
		if int(p.InOff[len(p.Globals)]) != p.NumEdges {
			t.Fatalf("part %d: in CSR edge count mismatch", p.ID)
		}
		// Local vertex table sorted.
		for i := 1; i < len(p.Globals); i++ {
			if p.Globals[i-1] >= p.Globals[i] {
				t.Fatalf("part %d: vertex table not sorted", p.ID)
			}
		}
		// LocalOf agrees with Globals.
		for li, v := range p.Globals {
			got, ok := p.LocalOf(v)
			if !ok || got != uint32(li) {
				t.Fatalf("part %d: LocalOf(%d) = %d,%v", p.ID, v, got, ok)
			}
		}
		if _, ok := p.LocalOf(model.VertexID(g.N + 100)); ok {
			t.Fatalf("part %d: LocalOf found absent vertex", p.ID)
		}
	}
	live := 0
	for _, e := range edges {
		if !e.IsHole() {
			live++
		}
	}
	if totalEdges != live {
		t.Fatalf("edges across partitions = %d, want %d", totalEdges, live)
	}
	// Exactly one master per vertex with at least one edge.
	masterCount := make(map[model.VertexID]int)
	for pi, p := range pg.Parts {
		if len(pg.Masters[pi]) != len(p.Globals) || pg.Shared[pi].Cap() != len(p.Globals) {
			t.Fatalf("part %d: %d master flags and %d shared bits for %d replicas",
				p.ID, len(pg.Masters[pi]), pg.Shared[pi].Cap(), len(p.Globals))
		}
		for li, v := range p.Globals {
			if pg.Masters[pi][li] {
				masterCount[v]++
			}
		}
	}
	for v := 0; v < g.N; v++ {
		hasEdge := g.Degree(model.VertexID(v), model.Both) > 0
		if hasEdge && masterCount[model.VertexID(v)] != 1 {
			t.Fatalf("vertex %d has %d masters", v, masterCount[model.VertexID(v)])
		}
		if !hasEdge && masterCount[model.VertexID(v)] != 0 {
			t.Fatalf("isolated vertex %d has a master", v)
		}
	}
	// The replica index lists exactly the locations a scan of the vertex
	// tables finds, in ascending partition order — so the master, the
	// lowest partition holding the vertex, comes first.
	scan := make([][]PartVertex, g.N)
	for pi, p := range pg.Parts {
		for li, v := range p.Globals {
			scan[v] = append(scan[v], PartVertex{Part: int32(pi), Local: uint32(li)})
		}
	}
	if len(pg.RepOff) != g.N+1 || int(pg.RepOff[g.N]) != len(pg.RepLoc) {
		t.Fatalf("replica index shape: %d offsets for %d vertices, %d locations, last offset %d",
			len(pg.RepOff), g.N, len(pg.RepLoc), pg.RepOff[len(pg.RepOff)-1])
	}
	for v, want := range scan {
		id := model.VertexID(v)
		if got := pg.ReplicaLocations(id); !slices.Equal(got, want) {
			t.Fatalf("ReplicaLocations(%d) = %v, scan finds %v", v, got, want)
		}
		if len(want) == 0 {
			if pg.MasterOf[v].Part != -1 {
				t.Fatalf("edge-less vertex %d has master %v", v, pg.MasterOf[v])
			}
			continue
		}
		if pg.MasterOf[v] != want[0] {
			t.Fatalf("MasterOf[%d] = %v, lowest partition holding it is %v", v, pg.MasterOf[v], want[0])
		}
		for _, l := range want {
			shared := pg.Shared[l.Part].Test(int(l.Local))
			if pg.Masters[l.Part][l.Local] != (l == want[0]) || shared != (len(want) > 1) {
				t.Fatalf("replica %v of %d: master flag %v, shared %v, want master %v of %d replicas",
					l, v, pg.Masters[l.Part][l.Local], shared, want[0], len(want))
			}
		}
	}
}

// TestOverlayReplicaIndex: an overlay that frees slots and moves edges
// re-derives the replica index for the partitions it shares and the ones it
// rebuilds alike, and a vertex whose last edge was freed loses its replicas.
func TestOverlayReplicaIndex(t *testing.T) {
	edges := gen.ER(16, 70, 420)
	edges = append(edges, model.Edge{Src: 70, Dst: 71, Weight: 1}) // the only edge of 70 and 71
	g := Build(72, edges)
	prev, err := Cut(g, edges, Options{NumPartitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g, edges, prev)
	if len(prev.ReplicaLocations(70)) != 1 {
		t.Fatalf("vertex 70 replicas = %v, want one", prev.ReplicaLocations(70))
	}

	mut := slices.Clone(edges)
	slots := []int{len(mut) - 1}
	mut[len(mut)-1] = model.HoleEdge()
	for s := 5; s < len(mut)-1; s += 9 {
		mut[s] = model.HoleEdge()
		slots = append(slots, s)
	}
	for s := 2; s < len(mut)-1; s += 13 {
		if mut[s].IsHole() {
			continue
		}
		mut[s] = model.Edge{Src: mut[s].Dst, Dst: model.VertexID(s % 70), Weight: 2}
		slots = append(slots, s)
	}
	next, err := Overlay(prev, mut, ChangedPartitions(slots, prev.ChunkSize, len(prev.Parts)))
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, Build(72, mut), mut, next)
	if locs := next.ReplicaLocations(70); len(locs) != 0 || next.MasterOf[70].Part != -1 {
		t.Fatalf("vertex 70 lost its only edge but keeps replicas %v, master %v", locs, next.MasterOf[70])
	}
}

func TestPartitionInvariantsQuick(t *testing.T) {
	f := func(seed int64, nParts uint8) bool {
		np := int(nParts)%8 + 1
		edges := gen.ER(seed, 60, 400)
		g := Build(0, edges)
		pg, err := Cut(g, edges, Options{NumPartitions: np})
		if err != nil {
			return false
		}
		checkInvariants(t, g, edges, pg)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreSubgraphPartitioning(t *testing.T) {
	edges := gen.RMAT(17, 256, 4000, 0.57, 0.19, 0.19)
	g := Build(0, edges)
	pg, err := Cut(g, edges, Options{NumPartitions: 8, CoreSubgraph: true, CoreFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g, edges, pg)
	if pg.NumCore == 0 {
		t.Fatal("no core partitions produced for a skewed graph")
	}
	for i, p := range pg.Parts {
		if (i < pg.NumCore) != p.Core {
			t.Fatalf("core flag mismatch at partition %d", i)
		}
	}
	// Core partitions collect high-degree vertices: their average degree
	// must exceed the non-core average.
	var coreAvg, restAvg float64
	for _, p := range pg.Parts {
		if p.Core {
			coreAvg += p.AvgDegree
		} else {
			restAvg += p.AvgDegree
		}
	}
	coreAvg /= float64(pg.NumCore)
	restAvg /= float64(len(pg.Parts) - pg.NumCore)
	if coreAvg <= restAvg {
		t.Fatalf("core avg degree %.1f <= rest %.1f", coreAvg, restAvg)
	}
}

func TestScatterNeverLeavesPartition(t *testing.T) {
	// Every local CSR destination index must be a valid local vertex: the
	// property that lets Algorithm 1 run with no cross-partition access.
	edges := gen.RMAT(3, 128, 2000, 0.57, 0.19, 0.19)
	g := Build(0, edges)
	pg, err := Cut(g, edges, Options{NumPartitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pg.Parts {
		n := uint32(len(p.Globals))
		for _, d := range p.OutDst {
			if d >= n {
				t.Fatalf("part %d: out dst %d out of range %d", p.ID, d, n)
			}
		}
		for _, s := range p.InDst {
			if s >= n {
				t.Fatalf("part %d: in src %d out of range %d", p.ID, s, n)
			}
		}
	}
}

func TestSuggestPartitionBytes(t *testing.T) {
	// With sp=16, sg=8, N=4: Pg(1 + 16*4/8) = Pg*9 = usable.
	pg := SuggestPartitionBytes(9*1024+64, 4, 8, 16, 64)
	if pg != 1024 {
		t.Fatalf("Pg = %d, want 1024", pg)
	}
	if SuggestPartitionBytes(10, 4, 8, 16, 64) != 0 {
		t.Fatal("want 0 when reserve exceeds cache")
	}
	n := SuggestNumPartitions(10240, 9*1024+64, 4, 8, 16, 64)
	if n != 10 {
		t.Fatalf("n = %d, want 10", n)
	}
	if SuggestNumPartitions(10240, 10, 4, 8, 16, 64) != 1 {
		t.Fatal("degenerate cache must still give 1 partition")
	}
}

func TestChangedPartitions(t *testing.T) {
	got := ChangedPartitions([]int{0, 5, 99, 100, 250}, 100, 3)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPartitionByteAccounting(t *testing.T) {
	g, edges := buildSmall(t)
	pg, err := Cut(g, edges, Options{NumPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pg.Parts {
		want := 64 + int64(len(p.Globals))*9 + int64(len(p.OutDst))*8 + int64(len(p.InDst))*8
		if p.StructBytes != want {
			t.Fatalf("part %d StructBytes = %d, want %d", p.ID, p.StructBytes, want)
		}
	}
	if pg.TotalStructBytes() != pg.Parts[0].StructBytes+pg.Parts[1].StructBytes {
		t.Fatal("TotalStructBytes mismatch")
	}
}

// TestRestructureGrow: appending edges past the chunk boundary must grow
// the partition count, rebuild only the boundary and new chunks, and keep
// every untouched partition pointer-shared with the previous snapshot.
func TestRestructureGrow(t *testing.T) {
	edges := gen.ER(11, 80, 400)
	g := Build(80, edges)
	prev, err := Cut(g, edges, Options{NumPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	chunk := prev.ChunkSize

	grown := append(append([]model.Edge(nil), edges...),
		model.Edge{Src: 80, Dst: 3, Weight: 1},
		model.Edge{Src: 81, Dst: 80, Weight: 1},
	)
	for len(grown) <= len(prev.Parts)*chunk {
		grown = append(grown, model.Edge{Src: 81, Dst: 82, Weight: 1})
	}
	changed := make([]int, 0, len(grown)-len(edges))
	for s := len(edges); s < len(grown); s++ {
		changed = append(changed, s)
	}
	next, rebuilt, err := Restructure(prev, 83, grown, changed)
	if err != nil {
		t.Fatal(err)
	}
	if next.G.N != 83 {
		t.Fatalf("N = %d, want 83", next.G.N)
	}
	if len(next.Parts) != len(prev.Parts)+1 {
		t.Fatalf("parts = %d, want %d", len(next.Parts), len(prev.Parts)+1)
	}
	if len(rebuilt) >= len(next.Parts) {
		t.Fatalf("rebuilt %d of %d partitions, want strictly fewer", len(rebuilt), len(next.Parts))
	}
	shared := 0
	for i := 0; i < len(prev.Parts); i++ {
		if next.Parts[i] == prev.Parts[i] {
			shared++
		}
	}
	if shared != len(next.Parts)-len(rebuilt) {
		t.Fatalf("shared = %d, want %d", shared, len(next.Parts)-len(rebuilt))
	}
	if shared == 0 {
		t.Fatal("growth rebuilt every partition")
	}
	ref := Build(83, grown)
	checkInvariants(t, ref, grown, next)
	for v := model.VertexID(80); v < 82; v++ {
		if locs := next.ReplicaLocations(v); len(locs) == 0 || next.MasterOf[v] != locs[0] {
			t.Fatalf("vertex %d, added with its edges, has replicas %v and master %v", v, locs, next.MasterOf[v])
		}
	}

	// The restructured snapshot must equal a from-scratch chunking of the
	// same list: identical vertex tables and CSRs per partition.
	for id, p := range next.Parts {
		start := id * chunk
		end := min(start+chunk, len(grown))
		want := refBuildPartition(ref, id, grown[start:end], false)
		if len(p.Globals) != len(want.Globals) || p.NumEdges != want.NumEdges {
			t.Fatalf("part %d: shape differs from fresh build", id)
		}
		for i, v := range want.Globals {
			if p.Globals[i] != v {
				t.Fatalf("part %d: vertex table differs from fresh build", id)
			}
		}
		for i := range want.OutDst {
			if p.OutDst[i] != want.OutDst[i] || p.OutW[i] != want.OutW[i] {
				t.Fatalf("part %d: out CSR differs from fresh build", id)
			}
		}
	}
}

// TestRestructureShrink: removing tail edges drops the trailing chunk and
// rebuilds only the new boundary chunk.
func TestRestructureShrink(t *testing.T) {
	edges := gen.ER(12, 60, 330)
	g := Build(60, edges)
	prev, err := Cut(g, edges, Options{NumPartitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	chunk := prev.ChunkSize
	cut := chunk + chunk/2 // drop the last chunk and half of the next
	shrunk := append([]model.Edge(nil), edges[:len(edges)-cut]...)
	changed := make([]int, 0, cut)
	for s := len(shrunk); s < len(edges); s++ {
		changed = append(changed, s)
	}
	next, rebuilt, err := Restructure(prev, 60, shrunk, changed)
	if err != nil {
		t.Fatal(err)
	}
	wantParts := (len(shrunk) + chunk - 1) / chunk
	if len(next.Parts) != wantParts {
		t.Fatalf("parts = %d, want %d", len(next.Parts), wantParts)
	}
	if len(rebuilt) != 1 || rebuilt[0] != wantParts-1 {
		t.Fatalf("rebuilt = %v, want just the boundary chunk %d", rebuilt, wantParts-1)
	}
	for i := 0; i < wantParts-1; i++ {
		if next.Parts[i] != prev.Parts[i] {
			t.Fatalf("untouched part %d not shared", i)
		}
	}
	checkInvariants(t, Build(60, shrunk), shrunk, next)
}

// TestRestructureVertexOnlyGrowth: growing the vertex space with no edge
// change shares every partition and just widens the master table.
func TestRestructureVertexOnlyGrowth(t *testing.T) {
	edges := gen.ER(13, 40, 200)
	g := Build(40, edges)
	prev, err := Cut(g, edges, Options{NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	next, rebuilt, err := Restructure(prev, 50, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 0 {
		t.Fatalf("vertex-only growth rebuilt %v", rebuilt)
	}
	if next.G.N != 50 || len(next.MasterOf) != 50 {
		t.Fatalf("vertex space = %d, want 50", next.G.N)
	}
	for i := range prev.Parts {
		if next.Parts[i] != prev.Parts[i] {
			t.Fatalf("part %d not shared", i)
		}
	}
	if next.MasterOf[45].Part != -1 || len(next.ReplicaLocations(45)) != 0 {
		t.Fatal("edge-less new vertex has a master replica")
	}
	checkInvariants(t, Build(50, edges), edges, next)
}

func TestRestructureErrors(t *testing.T) {
	edges := gen.ER(14, 30, 120)
	g := Build(30, edges)
	prev, err := Cut(g, edges, Options{NumPartitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restructure(prev, 20, edges, nil); err == nil {
		t.Fatal("vertex-space shrink accepted")
	}
	if _, _, err := Restructure(prev, 30, nil, nil); err == nil {
		t.Fatal("empty edge list accepted")
	}
	core, err := Cut(g, edges, Options{NumPartitions: 3, CoreSubgraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if core.NumCore > 0 {
		if _, _, err := Restructure(core, 30, edges, nil); err == nil {
			t.Fatal("core-subgraph partitioning accepted")
		}
	}
}

// TestRestructureBoundaryAlignedGrowth: when the previous list ends
// exactly on a chunk boundary, growth must not rebuild the old tail chunk
// — its slot range is identical in both lists.
func TestRestructureBoundaryAlignedGrowth(t *testing.T) {
	edges := gen.ER(15, 40, 200) // 200 edges, 4 chunks of 50: boundary-aligned
	g := Build(40, edges)
	prev, err := Cut(g, edges, Options{NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges)%prev.ChunkSize != 0 {
		t.Fatalf("setup: %d edges not chunk-aligned (chunk %d)", len(edges), prev.ChunkSize)
	}
	grown := append(append([]model.Edge(nil), edges...), model.Edge{Src: 1, Dst: 2, Weight: 1})
	next, rebuilt, err := Restructure(prev, 40, grown, []int{len(edges)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 1 || rebuilt[0] != len(prev.Parts) {
		t.Fatalf("rebuilt = %v, want only the new chunk %d", rebuilt, len(prev.Parts))
	}
	for i := range prev.Parts {
		if next.Parts[i] != prev.Parts[i] {
			t.Fatalf("boundary-aligned growth rebuilt untouched part %d", i)
		}
	}
	checkInvariants(t, Build(40, grown), grown, next)

	// And the symmetric shrink back to the boundary shares everything
	// that remains.
	back, rebuilt, err := Restructure(next, 40, edges, []int{len(edges)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 0 {
		t.Fatalf("boundary-aligned shrink rebuilt %v", rebuilt)
	}
	for i := range back.Parts {
		if back.Parts[i] != next.Parts[i] {
			t.Fatalf("shrink rebuilt untouched part %d", i)
		}
	}
	checkInvariants(t, g, edges, back)
}

// refBuildPartition is the reference partition builder: the map-and-sort
// construction the dense builder replaced, kept as the oracle it must match
// field for field (UID aside).
func refBuildPartition(g *Graph, id int, edges []model.Edge, core bool) *Partition {
	seen := make(map[model.VertexID]bool, len(edges))
	live := 0
	for _, e := range edges {
		if e.IsHole() {
			continue
		}
		live++
		seen[e.Src] = true
		seen[e.Dst] = true
	}
	globals := make([]model.VertexID, 0, len(seen))
	for v := range seen {
		globals = append(globals, v)
	}
	sort.Slice(globals, func(i, j int) bool { return globals[i] < globals[j] })
	local := make(map[model.VertexID]uint32, len(globals))
	for i, v := range globals {
		local[v] = uint32(i)
	}

	p := &Partition{ID: id, Globals: globals, NumEdges: live, Core: core}
	n := len(globals)
	p.OutOff = make([]uint32, n+1)
	p.InOff = make([]uint32, n+1)
	for _, e := range edges {
		if e.IsHole() {
			continue
		}
		p.OutOff[local[e.Src]+1]++
		p.InOff[local[e.Dst]+1]++
	}
	for v := 0; v < n; v++ {
		p.OutOff[v+1] += p.OutOff[v]
		p.InOff[v+1] += p.InOff[v]
	}
	p.OutDst = make([]uint32, live)
	p.OutW = make([]float32, live)
	p.InDst = make([]uint32, live)
	p.InW = make([]float32, live)
	outPos := append([]uint32(nil), p.OutOff[:n]...)
	inPos := append([]uint32(nil), p.InOff[:n]...)
	for _, e := range edges {
		if e.IsHole() {
			continue
		}
		ls, ld := local[e.Src], local[e.Dst]
		p.OutDst[outPos[ls]] = ld
		p.OutW[outPos[ls]] = e.Weight
		outPos[ls]++
		p.InDst[inPos[ld]] = ls
		p.InW[inPos[ld]] = e.Weight
		inPos[ld]++
	}

	totalDeg := 0
	for _, v := range globals {
		totalDeg += g.Degree(v, model.Both)
	}
	if n > 0 {
		p.AvgDegree = float64(totalDeg) / float64(n)
	}
	p.computeBytes()
	return p
}

// refCoreSet is the reference core-vertex set, as a map.
func refCoreSet(g *Graph, fraction float64) map[model.VertexID]bool {
	k := max(int(float64(g.N)*fraction), 1)
	all := make([]model.VertexID, g.N)
	for v := range all {
		all[v] = model.VertexID(v)
	}
	sort.SliceStable(all, func(i, j int) bool {
		return g.Degree(all[i], model.Both) > g.Degree(all[j], model.Both)
	})
	core := make(map[model.VertexID]bool, k)
	for _, v := range all[:k] {
		core[v] = true
	}
	return core
}

// partitionDiff names the first field in which got differs from want,
// comparing every field but UID (and AvgDegree when skipAvg is set); ""
// means they match.
func partitionDiff(got, want *Partition, skipAvg bool) string {
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if name == "UID" || (skipAvg && name == "AvgDegree") {
			continue
		}
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			return fmt.Sprintf("%s = %v, reference %v", name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	return ""
}

// randomList returns a slot list over n vertices mixing holes, self-loops,
// duplicate edges and edges of vertex n-1, with the lowest ids left
// isolated. The slots from holeRun on are all holes, which yields all-hole
// chunks once that tail spans one.
func randomList(rng *rand.Rand, n, slots, holeRun int) []model.Edge {
	lo := min(n/4, n-1) // ids below lo are never used: isolated vertices
	edges := make([]model.Edge, slots)
	for i := range edges {
		src := model.VertexID(lo + rng.Intn(n-lo))
		dst := model.VertexID(lo + rng.Intn(n-lo))
		switch r := rng.Intn(10); {
		case i >= holeRun || r == 0:
			edges[i] = model.HoleEdge()
			continue
		case r == 1:
			dst = src
		case r == 2 && i > 0 && !edges[i-1].IsHole():
			src, dst = edges[i-1].Src, edges[i-1].Dst
		case r == 3:
			src = model.VertexID(n - 1)
		}
		edges[i] = model.Edge{Src: src, Dst: dst, Weight: float32(rng.Intn(9) + 1)}
	}
	return edges
}

// TestBuilderMatchesReference: every partition the dense builder produces
// through plain and core-subgraph Cut, Overlay and Restructure equals the
// reference builder's on the same chunk, field by field, UID aside.
func TestBuilderMatchesReference(t *testing.T) {
	check := func(t *testing.T, what string, p, want *Partition) {
		t.Helper()
		if d := partitionDiff(p, want, false); d != "" {
			t.Fatalf("%s: part %d: %s", what, p.ID, d)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(300)
		slots := 1 + rng.Intn(400)
		holeRun := slots
		if trial%3 == 0 {
			holeRun = slots - rng.Intn(slots) // a tail of holes
		}
		np := 1 + rng.Intn(12)
		if trial%5 == 0 {
			np = slots // one-slot chunks
		}
		edges := randomList(rng, n, slots, holeRun)
		g := Build(n, edges)

		pg, err := Cut(g, edges, Options{NumPartitions: np})
		if err != nil {
			t.Fatal(err)
		}
		for id, p := range pg.Parts {
			start := id * pg.ChunkSize
			check(t, "Cut", p, refBuildPartition(g, id, edges[start:min(start+pg.ChunkSize, len(edges))], false))
		}
		checkInvariants(t, g, edges, pg)

		frac := 0.05 + rng.Float64()/4
		cpg, err := Cut(g, edges, Options{NumPartitions: np, CoreSubgraph: true, CoreFraction: frac})
		if err != nil {
			t.Fatal(err)
		}
		core := refCoreSet(g, frac)
		var coreEdges, rest []model.Edge
		for _, e := range edges {
			if core[e.Src] && core[e.Dst] {
				coreEdges = append(coreEdges, e)
			} else {
				rest = append(rest, e)
			}
		}
		groups := append(chunkEdges(coreEdges, cpg.ChunkSize), chunkEdges(rest, cpg.ChunkSize)...)
		if len(groups) != len(cpg.Parts) {
			t.Fatalf("core Cut: %d partitions, reference grouping %d", len(cpg.Parts), len(groups))
		}
		for id, p := range cpg.Parts {
			check(t, "core Cut", p, refBuildPartition(g, id, groups[id], id < cpg.NumCore))
		}
		checkInvariants(t, g, edges, cpg)

		// Overlay: rewrite and free a few slots in place.
		mut := slices.Clone(edges)
		var changed []int
		for k := rng.Intn(8); k >= 0; k-- {
			s := rng.Intn(len(mut))
			mut[s] = randomList(rng, n, 1, rng.Intn(2))[0] // a hole if 0
			changed = append(changed, s)
		}
		parts := ChangedPartitions(changed, pg.ChunkSize, len(pg.Parts))
		over, err := Overlay(pg, mut, parts)
		if err != nil {
			t.Fatal(err)
		}
		mutG := Build(n, mut)
		for _, id := range parts {
			start := id * pg.ChunkSize
			check(t, "Overlay", over.Parts[id], refBuildPartition(mutG, id, mut[start:min(start+pg.ChunkSize, len(mut))], false))
		}
		checkInvariants(t, mutG, mut, over)

		// Restructure: grow or shrink the list and the vertex space.
		resized := slices.Clone(mut)
		var slotsChanged []int
		if d := rng.Intn(2*pg.ChunkSize+1) - pg.ChunkSize; d < 0 && -d < len(resized) {
			for s := len(resized) + d; s < len(resized); s++ {
				slotsChanged = append(slotsChanged, s)
			}
			resized = resized[:len(resized)+d]
		} else if d > 0 {
			for ; d > 0; d-- {
				slotsChanged = append(slotsChanged, len(resized))
				resized = append(resized, randomList(rng, n+3, 1, 1)[0])
			}
		}
		next, rebuilt, err := Restructure(over, n+3, resized, slotsChanged)
		if err != nil {
			t.Fatal(err)
		}
		resizedG := Build(n+3, resized)
		for _, id := range rebuilt {
			start := id * pg.ChunkSize
			check(t, "Restructure", next.Parts[id], refBuildPartition(resizedG, id, resized[start:min(start+pg.ChunkSize, len(resized))], false))
		}
		for id, p := range next.Parts {
			if !slices.Contains(rebuilt, id) && p != over.Parts[id] {
				t.Fatalf("Restructure: part %d neither rebuilt nor shared", id)
			}
		}
		checkInvariants(t, resizedG, resized, next)
	}
}

// TestOverlayAllocations: an Overlay allocates a fixed number of objects
// per rebuilt partition plus a constant, whatever the graph size — nothing
// per vertex or per edge — and one that rebuilds nothing allocates the same
// bytes on 4× the edges over the same vertices, so no per-edge global
// structure is rebuilt.
func TestOverlayAllocations(t *testing.T) {
	const numParts = 8
	allocs := func(numV, numE, k int) float64 {
		edges := gen.ER(21, numV, numE)
		prev, err := Cut(Build(numV, edges), edges, Options{NumPartitions: numParts})
		if err != nil {
			t.Fatal(err)
		}
		changed := make([]int, k)
		for i := range changed {
			changed[i] = i * 2
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Overlay(prev, edges, changed); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(200, 2000, 0)
	perPart := allocs(200, 2000, 1) - base
	if perPart <= 0 || perPart > 8 {
		t.Fatalf("one rebuilt partition costs %.0f allocations, want 1..8", perPart)
	}
	for _, size := range [][2]int{{200, 2000}, {4000, 40000}} {
		for _, k := range []int{0, 1, 2, 4} {
			if got, want := allocs(size[0], size[1], k), base+float64(k)*perPart; got != want {
				t.Errorf("%d vertices, %d edges, %d rebuilt: %.0f allocations, want %.0f", size[0], size[1], k, got, want)
			}
		}
	}

	// Both lists are dense enough that every partition holds every vertex,
	// so the replica index has the same size too.
	const numV, runs = 100, 20
	bytes := func(numE int) float64 {
		edges := gen.ER(22, numV, numE)
		prev, err := Cut(Build(numV, edges), edges, Options{NumPartitions: numParts})
		if err != nil {
			t.Fatal(err)
		}
		if len(prev.RepLoc) != numParts*numV {
			t.Fatalf("setup: %d edges give %d replicas, want %d", numE, len(prev.RepLoc), numParts*numV)
		}
		// Measured as testing.AllocsPerRun measures: on one P, after a
		// warm-up call, so that threads the runtime starts for other
		// goroutines of a busy test binary stay out of the count.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		if _, err := Overlay(prev, edges, nil); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := Overlay(prev, edges, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	if small, large := bytes(4000), bytes(16000); math.Abs(large-small) > 0.01*small {
		t.Errorf("an Overlay rebuilding nothing allocates %.0f B on %d edges, %.0f B on 4x as many", small, 4000, large)
	}
}

// restructureMatchesOverlay derives the mutation over, an Overlay of prev
// whose partitions were built from UID u0 on, describes again, through
// Restructure over the same vertex space, and requires an identical result:
// the same degree table and shape, the same partitions shared with prev, every
// rebuilt partition equal field by field and built in the same order (its
// UID at the same offset from the call's first), and the same replica
// assignment.
func restructureMatchesOverlay(t *testing.T, prev *PGraph, mut []model.Edge, changed []int, over *PGraph, u0 int64) {
	t.Helper()
	u1 := uidCounter.Load()
	rs, rebuilt, err := Restructure(prev, prev.G.N, mut, changed)
	if err != nil {
		t.Fatal(err)
	}
	if u2 := uidCounter.Load(); u2-u1 != u1-u0 {
		t.Fatalf("Restructure handed out %d UIDs, Overlay %d", u2-u1, u1-u0)
	}
	if !reflect.DeepEqual(rs.G, over.G) || len(rs.Parts) != len(over.Parts) || rs.ChunkSize != over.ChunkSize || rs.NumCore != over.NumCore {
		t.Fatal("Restructure's graph or shape differs from Overlay's")
	}
	for id, p := range rs.Parts {
		q := over.Parts[id]
		if shared := q == prev.Parts[id]; shared != (p == prev.Parts[id]) || shared != !slices.Contains(rebuilt, id) {
			t.Fatalf("part %d: shared by Overlay %v, by Restructure %v", id, shared, p == prev.Parts[id])
		}
		if p != q && (p.UID-u1 != q.UID-u0 || partitionDiff(p, q, false) != "") {
			t.Fatalf("part %d: Restructure built UID +%d %s, Overlay UID +%d", id, p.UID-u1, partitionDiff(p, q, false), q.UID-u0)
		}
	}
	if !reflect.DeepEqual(rs.MasterOf, over.MasterOf) || !reflect.DeepEqual(rs.RepOff, over.RepOff) ||
		!reflect.DeepEqual(rs.RepLoc, over.RepLoc) || !reflect.DeepEqual(rs.Masters, over.Masters) ||
		!reflect.DeepEqual(rs.Shared, over.Shared) {
		t.Fatal("Restructure's replica assignment differs from Overlay's")
	}
}

// FuzzOverlayMatchesCut: an Overlay of in-place rewrites and freed slots
// equals a fresh Cut of the mutated list on every partition, with the
// untouched partitions shared by pointer with the previous snapshot, and
// Restructure derives the identical snapshot from the same mutation. A
// shared partition keeps the AvgDegree it was built with, so that one
// field is compared only on rebuilt partitions.
func FuzzOverlayMatchesCut(f *testing.F) {
	f.Add([]byte{7, 3, 20, 1, 2, 3, 4, 5, 6, 255, 0, 0, 6, 6, 1, 2, 9, 9, 9, 5, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%150 + next()%2*150
		np := 1 + next()%9
		slots := 1 + next()%120
		// Three bytes per slot: a source byte ≥ 240 makes a hole.
		edge := func() model.Edge {
			s, d, w := next(), next(), next()
			if s >= 240 {
				return model.HoleEdge()
			}
			return model.Edge{Src: model.VertexID(s * n / 240), Dst: model.VertexID(d % n), Weight: float32(w%7 + 1)}
		}
		base := make([]model.Edge, slots)
		for i := range base {
			base[i] = edge()
		}
		prev, err := Cut(Build(n, base), base, Options{NumPartitions: np})
		if err != nil {
			t.Fatal(err)
		}
		mut := slices.Clone(base)
		var changed []int
		for len(data) > 0 {
			s := next() % slots
			mut[s] = edge()
			changed = append(changed, s)
		}
		parts := ChangedPartitions(changed, prev.ChunkSize, len(prev.Parts))
		u0 := uidCounter.Load()
		over, err := Overlay(prev, mut, parts)
		if err != nil {
			t.Fatal(err)
		}
		restructureMatchesOverlay(t, prev, mut, changed, over, u0)
		mutG := Build(n, mut)
		want, err := Cut(mutG, mut, Options{NumPartitions: np})
		if err != nil {
			t.Fatal(err)
		}
		if len(over.Parts) != len(want.Parts) || over.ChunkSize != want.ChunkSize {
			t.Fatalf("Overlay: %d partitions of %d slots, Cut %d of %d", len(over.Parts), over.ChunkSize, len(want.Parts), want.ChunkSize)
		}
		for id, p := range over.Parts {
			rebuilt := slices.Contains(parts, id)
			if !rebuilt && p != prev.Parts[id] {
				t.Fatalf("untouched part %d not shared with the previous snapshot", id)
			}
			if d := partitionDiff(p, want.Parts[id], !rebuilt); d != "" {
				t.Fatalf("part %d (rebuilt %v): %s", id, rebuilt, d)
			}
		}
		if !reflect.DeepEqual(over.MasterOf, want.MasterOf) || !reflect.DeepEqual(over.RepOff, want.RepOff) ||
			!reflect.DeepEqual(over.RepLoc, want.RepLoc) || !reflect.DeepEqual(over.Masters, want.Masters) ||
			!reflect.DeepEqual(over.Shared, want.Shared) {
			t.Fatal("Overlay's replica assignment differs from Cut's")
		}
		checkInvariants(t, mutG, mut, over)
	})
}
