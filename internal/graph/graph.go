// Package graph implements the shared graph-structure substrate of §3.2.1:
// a global CSR built from the base edge list, vertex-cut partitioning into
// same-sized (by edge count) partitions in plain or core-subgraph mode,
// master/mirror replica assignment, and the partition-size formula that ties
// partition bytes to the simulated cache capacity.
//
// A snapshot keeps no global CSR, only a DegreeTable, which Overlay and
// Restructure patch from the partitions they drop, replace and build: a
// derived snapshot costs O(N + rebuilt chunks), not O(|E|).
//
// Replica assignment is recomputed per snapshot (Cut, Overlay, Restructure)
// and stored densely: MasterOf per vertex, a master flag and a shared bit per
// replica, and a CSR replica index (RepOff/RepLoc) listing each vertex's
// locations master first, mirrors in ascending partition order. The master
// is always the lowest partition holding the vertex — the order exec.Push's
// direct fold relies on for a deterministic accumulation order.
//
// Partitions are built by one builder per Cut, Overlay or Restructure call,
// whose dense scratch over the vertex space is shared by every partition the
// call builds: a partition costs O(chunk slots + N/64), with no hashing or
// sorting, and allocates only its own arrays.
package graph

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"cgraph/internal/bitset"
	"cgraph/model"
)

// uidCounter hands out process-unique partition UIDs.
var uidCounter atomic.Int64

// Graph is the immutable global CSR over both edge directions, on top of
// the degree table Cut hands to the base snapshot. It is a model.GraphInfo.
type Graph struct {
	*DegreeTable
	OutOff []uint64
	OutDst []model.VertexID
	OutW   []float32
	InOff  []uint64
	InDst  []model.VertexID
	InW    []float32
}

// Build constructs the global CSR. numVertices of 0 means "infer from the
// largest endpoint". Hole slots (freed by edge removals) are skipped.
func Build(numVertices int, edges []model.Edge) *Graph {
	n := numVertices
	live := 0
	for _, e := range edges {
		if e.IsHole() {
			continue
		}
		live++
		if int(e.Src) >= n {
			n = int(e.Src) + 1
		}
		if int(e.Dst) >= n {
			n = int(e.Dst) + 1
		}
	}
	g := &Graph{
		DegreeTable: &DegreeTable{N: n, Slots: len(edges), NumEdges: live, Out: make([]uint32, n), In: make([]uint32, n)},
		OutOff:      make([]uint64, n+1),
		OutDst:      make([]model.VertexID, live),
		OutW:        make([]float32, live),
		InOff:       make([]uint64, n+1),
		InDst:       make([]model.VertexID, live),
		InW:         make([]float32, live),
	}
	for _, e := range edges {
		if e.IsHole() {
			continue
		}
		g.Out[e.Src]++
		g.In[e.Dst]++
	}
	for v := 0; v < n; v++ {
		g.OutOff[v+1] = g.OutOff[v] + uint64(g.Out[v])
		g.InOff[v+1] = g.InOff[v] + uint64(g.In[v])
	}
	outPos := append([]uint64(nil), g.OutOff[:n]...)
	inPos := append([]uint64(nil), g.InOff[:n]...)
	for _, e := range edges {
		if e.IsHole() {
			continue
		}
		g.OutDst[outPos[e.Src]] = e.Dst
		g.OutW[outPos[e.Src]] = e.Weight
		outPos[e.Src]++
		g.InDst[inPos[e.Dst]] = e.Src
		g.InW[inPos[e.Dst]] = e.Weight
		inPos[e.Dst]++
	}
	return g
}

// DegreeTable is what a snapshot keeps of the global graph: the vertex
// space, the edge list's slot and live-edge counts, and every vertex's out-
// and in-degree. It implements model.GraphInfo.
type DegreeTable struct {
	N int
	// Slots is the length of the edge list, including freed-slot holes
	// (model.Edge.IsHole), which keep chunk boundaries stable across
	// remove-bearing snapshots; NumEdges counts only live edges.
	Slots    int
	NumEdges int
	Out, In  []uint32
}

// NumVertices implements model.GraphInfo.
func (t *DegreeTable) NumVertices() int { return t.N }

// OutDegree implements model.GraphInfo.
func (t *DegreeTable) OutDegree(v model.VertexID) int { return int(t.Out[v]) }

// InDegree implements model.GraphInfo.
func (t *DegreeTable) InDegree(v model.VertexID) int { return int(t.In[v]) }

// Degree returns v's degree in the given direction (Both = out + in).
func (t *DegreeTable) Degree(v model.VertexID, d model.Direction) int {
	switch d {
	case model.Out:
		return int(t.Out[v])
	case model.In:
		return int(t.In[v])
	default:
		return int(t.Out[v]) + int(t.In[v])
	}
}

// count adds sign (1 or -1) times partition p's live edges and its
// vertices' local degrees to the table; for -1 the uint32 product is the
// degree's two's complement, so the addition subtracts it.
func (t *DegreeTable) count(p *Partition, sign int) {
	for li, v := range p.Globals {
		t.Out[v] += uint32(sign) * (p.OutOff[li+1] - p.OutOff[li])
		t.In[v] += uint32(sign) * (p.InOff[li+1] - p.InOff[li])
	}
	t.NumEdges += sign * p.NumEdges
}

// setAvgDegree sets p's D(P) from the table: the mean global degree of its
// vertices.
func (p *Partition) setAvgDegree(t *DegreeTable) {
	total := 0
	for _, v := range p.Globals {
		total += t.Degree(v, model.Both)
	}
	if len(p.Globals) > 0 {
		p.AvgDegree = float64(total) / float64(len(p.Globals))
	}
}

// PartVertex locates one replica of a vertex: the partition and the local
// index within that partition's vertex table.
type PartVertex struct {
	Part  int32
	Local uint32
}

// Partition is one graph-structure partition of the global table
// (Fig. 4(b)): the local vertex table (vertex ID, replica flag, master
// location) plus the partition-local out/in CSR over the edges assigned to
// this partition by the vertex cut.
type Partition struct {
	ID int
	// UID is unique across every partition built in the process, letting
	// the memory-hierarchy simulator identify a partition shared by
	// several snapshots (Fig. 5) as a single cacheable item.
	UID int64

	// Globals maps local index → global vertex ID, sorted ascending so
	// LocalOf can binary-search.
	Globals []model.VertexID

	// Partition-local CSR over local indices (both endpoints of every
	// assigned edge have replicas here, so Scatter never leaves the
	// partition — the property Algorithm 1 relies on).
	OutOff []uint32
	OutDst []uint32
	OutW   []float32
	InOff  []uint32
	InDst  []uint32
	InW    []float32

	NumEdges int
	// AvgDegree is D(P) in Eq. 1: the mean global degree of the
	// partition's vertices, fixed at preprocessing time.
	AvgDegree float64
	// Core marks partitions produced from the core subgraph (§3.3).
	Core bool
	// StructBytes is the simulated size of this partition's structure
	// data, fed to the memory-hierarchy simulator.
	StructBytes int64
}

// NumVertices returns the number of local replicas in the partition.
func (p *Partition) NumVertices() int { return len(p.Globals) }

// LocalOf returns the local index of global vertex v, if v has a replica in
// this partition.
func (p *Partition) LocalOf(v model.VertexID) (uint32, bool) {
	i := sort.Search(len(p.Globals), func(i int) bool { return p.Globals[i] >= v })
	if i < len(p.Globals) && p.Globals[i] == v {
		return uint32(i), true
	}
	return 0, false
}

// EdgeWork returns the number of edges local vertex li touches when a
// program scatters in direction d — the per-vertex weight the executor
// uses to slice active frontiers into edge-balanced tasks. The CSR offset
// arrays are the prefix sums, so this is O(1), and it reads only the
// offsets of the direction it counts.
func (p *Partition) EdgeWork(li uint32, d model.Direction) int64 {
	var w int64
	if d != model.In {
		w += int64(p.OutOff[li+1] - p.OutOff[li])
	}
	if d != model.Out {
		w += int64(p.InOff[li+1] - p.InOff[li])
	}
	return w
}

// computeBytes accounts the structure bytes of the partition: 9 bytes per
// local vertex (ID + flag + master location) and 8 per directed edge in each
// CSR direction, plus a fixed header.
func (p *Partition) computeBytes() {
	p.StructBytes = 64 + int64(len(p.Globals))*9 + int64(len(p.OutDst))*8 + int64(len(p.InDst))*8
}

// PGraph is a partitioned graph: the content of one global-table snapshot.
// G is the snapshot's degree table; the edges live only in the partitions.
type PGraph struct {
	G     *DegreeTable
	Parts []*Partition
	// MasterOf locates the master replica of every vertex; vertices with
	// no edges have Part == -1.
	MasterOf []PartVertex
	// RepOff/RepLoc are the replica index in CSR form: the replicas of
	// vertex v are RepLoc[RepOff[v]:RepOff[v+1]], master first, mirrors in
	// ascending partition order; an edge-less vertex has none.
	RepOff []uint32
	RepLoc []PartVertex
	// ChunkSize is the number of edge slots per partition, fixed so that
	// snapshot mutations map slots to partitions stably.
	ChunkSize int
	// NumCore is the count of core-subgraph partitions (they come first).
	NumCore int
	// Masters flags the master replica per [partition][local]; exactly one
	// partition holds the master of each vertex. Kept outside Partition so
	// snapshots can share unchanged partition bytes while owning their own
	// replica assignment.
	Masters [][]bool
	// Shared[p] is partition p's replica-role table, indexed by local: a
	// bit is set when the vertex has replicas in more than one partition.
	// Only those replicas take part in Algorithm 2's synchronization.
	Shared []bitset.Set
}

// Options configure partitioning.
type Options struct {
	// NumPartitions is the target partition count (≥1).
	NumPartitions int
	// CoreSubgraph enables §3.3 core-subgraph partitioning: edges between
	// high-degree core vertices are grouped into their own partitions.
	CoreSubgraph bool
	// CoreFraction is the fraction of vertices classified as core when
	// CoreSubgraph is set (default 0.05).
	CoreFraction float64
}

// Cut builds a vertex-cut partitioned graph. Edges are divided into
// same-sized chunks by slot order (plain mode) or after core/non-core
// grouping (core-subgraph mode); each chunk becomes one partition whose
// vertex table holds a replica of every endpoint.
func Cut(g *Graph, edges []model.Edge, opt Options) (*PGraph, error) {
	if opt.NumPartitions < 1 {
		return nil, fmt.Errorf("graph: NumPartitions must be >= 1, got %d", opt.NumPartitions)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("graph: cannot partition an empty edge list")
	}
	chunk := (len(edges) + opt.NumPartitions - 1) / opt.NumPartitions

	var groups [][]model.Edge
	numCore := 0
	if opt.CoreSubgraph {
		frac := opt.CoreFraction
		if frac <= 0 {
			frac = 0.05
		}
		core := coreSet(g, frac)
		var coreEdges, rest []model.Edge
		for _, e := range edges {
			if !e.IsHole() && core[e.Src] && core[e.Dst] {
				coreEdges = append(coreEdges, e)
			} else {
				rest = append(rest, e)
			}
		}
		coreChunks := chunkEdges(coreEdges, chunk)
		numCore = len(coreChunks)
		groups = append(coreChunks, chunkEdges(rest, chunk)...)
	} else {
		groups = chunkEdges(edges, chunk)
	}

	pg := &PGraph{G: g.DegreeTable, Parts: make([]*Partition, len(groups)), ChunkSize: chunk, NumCore: numCore}
	b := newBuilder(g.N)
	for id, group := range groups {
		pg.Parts[id] = b.build(id, group, id < numCore)
		pg.Parts[id].setAvgDegree(pg.G)
	}
	pg.assignMasters()
	return pg, nil
}

func chunkEdges(edges []model.Edge, chunk int) [][]model.Edge {
	var out [][]model.Edge
	for start := 0; start < len(edges); start += chunk {
		end := start + chunk
		if end > len(edges) {
			end = len(edges)
		}
		out = append(out, edges[start:end])
	}
	return out
}

// coreSet flags the "core" vertices: the top fraction by total degree (the
// paper's degree-threshold rule).
func coreSet(g *Graph, fraction float64) []bool {
	k := int(float64(g.N) * fraction)
	if k < 1 {
		k = 1
	}
	type vd struct {
		v model.VertexID
		d int
	}
	all := make([]vd, g.N)
	for v := 0; v < g.N; v++ {
		all[v] = vd{model.VertexID(v), g.Degree(model.VertexID(v), model.Both)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d > all[j].d
		}
		return all[i].v < all[j].v
	})
	core := make([]bool, g.N)
	for _, x := range all[:k] {
		core[x.v] = true
	}
	return core
}

// builder turns edge chunks into partitions. It holds two dense scratch
// arrays over the vertex space, shared by every partition one Cut, Overlay
// or Restructure call builds: mark, a bitset that dedups a chunk's
// endpoints and whose set bits, walked in order, are the chunk's vertex
// table already sorted (the walk clears them again); and loc, the
// global→local map, written only for the current chunk's vertices. A
// partition costs O(chunk slots + N/64) with no hashing or sorting, and
// allocates only its own arrays.
type builder struct {
	mark []uint64
	loc  []uint32
}

func newBuilder(n int) *builder {
	return &builder{mark: make([]uint64, (n+63)/64), loc: make([]uint32, n)}
}

func (b *builder) build(id int, edges []model.Edge, core bool) *Partition {
	// Collect the unique endpoints as the local vertex table. Hole slots
	// (freed by removals) occupy chunk space but contribute nothing.
	live, n := 0, 0
	for _, e := range edges {
		if e.IsHole() {
			continue
		}
		live++
		for _, v := range [2]model.VertexID{e.Src, e.Dst} {
			if w, bit := &b.mark[v>>6], uint64(1)<<(v&63); *w&bit == 0 {
				*w |= bit
				n++
			}
		}
	}
	globals := make([]model.VertexID, 0, n)
	for wi, w := range b.mark {
		if w == 0 {
			continue
		}
		b.mark[wi] = 0
		for ; w != 0; w &= w - 1 {
			v := model.VertexID(wi<<6 + bits.TrailingZeros64(w))
			b.loc[v] = uint32(len(globals))
			globals = append(globals, v)
		}
	}

	p := &Partition{
		ID:       id,
		UID:      uidCounter.Add(1),
		Globals:  globals,
		NumEdges: live,
		Core:     core,
		OutOff:   make([]uint32, n+1),
		OutDst:   make([]uint32, live),
		OutW:     make([]float32, live),
		InOff:    make([]uint32, n+1),
		InDst:    make([]uint32, live),
		InW:      make([]float32, live),
	}
	for _, e := range edges {
		if e.IsHole() {
			continue
		}
		p.OutOff[b.loc[e.Src]+1]++
		p.InOff[b.loc[e.Dst]+1]++
	}
	for v := 0; v < n; v++ {
		p.OutOff[v+1] += p.OutOff[v]
		p.InOff[v+1] += p.InOff[v]
	}
	// Fill in slot order with Off[l] as row l's cursor; afterwards Off[l]
	// holds row l's end, so shifting the offsets up one restores the starts.
	for _, e := range edges {
		if e.IsHole() {
			continue
		}
		ls, ld := b.loc[e.Src], b.loc[e.Dst]
		p.OutDst[p.OutOff[ls]] = ld
		p.OutW[p.OutOff[ls]] = e.Weight
		p.OutOff[ls]++
		p.InDst[p.InOff[ld]] = ls
		p.InW[p.InOff[ld]] = e.Weight
		p.InOff[ld]++
	}
	copy(p.OutOff[1:], p.OutOff[:n])
	copy(p.InOff[1:], p.InOff[:n])
	p.OutOff[0], p.InOff[0] = 0, 0
	p.computeBytes()
	return p
}

// assignMasters nominates the lowest-numbered partition containing each
// vertex as its master location and builds the replica index by count,
// prefix sum and fill. Both passes walk the partitions in ascending order,
// so the first location filled for a vertex is its master and its mirrors
// follow in ascending partition order. RepOff is complete before the fill, so
// the fill also sets the Shared bit of every replica of a replicated vertex.
func (pg *PGraph) assignMasters() {
	n := pg.G.N
	pg.RepOff = make([]uint32, n+1)
	total := 0
	for _, p := range pg.Parts {
		total += len(p.Globals)
		for _, v := range p.Globals {
			pg.RepOff[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		pg.RepOff[v+1] += pg.RepOff[v]
	}
	pg.RepLoc = make([]PartVertex, total)
	pg.Masters = make([][]bool, len(pg.Parts))
	pg.Shared = make([]bitset.Set, len(pg.Parts))
	pos := append([]uint32(nil), pg.RepOff[:n]...)
	for pi, p := range pg.Parts {
		masters := make([]bool, len(p.Globals))
		pg.Shared[pi] = *bitset.New(len(p.Globals))
		shared := &pg.Shared[pi]
		for li, v := range p.Globals {
			pg.RepLoc[pos[v]] = PartVertex{Part: int32(p.ID), Local: uint32(li)}
			masters[li] = pos[v] == pg.RepOff[v]
			if pg.RepOff[v+1]-pg.RepOff[v] > 1 {
				shared.Set(li)
			}
			pos[v]++
		}
		pg.Masters[pi] = masters
	}
	pg.MasterOf = make([]PartVertex, n)
	for v := range pg.MasterOf {
		if pg.RepOff[v] == pg.RepOff[v+1] {
			pg.MasterOf[v] = PartVertex{Part: -1}
		} else {
			pg.MasterOf[v] = pg.RepLoc[pg.RepOff[v]]
		}
	}
}

// ReplicaLocations returns every replica location of v (master first,
// mirrors in ascending partition order) as a view into the replica index:
// callers must not modify it. Edge-less vertices have none.
func (pg *PGraph) ReplicaLocations(v model.VertexID) []PartVertex {
	return pg.RepLoc[pg.RepOff[v]:pg.RepOff[v+1]]
}

// TotalStructBytes sums the structure bytes across partitions.
func (pg *PGraph) TotalStructBytes() int64 {
	var total int64
	for _, p := range pg.Parts {
		total += p.StructBytes
	}
	return total
}

// SuggestPartitionBytes solves the §3.2.1 sizing constraint
// Pg + Pg/sg·sp·N + b ≤ C for the largest Pg: the cache should hold one
// structure partition plus the private-table slices of N concurrently
// triggered jobs with a reserve buffer b.
func SuggestPartitionBytes(cacheBytes int64, cores int, structBytesPerItem, privateBytesPerItem float64, reserve int64) int64 {
	usable := float64(cacheBytes - reserve)
	if usable <= 0 {
		return 0
	}
	pg := usable / (1 + privateBytesPerItem*float64(cores)/structBytesPerItem)
	return int64(pg)
}

// SuggestNumPartitions converts the Pg formula into a partition count for a
// graph with the given total structure bytes.
func SuggestNumPartitions(totalStructBytes, cacheBytes int64, cores int, structBytesPerItem, privateBytesPerItem float64, reserve int64) int {
	pg := SuggestPartitionBytes(cacheBytes, cores, structBytesPerItem, privateBytesPerItem, reserve)
	if pg <= 0 {
		return 1
	}
	n := int((totalStructBytes + pg - 1) / pg)
	if n < 1 {
		n = 1
	}
	return n
}

// ChangedPartitions maps mutated edge-slot indices to the set of partitions
// whose chunks contain them (plain partitioning only, where slot→partition
// is slot/ChunkSize).
func ChangedPartitions(changedSlots []int, chunkSize, numPartitions int) []int {
	changed := make([]bool, numPartitions)
	for _, s := range changedSlots {
		changed[min(s/chunkSize, numPartitions-1)] = true
	}
	var out []int
	for p, c := range changed {
		if c {
			out = append(out, p)
		}
	}
	return out
}

// Restructure builds the partitioned graph of a snapshot whose edge list
// was mutated from prev's (plain-mode partitioning only): the slot-stable
// chunking is preserved, so only the partitions whose slot ranges are named
// in changedSlots — plus chunks appended, dropped, or resized at the list
// boundary — are rebuilt from the mutated edge list. Every other *Partition
// is shared by pointer with prev (so the memory-hierarchy simulator sees one
// cacheable item, the property Fig. 5 relies on), and a mutation recuts
// O(touched) partitions instead of re-running the full Cut. The slot count
// may change, and the vertex space may grow (new vertices get replicas only
// once edges reach them) but never shrink: jobs bound to older snapshots
// index per-snapshot state by their own PG, so a larger N in a newer
// snapshot never perturbs them. Returns the new snapshot and the IDs of the
// partitions that were rebuilt, ascending.
func Restructure(prev *PGraph, numVertices int, edges []model.Edge, changedSlots []int) (*PGraph, []int, error) {
	if prev.NumCore != 0 {
		return nil, nil, fmt.Errorf("graph: Restructure requires plain partitioning (slot-stable chunks)")
	}
	if len(edges) == 0 {
		return nil, nil, fmt.Errorf("graph: cannot partition an empty edge list")
	}
	if numVertices < prev.G.N {
		return nil, nil, fmt.Errorf("graph: Restructure cannot shrink the vertex space (%d -> %d)", prev.G.N, numVertices)
	}
	chunk := prev.ChunkSize
	rebuild := make([]bool, (len(edges)+chunk-1)/chunk)
	for _, s := range changedSlots {
		if s < 0 || s >= len(edges) {
			// A slot beyond the new list: its chunk shrank or vanished;
			// the boundary rule below rebuilds what remains of it.
			continue
		}
		rebuild[s/chunk] = true
	}
	// When the list grew or shrank, the chunk containing the shorter
	// boundary changed its slot range even if none of its slots were
	// rewritten in place — unless the boundary lands exactly on a chunk
	// edge, in which case that chunk is complete and identical in both
	// lists and stays shared. Compared in slots, not live edges: holes
	// occupy chunk space, which is exactly what keeps a remove-bearing
	// flush from resizing the tail chunk.
	prevE := prev.G.Slots
	if b := min(len(edges), prevE); len(edges) != prevE && b%chunk != 0 {
		if p := (b - 1) / chunk; p < len(rebuild) {
			rebuild[p] = true
		}
	}
	pg := derive(prev, numVertices, edges, rebuild)
	var rebuilt []int
	for id, r := range rebuild {
		if r || id >= len(prev.Parts) {
			rebuilt = append(rebuilt, id)
		}
	}
	return pg, rebuilt, nil
}

// Overlay is Restructure for a mutation that keeps prev's slot count and
// vertex space, with the rebuilt partitions named directly (changedParts,
// see ChangedPartitions) instead of derived from changed slots.
func Overlay(prev *PGraph, edges []model.Edge, changedParts []int) (*PGraph, error) {
	if prev.NumCore != 0 {
		return nil, fmt.Errorf("graph: Overlay requires plain partitioning (slot-stable chunks)")
	}
	if len(edges) != prev.G.Slots {
		// Even a resize inside the last chunk would leave it shared, stale.
		return nil, fmt.Errorf("graph: Overlay edge list has %d slots, previous snapshot %d", len(edges), prev.G.Slots)
	}
	rebuild := make([]bool, len(prev.Parts))
	for _, id := range changedParts {
		if id < 0 || id >= len(rebuild) {
			return nil, fmt.Errorf("graph: Overlay changed partition %d out of range", id)
		}
		rebuild[id] = true
	}
	return derive(prev, prev.G.N, edges, rebuild), nil
}

// derive is the partition-rebuild loop Overlay and Restructure share: it
// builds one partition per prev-sized chunk, len(rebuild) in all.
// Partition id is built from its chunk, in ascending id order, when
// rebuild[id] is set or prev has no partition id; otherwise it is prev's,
// shared by pointer. The degree table is prev's, widened to the N Build
// would infer, minus every replaced or dropped partition and plus every
// built one, so it equals Build's; the built partitions take D(P) from it
// only then. Replica assignment is recomputed at the PGraph level, leaving
// shared partitions untouched.
func derive(prev *PGraph, numVertices int, edges []model.Edge, rebuild []bool) *PGraph {
	chunk := prev.ChunkSize
	built := func(id int) bool { return id >= len(prev.Parts) || rebuild[id] }
	chunkOf := func(id int) []model.Edge { return edges[id*chunk : min((id+1)*chunk, len(edges))] }
	n := numVertices
	for id := range rebuild {
		if built(id) {
			for _, e := range chunkOf(id) {
				if !e.IsHole() {
					n = max(n, int(e.Src)+1, int(e.Dst)+1)
				}
			}
		}
	}
	t := &DegreeTable{N: n, Slots: len(edges), NumEdges: prev.G.NumEdges, Out: make([]uint32, n), In: make([]uint32, n)}
	copy(t.Out, prev.G.Out)
	copy(t.In, prev.G.In)
	for id, p := range prev.Parts {
		if id >= len(rebuild) || rebuild[id] {
			t.count(p, -1)
		}
	}
	pg := &PGraph{G: t, Parts: make([]*Partition, len(rebuild)), ChunkSize: chunk}
	b := newBuilder(n)
	for id := range pg.Parts {
		if !built(id) {
			pg.Parts[id] = prev.Parts[id]
			continue
		}
		pg.Parts[id] = b.build(id, chunkOf(id), false)
		t.count(pg.Parts[id], 1)
	}
	for id, p := range pg.Parts {
		if built(id) {
			p.setAvgDegree(t)
		}
	}
	pg.assignMasters()
	return pg
}
