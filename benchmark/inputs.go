package main

import (
	"math/rand"
	"sort"

	"cgraph/algo"
	"cgraph/api"
	"cgraph/internal/gen"
	"cgraph/model"
	"cgraph/server"
)

// jobSpec is one job of a workload's mix: an algorithm of the service's
// registry and its source vertex. "pagerank07" is batch_dense's second
// PageRank (damping 0.7); only the in-process batch workloads run it.
type jobSpec struct {
	algo   string
	source model.VertexID
}

var registry = server.DefaultRegistry()

func (j jobSpec) program() model.Program {
	if j.algo == "pagerank07" {
		return &algo.PageRank{Damping: 0.7, Epsilon: 1e-3}
	}
	p, err := registry.Build(j.algo, server.ProgramParams{Source: j.source})
	if err != nil {
		panic(err) // the mixes below name registered algorithms only
	}
	return p
}

// wire is the job as a client submits it; every operation carries the 30 s
// deadline.
func (j jobSpec) wire() api.JobSpec {
	return api.JobSpec{Algo: j.algo, Source: uint32(j.source), TimeoutMS: opDeadline.Milliseconds()}
}

// inputs is everything a workload's program sees: a generated graph and the
// job mix to run over it.
type inputs struct {
	numV  int
	edges []model.Edge
	jobs  []jobSpec
}

// sizes scales the generated graphs; toy is the smoke test's scale.
type sizes struct {
	denseV, denseE int
	latticeSide    int
	serveV, serveE int
	deltaMutations int
}

var (
	fullSizes = sizes{denseV: 8192, denseE: 262144, latticeSide: 200, serveV: 4000, serveE: 120000, deltaMutations: 200}
	toySizes  = sizes{denseV: 256, denseE: 4096, latticeSide: 20, serveV: 400, serveE: 6000, deltaMutations: 40}
)

// rmatStructureSeed fixes the topology of both RMAT graphs for every run.
const rmatStructureSeed = 20180711

// rmat generates a skewed graph (a, b, c = .57, .19, .19, the Graph500
// recipe). Its topology is the same for every seed; the seed draws the edge
// weights. The driver reads a difference between seeds as noise, and a
// reseeded topology moved the work (SCC peeling depth, PageRank iteration
// count) by 4 % either way on the 4 000-vertex graph, as much as the machine's
// own noise.
func rmat(seed int64, v, e int) []model.Edge {
	edges := gen.RMAT(rmatStructureSeed, v, e, 0.57, 0.19, 0.19)
	rng := rand.New(rand.NewSource(seed))
	for i := range edges {
		edges[i].Weight = 1 + rng.Float32()*9
	}
	return edges
}

// busiestSources returns the n vertices with the most out-edges (ties to the
// lower id). Traversals from them reach the graph's giant component whatever
// the seed, so the work of a traversal job does not hinge on a lucky or
// unlucky draw of its source.
func busiestSources(numV int, edges []model.Edge, n int) []model.VertexID {
	outDeg := make([]int, numV)
	for _, e := range edges {
		outDeg[e.Src]++
	}
	ids := make([]model.VertexID, numV)
	for v := range ids {
		ids[v] = model.VertexID(v)
	}
	sort.SliceStable(ids, func(a, b int) bool { return outDeg[ids[a]] > outDeg[ids[b]] })
	return ids[:n]
}

// denseInputs: an RMAT graph on which PageRank, PPR, PageRank(d=0.7) and
// HITS keep every vertex active every iteration.
func denseInputs(seed int64, sz sizes) inputs {
	edges := rmat(seed, sz.denseV, sz.denseE)
	src := busiestSources(sz.denseV, edges, 1)[0]
	return inputs{numV: sz.denseV, edges: edges, jobs: []jobSpec{
		{algo: "pagerank"}, {algo: "ppr", source: src}, {algo: "pagerank07"}, {algo: "hits"},
	}}
}

// latticeWeightSeed fixes the lattice's link weights for every run.
const latticeWeightSeed = 20180711

// lattice generates a side x side 4-neighbour grid with both directions of
// every link and integer weights 1..7, in row-major order of the grid, so
// that the slot-order vertex cut turns partitions into horizontal strips and
// a traversal's frontier crosses them one after another. The seed draws the
// vertex ids (a random relabelling of the grid); the weights are the same
// for every seed, because on a grid they decide how many relaxations SSSP
// and SSWP need: seeded weights moved the bytes allocated per batch by 8 %
// between seeds, more than any bound here. at(r, c) is the id of the grid
// point in row r and column c.
func lattice(seed int64, side int) (edges []model.Edge, at func(r, c int) model.VertexID) {
	label := rand.New(rand.NewSource(seed)).Perm(side * side)
	at = func(r, c int) model.VertexID { return model.VertexID(label[r*side+c]) }
	weights := rand.New(rand.NewSource(latticeWeightSeed))
	edges = make([]model.Edge, 0, 4*side*(side-1))
	link := func(a, b model.VertexID) {
		w := float32(1 + weights.Intn(7))
		edges = append(edges, model.Edge{Src: a, Dst: b, Weight: w}, model.Edge{Src: b, Dst: a, Weight: w})
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				link(at(r, c), at(r, c+1))
			}
			if r+1 < side {
				link(at(r, c), at(r+1, c))
			}
		}
	}
	return edges, at
}

// frontierInputs: eight traversals over the lattice from fixed places of the
// grid (corners, edge midpoints, centre), so that the number of rounds,
// which the grid's diameter sets, is the same for every seed.
func frontierInputs(seed int64, sz sizes) inputs {
	s := sz.latticeSide
	edges, at := lattice(seed, s)
	last, mid := s-1, s/2
	return inputs{numV: s * s, edges: edges, jobs: []jobSpec{
		{algo: "bfs", source: at(0, 0)},
		{algo: "bfs", source: at(last, last)},
		{algo: "bfs", source: at(0, last)},
		{algo: "bfs", source: at(mid, mid)},
		{algo: "sssp", source: at(last, 0)},
		{algo: "sssp", source: at(0, mid)},
		{algo: "sssp", source: at(mid, 0)},
		{algo: "sswp", source: at(last, mid)},
	}}
}

// serveInputs: the paper's four-algorithm mix (pagerank, sssp, scc, bfs)
// over an RMAT graph; the traversals start from its busiest vertices, a
// different one each time, so the job list holds two full rotations of the
// mix.
func serveInputs(seed int64, sz sizes) inputs {
	edges := rmat(seed, sz.serveV, sz.serveE)
	srcs := busiestSources(sz.serveV, edges, 8)
	in := inputs{numV: sz.serveV, edges: edges}
	for i, algo := range []string{"pagerank", "sssp", "scc", "bfs", "pagerank", "sssp", "scc", "bfs"} {
		j := jobSpec{algo: algo}
		if algo == "sssp" || algo == "bfs" {
			j.source = srcs[i]
		}
		in.jobs = append(in.jobs, j)
	}
	return in
}
