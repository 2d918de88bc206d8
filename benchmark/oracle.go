package main

import (
	"fmt"
	"math"
	"sort"

	"cgraph/api"
	"cgraph/internal/graph"
	"cgraph/internal/refimpl"
)

// Tolerances of the sum programs: a value passes when it is within
// tol * max(1, |oracle|) of the oracle. Calibrated once on seeds 1..10 at
// full size (README "Correctness" has the observed errors). The registry's
// PageRank stops at a per-vertex residual of 1e-3, which leaves a vertex
// about 1e-3/(1-d) of its rank short of the fixed point (0.0067 at d=0.85,
// 0.0033 at d=0.7; observed 0.0063 and 0.0030); PPR stops at 1e-6 (observed
// 4.9e-4 absolute); HITS runs refimpl's 20 rounds and differs by summation
// order only (observed 2.4e-16).
const (
	tolPageRank   = 0.01
	tolPageRank07 = 0.005
	tolPPR        = 1e-3
	tolHITS       = 1e-12
)

// oracle returns the reference values of j on g and the tolerance they are
// compared under (0 = must be equal).
func (j jobSpec) oracle(g *graph.Graph) ([]float64, float64) {
	switch j.algo {
	case "pagerank":
		return refimpl.PageRank(g, 0.85, 1e-12, 3000), tolPageRank
	case "pagerank07":
		return refimpl.PageRank(g, 0.7, 1e-12, 3000), tolPageRank07
	case "ppr":
		return refimpl.PPR(g, j.source, 0.85, 1e-12, 3000), tolPPR
	case "hits":
		auth, _ := refimpl.HITS(g, 20)
		return auth, tolHITS
	case "sssp":
		return refimpl.SSSP(g, j.source), 0
	case "bfs":
		return refimpl.BFS(g, j.source), 0
	case "sswp":
		return refimpl.SSWP(g, j.source), 0
	case "wcc":
		return refimpl.WCC(g), 0
	case "scc":
		return sccLabels(g), 0
	}
	panic("benchmark: no oracle for " + j.algo)
}

// sccLabels turns refimpl's arbitrary component ids into the label algo.SCC
// reports: the largest vertex id of the component.
func sccLabels(g *graph.Graph) []float64 {
	comp := refimpl.SCC(g)
	top := map[int]int{}
	for v, c := range comp {
		top[c] = max(top[c], v)
	}
	out := make([]float64, len(comp))
	for v, c := range comp {
		out[v] = float64(top[c])
	}
	return out
}

func closeEnough(got, want, tol float64) bool {
	if got == want || (math.IsNaN(got) && math.IsNaN(want)) {
		return true
	}
	return tol > 0 && math.Abs(got-want) <= tol*max(1, math.Abs(want))
}

// checkValues compares a full result vector with its oracle.
func checkValues(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, oracle has %d", len(got), len(want))
	}
	for v := range want {
		if !closeEnough(got[v], want[v], tol) {
			return fmt.Errorf("vertex %d: got %v, oracle %v (tolerance %g)", v, got[v], want[v], tol)
		}
	}
	return nil
}

// checkTop compares a top-k result with its oracle: every listed value must
// match the oracle's value for that vertex, the list must be in descending
// order, and the last listed value may not fall short of the oracle's k-th
// largest by more than the tolerance.
func checkTop(top []api.VertexValue, want []float64, tol float64, k int) error {
	if len(top) != min(k, len(want)) {
		return fmt.Errorf("%d top entries, want %d", len(top), min(k, len(want)))
	}
	listed := map[int]bool{}
	for i, tv := range top {
		if tv.Vertex < 0 || tv.Vertex >= len(want) || listed[tv.Vertex] {
			return fmt.Errorf("top[%d]: bad or repeated vertex %d", i, tv.Vertex)
		}
		listed[tv.Vertex] = true
		if !closeEnough(float64(tv.Value), want[tv.Vertex], tol) {
			return fmt.Errorf("top[%d] vertex %d: got %v, oracle %v", i, tv.Vertex, float64(tv.Value), want[tv.Vertex])
		}
		if i > 0 && float64(tv.Value) > float64(top[i-1].Value) {
			return fmt.Errorf("top[%d] is out of order", i)
		}
	}
	sorted := append([]float64(nil), want...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	if kth := sorted[len(top)-1]; float64(top[len(top)-1].Value) < kth-tol*max(1, math.Abs(kth)) {
		return fmt.Errorf("last top value %v is below the oracle's %v", float64(top[len(top)-1].Value), kth)
	}
	return nil
}
