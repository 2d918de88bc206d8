package exec

import (
	"slices"
	"sync"
	"testing"

	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/refimpl"
	"cgraph/model"
)

// activeLocals lists the active local indices of partition pid.
func activeLocals(j *Job, pid int) []uint32 {
	var out []uint32
	act := j.PT.Active[pid]
	for li := act.NextSet(0); li >= 0; li = act.NextSet(li + 1) {
		out = append(out, uint32(li))
	}
	return out
}

// TestSliceActiveCoversFrontier checks that the edge-weighted slicer is a
// partition of the active frontier: every active vertex falls in exactly
// one range, weights match the 1+EdgeWork sum, and no inactive vertex is
// ever applied by ApplyRange.
func TestSliceActiveCoversFrontier(t *testing.T) {
	edges, n := testGraph(31)
	pg := buildPG(t, edges, n, 5)
	j := NewJob(0, algo.NewPageRank(), pg)

	// Run a few iterations first so frontiers are partial, not all-ones.
	if err := RunToConvergence(j, 3); err == nil {
		t.Skip("graph converged in 3 rounds; frontier test needs live rounds")
	}

	for pid, p := range pg.Parts {
		want := activeLocals(j, pid)
		for _, target := range []int64{1, 7, 100, 1 << 40} {
			ranges := j.SliceActive(pid, target, nil)
			var got []uint32
			var total int64
			prevHi := -1
			for _, r := range ranges {
				if r.Lo < 0 || r.Hi > p.NumVertices() || r.Lo >= r.Hi {
					t.Fatalf("pid %d target %d: bad range %+v", pid, target, r)
				}
				if r.Lo < prevHi {
					t.Fatalf("pid %d target %d: overlapping ranges at %+v", pid, target, r)
				}
				prevHi = r.Hi
				var w int64
				for li := j.PT.Active[pid].NextSet(r.Lo); li >= 0 && li < r.Hi; li = j.PT.Active[pid].NextSet(li + 1) {
					got = append(got, uint32(li))
					w += 1 + p.EdgeWork(uint32(li), j.Dir)
				}
				if w != r.Weight {
					t.Fatalf("pid %d target %d: range %+v weight mismatch, recount %d", pid, target, r, w)
				}
				total += w
			}
			if len(got) != len(want) {
				t.Fatalf("pid %d target %d: ranges cover %d actives, frontier has %d", pid, target, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("pid %d target %d: active %d covered as %d, want %d", pid, target, i, got[i], want[i])
				}
			}
			// Oversized ranges are allowed only for indivisible hubs: a
			// range may exceed target by at most one vertex's weight.
			for _, r := range ranges[:max(0, len(ranges)-1)] {
				if r.Weight < target && target < 1<<40 {
					t.Fatalf("pid %d: non-final range %+v under target %d", pid, r, target)
				}
			}
		}
	}
}

// TestApplyRangeMatchesChunkedSerial drives a full SSSP to convergence
// applying each partition through SliceActive + concurrent ApplyRange
// calls — disjoint windows over the shared frontier bitset on separate
// goroutines, the exact shape the work-stealing pool produces. Run under
// -race this doubles as the frontier/bitset concurrency check; the result
// must match Dijkstra.
func TestApplyRangeMatchesChunkedSerial(t *testing.T) {
	edges, n := testGraph(11)
	pg := buildPG(t, edges, n, 4)

	j := NewJob(0, algo.NewSSSP(0), pg)
	for r := 0; r < 10000 && !j.Done; r++ {
		for pid := range pg.Parts {
			if j.PT.ActiveCount[pid] == 0 {
				continue
			}
			ranges := j.SliceActive(pid, 40, nil)
			scratches := make([]*Scratch, len(ranges))
			stats := make([]Stats, len(ranges))
			var wg sync.WaitGroup
			for i, r := range ranges {
				scratches[i] = &Scratch{}
				wg.Add(1)
				go func(i int, r Range) {
					defer wg.Done()
					stats[i] = j.ApplyRange(pid, r, scratches[i])
				}(i, r)
			}
			wg.Wait()
			j.Merge(pid, scratches...)
			for _, st := range stats {
				j.EdgesProcessed += st.Edges
				j.VerticesApplied += st.Vertices
			}
		}
		j.FinishIteration()
	}
	if !j.Done {
		t.Fatal("ranged run did not converge")
	}
	want := refimpl.SSSP(graph.Build(n, edges), 0)
	wantClose(t, "sssp-ranged", j.Results(), want, 1e-9)
}

// TestReentrantMatchesReference pins ProcessPartitionReentrant's
// soundness claim: eager local re-processing (multiple passes while the
// partition is "loaded") must reach the exact fixed point of the plain
// BSP sweep for monotone programs (SSSP min-plus, WCC min-label), where
// reentry only accelerates convergence. (Accumulative programs like
// PageRank reach an epsilon-equivalent answer, not a bitwise one — the
// baseline CLIP chain test covers that mode.)
func TestReentrantMatchesReference(t *testing.T) {
	edges, n := testGraph(13)
	for _, parts := range []int{1, 4} {
		pg := buildPG(t, edges, n, parts)

		js := NewJob(0, algo.NewSSSP(0), pg)
		for r := 0; r < 10000 && !js.Done; r++ {
			for pid := range pg.Parts {
				if js.PT.ActiveCount[pid] > 0 {
					js.ProcessPartitionReentrant(pid, 4)
				}
			}
			js.FinishIteration()
		}
		if !js.Done {
			t.Fatalf("parts=%d: reentrant SSSP did not converge", parts)
		}
		if err := js.CheckReplicaConsistency(); err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		wantClose(t, "sssp-reentrant", js.Results(), refimpl.SSSP(graph.Build(n, edges), 0), 1e-9)

		jw := NewJob(1, algo.NewWCC(), pg)
		for r := 0; r < 10000 && !jw.Done; r++ {
			for pid := range pg.Parts {
				if jw.PT.ActiveCount[pid] > 0 {
					jw.ProcessPartitionReentrant(pid, 3)
				}
			}
			jw.FinishIteration()
		}
		if !jw.Done {
			t.Fatalf("parts=%d: reentrant WCC did not converge", parts)
		}
		if err := jw.CheckReplicaConsistency(); err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		gotW, wantW := jw.Results(), refimpl.WCC(graph.Build(n, edges))
		for v := 0; v < n; v++ {
			if pg.G.Degree(model.VertexID(v), model.Both) == 0 {
				continue // isolated vertices stay untouched in both
			}
			if gotW[v] != wantW[v] {
				t.Fatalf("parts=%d: wcc vertex %d: got %v, want %v", parts, v, gotW[v], wantW[v])
			}
		}
	}
}

// TestWeightedSlicingBeatsVertexCount is the skewed-graph regression: on
// a power-law graph, vertex-count chunking (the pre-refactor splitter)
// packs the hubs into one chunk whose edge work dwarfs the rest, while
// edge-weighted slicing bounds every task near the target. The heaviest
// static chunk must carry at least 3x the edge work of the heaviest
// weighted slice — if this ever fails, degree-aware slicing has regressed
// to vertex counting.
func TestWeightedSlicingBeatsVertexCount(t *testing.T) {
	const n = 4000
	edges := gen.Zipf(7, n, 60000, 1.2)
	pg := buildPG(t, edges, n, 1)
	j := NewJob(0, algo.NewPageRank(), pg)
	const workers = 8

	// First iteration: everything active, the worst case for skew.
	p := pg.Parts[0]
	locals := activeLocals(j, 0)

	// Static splitter, verbatim from the legacy engine: equal vertex
	// counts, total/(workers*2)+1 per chunk, minimum 32.
	chunk := len(locals)/(workers*2) + 1
	if chunk < 32 {
		chunk = 32
	}
	var maxStatic int64
	for lo := 0; lo < len(locals); lo += chunk {
		hi := min(lo+chunk, len(locals))
		var w int64
		for _, li := range locals[lo:hi] {
			w += 1 + p.EdgeWork(li, j.Dir)
		}
		if w > maxStatic {
			maxStatic = w
		}
	}

	// Weighted slicer at the engine's default balance factor of 4.
	var totalW int64
	for _, li := range locals {
		totalW += 1 + p.EdgeWork(li, j.Dir)
	}
	target := totalW/(workers*4) + 1
	var maxWeighted int64
	for _, r := range j.SliceActive(0, target, nil) {
		if r.Weight > maxWeighted {
			maxWeighted = r.Weight
		}
	}

	if maxWeighted == 0 || maxStatic < 3*maxWeighted {
		t.Fatalf("heaviest static chunk %d vs heaviest weighted slice %d: want >= 3x separation (total %d, target %d)",
			maxStatic, maxWeighted, totalW, target)
	}
	// And the weighted slicer must actually respect its target up to one
	// indivisible hub vertex.
	var maxVertex int64
	for _, li := range locals {
		if w := 1 + p.EdgeWork(li, j.Dir); w > maxVertex {
			maxVertex = w
		}
	}
	if maxWeighted > target+maxVertex {
		t.Fatalf("weighted slice %d exceeds target %d + heaviest vertex %d", maxWeighted, target, maxVertex)
	}
}

// TestSliceWeightedMatchesSliceActive: handing the slicer the frontier's
// weight changes how far it walks, never what it returns — on full and
// partial frontiers, for targets from one vertex to more than everything.
func TestSliceWeightedMatchesSliceActive(t *testing.T) {
	edges, n := testGraph(17)
	pg := buildPG(t, edges, n, 4)
	j := NewJob(0, algo.NewSSSP(0), pg)
	for it := 0; it < 4; it++ {
		for pid := range pg.Parts {
			total := j.ActiveWeight(pid)
			for _, target := range []int64{1, 7, total / 3, total - 1, total, total + 1, 1 << 62} {
				want := j.SliceActive(pid, target, nil)
				if got := j.SliceWeighted(pid, target, total, nil); !slices.Equal(got, want) {
					t.Fatalf("iteration %d partition %d target %d of %d: %v, SliceActive %v", it, pid, target, total, got, want)
				}
			}
		}
		for pid := range pg.Parts {
			j.ProcessPartition(pid, &Scratch{})
		}
		j.FinishIteration()
	}
}
