// Asynchronous (fresh-state) and delayed (bounded-staleness) execution for
// CGP jobs. The BSP path in exec.go is strictly bulk-synchronous: every
// vertex reads the neighbor deltas pushed at the previous iteration close.
// The fresh-state path here lets a vertex read neighbor state written
// earlier in the same iteration — a block-sequenced Gauss-Seidel sweep in
// the spirit of "Fast Iterative Graph Computing with Updated Neighbor
// States" — which typically propagates values several hops per iteration
// and cuts iterations-to-convergence. The delayed variant additionally
// tolerates replica staleness for up to a bounded number of iterations
// ("Delayed Asynchronous Iterative Graph Algorithms"): the merge barrier
// (Push) is skipped while local single-replica work remains, and forced
// when the bound is hit or the local frontier drains.
//
// Soundness on the vertex-cut substrate mirrors ProcessPartitionReentrant:
// only single-replica vertices are folded eagerly (a replicated vertex
// updated mid-iteration would strand the value on one replica), while
// contributions to replicated vertices are buffered and reconciled by the
// push exactly as in the BSP path. For programs with an order-independent
// accumulator — the monotonic min/max family (SSSP, WCC, SSWP, BFS) —
// fresh-state execution converges to the identical fixed point; for
// additive programs (PageRank, PPR, Katz) it converges to the same values
// within the program's tolerance, usually in fewer iterations.
package exec

import (
	"fmt"
	"math"

	"cgraph/internal/bitset"
	"cgraph/model"
)

// Mode selects a job's execution discipline.
type Mode uint8

const (
	// ModeBSP is the default bulk-synchronous discipline: all reads see
	// the previous iteration's state, all scattered contributions are
	// buffered and folded at the iteration's merge, replicas reconcile at
	// every iteration close. Deterministic and byte-stable.
	ModeBSP Mode = iota
	// ModeAsync is the fresh-state discipline: within a partition,
	// vertices are applied in block (local-index) order and contributions
	// to later single-replica vertices fold into the private table
	// immediately, so they are consumed in the same iteration.
	// Cross-partition propagation still happens only at the iteration's
	// push, so replicas stay consistent.
	ModeAsync
	// ModeDelayed is ModeAsync plus bounded staleness: the iteration-close
	// push is skipped — replica deltas stay parked — while local
	// single-replica work remains, up to Job.Staleness consecutive skips,
	// after which a merge barrier is forced.
	ModeDelayed
)

// DefaultStaleness is the delayed-mode barrier bound used when
// Job.Staleness is zero: how many consecutive iteration closes may skip
// the push before one is forced.
const DefaultStaleness = 3

func (m Mode) String() string {
	switch m {
	case ModeAsync:
		return "async"
	case ModeDelayed:
		return "delayed"
	default:
		return "bsp"
	}
}

// ParseMode resolves a mode name ("bsp", "async", "delayed"). The empty
// string parses as ModeBSP, the default.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "bsp":
		return ModeBSP, nil
	case "async":
		return ModeAsync, nil
	case "delayed":
		return ModeDelayed, nil
	}
	return ModeBSP, fmt.Errorf("exec: unknown execution mode %q (want bsp, async, or delayed)", s)
}

// stalenessBound returns the effective delayed-mode barrier bound.
func (j *Job) stalenessBound() int {
	if j.Staleness > 0 {
		return j.Staleness
	}
	return DefaultStaleness
}

// freshSink returns the scatter sink of the fresh-state path for one
// partition. Contributions to replicated vertices are buffered into sc and
// reconciled by the push, exactly as in the BSP path; contributions to
// single-replica vertices fold into the private table immediately, so
// vertices later in the block sequence apply against already-updated
// neighbor state. Activation is left to the push: a fresh delta consumed
// later in the same sweep ends at Identity and is skipped by the gather,
// while an unconsumed one keeps its Received bit and reactivates the
// vertex there. Scatter destinations are partition-local, so the fold
// touches only partition pid's state — disjoint partitions stay safe to
// process concurrently as long as each runs its sweep on one goroutine.
func (j *Job) freshSink(pid int, sc *Scratch, st *Stats) func(dst uint32, c float64) {
	p := j.PG.Parts[pid]
	states := j.PT.States[pid]
	recv := j.PT.Received[pid]
	filter, filtered := j.Prog.(model.Filterer)
	return func(dst uint32, c float64) {
		if j.PG.IsReplicated(p.Globals[dst]) {
			sc.dst = append(sc.dst, dst)
			sc.contrib = append(sc.contrib, c)
			return
		}
		if filtered && !filter.Accept(states[dst], c) {
			return
		}
		states[dst].Delta = j.Prog.Acc(states[dst].Delta, c)
		recv.Set(int(dst))
		j.DeltaSum[pid] += math.Abs(c)
		st.Fresh++
	}
}

// ApplyRangeFresh is the fresh-state counterpart of ApplyRange: it applies
// the active vertices of partition pid inside r's window in block order,
// folding single-replica contributions into the private table immediately
// and buffering replicated ones into sc. Unlike ApplyRange, ranges of the
// same partition must execute sequentially (the engine chains them into
// one pool task); ranges of distinct partitions may still run concurrently.
func (j *Job) ApplyRangeFresh(pid int, r Range, sc *Scratch) Stats {
	p := j.PG.Parts[pid]
	states := j.PT.States[pid]
	act := j.PT.Active[pid]
	var st Stats
	sink := j.freshSink(pid, sc, &st)
	for li := act.NextSet(r.Lo); li >= 0 && li < r.Hi; li = act.NextSet(li + 1) {
		s := &states[li]
		v := p.Globals[li]
		deg := j.PG.G.Degree(v, j.Dir)
		seed, scatter := j.Prog.Apply(v, s, deg)
		st.Vertices++
		if !scatter {
			continue
		}
		if j.Dir == model.Out || j.Dir == model.Both {
			for ei := p.OutOff[li]; ei < p.OutOff[li+1]; ei++ {
				sink(p.OutDst[ei], j.Prog.Contribution(seed, p.OutW[ei]))
				st.Edges++
			}
		}
		if j.Dir == model.In || j.Dir == model.Both {
			for ei := p.InOff[li]; ei < p.InOff[li+1]; ei++ {
				sink(p.InDst[ei], j.Prog.Contribution(seed, p.InW[ei]))
				st.Edges++
			}
		}
	}
	return st
}

// ApplyChunkFresh is the fresh-state counterpart of ApplyChunk, with the
// same sequencing contract as ApplyRangeFresh: chunks of one partition run
// in ascending-local order on one goroutine, chunks of distinct partitions
// run concurrently.
func (j *Job) ApplyChunkFresh(pid int, locals []uint32, sc *Scratch) Stats {
	p := j.PG.Parts[pid]
	states := j.PT.States[pid]
	var st Stats
	sink := j.freshSink(pid, sc, &st)
	for _, li := range locals {
		s := &states[li]
		v := p.Globals[li]
		deg := j.PG.G.Degree(v, j.Dir)
		seed, scatter := j.Prog.Apply(v, s, deg)
		st.Vertices++
		if !scatter {
			continue
		}
		if j.Dir == model.Out || j.Dir == model.Both {
			for ei := p.OutOff[li]; ei < p.OutOff[li+1]; ei++ {
				sink(p.OutDst[ei], j.Prog.Contribution(seed, p.OutW[ei]))
				st.Edges++
			}
		}
		if j.Dir == model.In || j.Dir == model.Both {
			for ei := p.InOff[li]; ei < p.InOff[li+1]; ei++ {
				sink(p.InDst[ei], j.Prog.Contribution(seed, p.InW[ei]))
				st.Edges++
			}
		}
	}
	return st
}

// ProcessPartitionFresh runs the whole-partition fresh-state sweep
// serially: apply every active vertex in block order with eager
// single-replica folds, then merge the deferred replicated contributions.
// It is the async/delayed counterpart of ProcessPartition, used by
// RunToConvergence and the sequential baselines.
func (j *Job) ProcessPartitionFresh(pid int, sc *Scratch) Stats {
	sc.Reset()
	p := j.PG.Parts[pid]
	st := j.ApplyRangeFresh(pid, Range{Lo: 0, Hi: p.NumVertices()}, sc)
	j.Merge(pid, sc)
	j.EdgesProcessed += st.Edges
	j.VerticesApplied += st.Vertices
	j.FreshFolds += st.Fresh
	return st
}

// localNext marks for the next iteration every single-replica vertex that
// holds an unconsumed pending delta this iteration — the delayed-mode
// "local advance" that defers the merge barrier. Replicated vertices are
// left untouched: their deltas stay parked until the barrier. Returns the
// number of vertices marked.
func (j *Job) localNext() int {
	ident := j.Prog.Identity()
	n := 0
	for pid := range j.PG.Parts {
		p := j.PG.Parts[pid]
		states := j.PT.States[pid]
		next := j.PT.Next[pid]
		j.PT.Received[pid].Range(func(li int) bool {
			if states[li].Delta == ident {
				return true
			}
			if j.PG.IsReplicated(p.Globals[li]) {
				return true
			}
			if j.Prog.IsActive(states[li]) {
				next.Set(li)
				n++
			}
			return true
		})
	}
	return n
}

// ensurePending lazily allocates the delayed-mode pending bitsets: one per
// partition, persisting Received bits across barrier-skipping advances so
// the eventual push's gather still sees every parked replica delta.
func (j *Job) ensurePending() []*bitset.Set {
	if j.pending == nil {
		j.pending = make([]*bitset.Set, len(j.PG.Parts))
		for pid, p := range j.PG.Parts {
			j.pending[pid] = bitset.New(p.NumVertices())
		}
	}
	return j.pending
}

// closeIterationDelayed is the delayed-mode iteration close. While the
// staleness bound allows and local single-replica work remains, the push
// is skipped: pending receipt bits are preserved, locally deliverable
// vertices advance, and replica deltas stay parked (skipped=true, zero
// summary). Otherwise a merge barrier is taken: preserved receipts are
// restored so the push's gather covers every delta parked since the last
// barrier, and the caller falls through to the shared barrier path.
func (j *Job) closeIterationDelayed() (PushSummary, bool) {
	if j.sinceBarrier < j.stalenessBound() && j.localNext() > 0 {
		pending := j.ensurePending()
		for pid := range j.PG.Parts {
			pending[pid].Or(j.PT.Received[pid])
		}
		j.PT.Advance()
		j.Iterations++
		j.sinceBarrier++
		j.BarriersSkipped++
		return PushSummary{}, true
	}
	j.BarriersForced++
	if j.sinceBarrier > 0 {
		for pid, pb := range j.pending {
			j.PT.Received[pid].Or(pb)
			pb.Reset()
		}
		j.sinceBarrier = 0
	}
	return PushSummary{}, false
}
