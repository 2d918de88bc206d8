// Package exec is the job runtime shared by the CGraph engine and every
// baseline: the apply+scatter loop of Algorithm 1 over one partition (in a
// synchronous/BSP variant and a CLIP-style eager-reentry variant) and the
// batched replica synchronization of Algorithm 2. Centralizing the vertex
// arithmetic guarantees that all engines compute identical results and
// differ only in orchestration and data-movement behaviour.
//
// A (job, partition) BSP step — apply every active vertex, scatter what it
// seeds along its edges, fold the contributions into the receivers' Δ — comes
// in two shapes. Sweep is the step as one task: it applies the whole frontier
// first, keeping a (local, seed) pair per vertex that scatters, then walks
// the pairs and folds each edge's contribution straight into the receiver,
// with no per-edge buffer and no second task. It is the only shape anything
// runs: the engine, one task per sweep, and the serial callers —
// ProcessPartition, RunToConvergence, the baselines. ApplyRange + Merge is
// the step cut up as the straggler split of Fig. 6 describes it: disjoint
// ranges of the frontier (SliceWeighted) are applied, each buffering a
// (destination, contribution) pair per edge into its own Scratch, and one
// Merge folds the scratches in range order. The engine no longer runs it; it
// prices it. SweepRanges is Sweep reporting the Stats each of those ranges
// would have had, which is what the virtual clock charges for a straggler.
// ApplyRange and Merge stay as the oracle of TestSweepMatchesApplyMerge and
// the kernel the benchmark's exec leg replays. The two shapes leave
// identical bits, because they fold the same values in the same order onto
// the same base: both apply every vertex of the partition before the first
// fold (Apply resets a vertex's own Δ, so a fold that ran ahead of it would
// be lost), and both visit scattering vertices in ascending local order,
// each vertex's out-edges before its in-edges, each list in CSR order — the
// order in which ranges are merged, ApplyRange walks a range, and buffer
// appends. Float accumulation into Δ and DeltaSum is therefore the same
// sequence of operations either way; TestSweepMatchesApplyMerge holds every
// bundled program to it. The edge arithmetic itself also comes in two forms,
// by what the program declares (kernel.go, model.Algebraic).
//
// The BSP kernel allocates nothing in steady state. ApplyRange grows its
// Scratch at most once, to the range's weight, and Sweep to the partition's
// active count; callers that keep their scratches (the engine keeps one per
// pool worker) stop allocating after the first sweep. A job keeps its
// frontier's weight per partition (ActiveWeight), refreshed where the
// frontier changes — at the end of every iteration, on whichever goroutine
// closes it — so planning a round reads it without a walk. Push folds each
// mirror's Δ directly into its master's slot while walking the receivers in
// ascending (partition, local) order — a master sits in the lowest partition
// holding its vertex, so its folds arrive in ascending source-partition
// order, which fixes the float accumulation order — and keeps its working set
// (a master-hit bitset per partition, a touched flag per partition) on the
// Job. PushSummary.TouchedParts aliases one of those buffers: it is valid
// until the job's next Push, so consume it before closing another iteration.
package exec

import (
	"fmt"
	"math"
	"slices"

	"cgraph/internal/bitset"
	"cgraph/internal/graph"
	"cgraph/internal/storage"
	"cgraph/model"
)

// Stats counts the work of one processing call, the input to the simulated
// compute-cost model.
type Stats struct {
	Edges    int64
	Vertices int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Edges += other.Edges
	s.Vertices += other.Vertices
}

// Job is one running CGP job: a program bound to a snapshot, its private
// table, and its run-time counters.
type Job struct {
	ID   int
	Prog model.Program
	PG   *graph.PGraph
	PT   *storage.PrivateTable
	// Dir caches Prog.Direction() for the current phase.
	Dir model.Direction
	// What the BSP edge loops run, resolved once from Prog (see kernel.go):
	// alg is the arithmetic that stands in for Acc and Contribution (zero
	// sends them through the interface), filter is Prog as a Filterer or nil.
	alg    model.Algebra
	filter model.Filterer

	Iterations int
	Phases     int
	Done       bool

	// SubmitTime/FinishTime are virtual timestamps managed by engines.
	SubmitTime float64
	FinishTime float64

	// DeltaSum[p] accumulates |contribution| scattered into partition p
	// this iteration; it feeds C(P) of the Eq. 1 scheduler.
	DeltaSum []float64

	// Cumulative counters.
	EdgesProcessed  int64
	VerticesApplied int64
	SyncEntries     int64

	// Push's working set, allocated by its first call and reset by every
	// call: hit[p] marks the masters of partition p that received a Δ this
	// iteration (directly or folded from a mirror), touched flags the
	// partitions read or written, and touchedParts backs the returned
	// PushSummary.TouchedParts.
	hit          []*bitset.Set
	touched      []bool
	touchedParts []int

	// weight[p] is ActiveWeight(p), recomputed wherever the frontier or the
	// direction changes: in NewJob and at the end of every advance.
	weight []int64
}

// NewJob builds a job over the given snapshot, initializing its private
// table and activity sets.
func NewJob(id int, prog model.Program, pg *graph.PGraph) *Job {
	filter, _ := prog.(model.Filterer)
	j := &Job{
		ID:       id,
		Prog:     prog,
		PG:       pg,
		PT:       storage.NewPrivateTable(id, pg, prog),
		Dir:      prog.Direction(),
		alg:      algebraOf(prog),
		filter:   filter,
		DeltaSum: make([]float64, len(pg.Parts)),
		weight:   make([]int64, len(pg.Parts)),
	}
	j.reweigh()
	return j
}

// Scratch is the side buffer of one apply call, as two parallel arrays. Under
// ApplyRange it holds one (destination local, contribution)
// pair per scattered edge, which Merge folds afterwards; under Sweep it holds
// one (local, seed) pair per scattering vertex, which Sweep itself consumes.
// It is reusable across partitions and iterations: Reset keeps the capacity,
// and ApplyRange and Sweep grow it at most once per call, to the range's
// weight and to the partition's active count. The zero value is ready to use.
type Scratch struct {
	dst     []uint32
	contrib []float64
}

// Reset empties the scratch, retaining capacity.
func (sc *Scratch) Reset() {
	sc.dst = sc.dst[:0]
	sc.contrib = sc.contrib[:0]
}

// Len returns the number of buffered pairs.
func (sc *Scratch) Len() int { return len(sc.dst) }

// Grow makes room for n more pairs, so that a sweep of up to n active
// vertices will not reallocate.
func (sc *Scratch) Grow(n int) {
	sc.dst = slices.Grow(sc.dst, n)
	sc.contrib = slices.Grow(sc.contrib, n)
}

// Range is one edge-weighted slice of a partition's active frontier: the
// local-index window [Lo, Hi) of which only active vertices are applied.
// Weight is the slice's scatter cost estimate (1 + incident edges per
// active vertex), the task weight fed to the work-stealing pool.
type Range struct {
	Lo, Hi int
	Weight int64
}

// SliceActive cuts partition pid's active frontier into ranges of roughly
// target weight each, appending to buf. Weight is measured in scatter
// edges (via the partition CSR prefix sums), so a hub vertex lands in a
// slice of its own while long runs of leaves coalesce — the degree-aware
// task sizing that replaces vertex-count chunking. An empty frontier
// appends nothing.
func (j *Job) SliceActive(pid int, target int64, buf []Range) []Range {
	return j.SliceWeighted(pid, target, -1, buf)
}

// SliceWeighted is SliceActive for a caller that already holds the
// frontier's ActiveWeight in total: the walk stops as soon as what is left
// of total is too light to be cut again, and that remainder becomes the last
// range unwalked — the whole frontier, when total is below target. The
// ranges are SliceActive's. A negative total means unknown.
func (j *Job) SliceWeighted(pid int, target, total int64, buf []Range) []Range {
	p := j.PG.Parts[pid]
	n := p.NumVertices()
	if target < 1 {
		target = 1
	}
	start := -1
	var w int64
	j.PT.Active[pid].Range(func(li int) bool {
		if start < 0 {
			if total >= 0 && total < target {
				start, w = li, total
				return false
			}
			start = li
		}
		w += 1 + p.EdgeWork(uint32(li), j.Dir)
		if w >= target {
			buf = append(buf, Range{Lo: start, Hi: li + 1, Weight: w})
			total -= w
			start, w = -1, 0
		}
		return true
	})
	if start >= 0 {
		buf = append(buf, Range{Lo: start, Hi: n, Weight: w})
	}
	return buf
}

// ActiveWeight returns the total weight of partition pid's active frontier:
// the sum of the Range weights SliceActive cuts it into, whatever the target.
// It is read from a per-partition cache that NewJob and every advance
// refresh, so a caller planning a round does not walk the frontier.
func (j *Job) ActiveWeight(pid int) int64 { return j.weight[pid] }

// reweigh recomputes the ActiveWeight cache. A full frontier — the steady
// state of the dense programs — is read off the partition's edge counts, an
// empty one is zero, and only a partial one walks its bitset.
func (j *Job) reweigh() {
	for pid, p := range j.PG.Parts {
		n, c := p.NumVertices(), j.PT.ActiveCount[pid]
		if c == 0 || c == n {
			w := int64(c)
			if c > 0 && j.Dir != model.In {
				w += int64(len(p.OutDst))
			}
			if c > 0 && j.Dir != model.Out {
				w += int64(len(p.InDst))
			}
			j.weight[pid] = w
			continue
		}
		var w int64
		act := j.PT.Active[pid]
		for li := act.NextSet(0); li >= 0; li = act.NextSet(li + 1) {
			w += 1 + p.EdgeWork(uint32(li), j.Dir)
		}
		j.weight[pid] = w
	}
}

// ApplyRange applies the active vertices of partition pid inside r's
// window, buffering scattered contributions into sc. It walks the active
// bitset directly (no materialized locals slice) and touches only those
// vertices' own states plus sc, so disjoint ranges may run on different
// workers concurrently — the range half of the straggler split of Fig. 6;
// Merge is the other half.
func (j *Job) ApplyRange(pid int, r Range, sc *Scratch) Stats {
	v := j.view(pid)
	act := j.PT.Active[pid]
	// r.Weight counts 1 + EdgeWork per active vertex, an upper bound on the
	// contributions buffered below, so neither array reallocates mid-loop.
	sc.dst = slices.Grow(sc.dst, int(r.Weight))
	sc.contrib = slices.Grow(sc.contrib, int(r.Weight))
	var st Stats
	for li := act.NextSet(r.Lo); li >= 0 && li < r.Hi; li = act.NextSet(li + 1) {
		st.Vertices++
		if seed, scatter := v.apply(uint32(li)); scatter {
			st.Edges += j.buffer(sc, &v, uint32(li), seed)
		}
	}
	return st
}

// Merge folds buffered contributions into partition pid's states, marking
// receivers. Contributions rejected by an optional model.Filterer are
// dropped before the fold. Must be called from one goroutine per
// (job, partition).
func (j *Job) Merge(pid int, scratches ...*Scratch) {
	states := j.PT.States[pid]
	recv := j.PT.Received[pid]
	var sum float64
	for _, sc := range scratches {
		sum = j.foldBuffered(states, recv, sc.dst, sc.contrib, sum)
	}
	j.DeltaSum[pid] += sum
}

// Sweep is one whole (job, partition) BSP step as a single task: it applies
// every active vertex of partition pid, keeping in sc one (local, seed) pair
// per vertex that scatters, then walks those pairs and folds each edge's
// contribution straight into the receiver's Delta — no per-edge buffer, no
// Merge. Every vertex is applied before the first fold, and the folds run in
// the order ApplyRange would have buffered them, so the partition's States,
// Received and DeltaSum end bit-identical to any ApplyRange slicing followed
// by Merge. It writes the whole partition's private state: one goroutine per
// (job, partition), as for Merge.
func (j *Job) Sweep(pid int, sc *Scratch) Stats {
	st, _ := j.SweepRanges(pid, sc, 0, nil)
	return st
}

// SweepRanges is Sweep that also reports, when cut > 0, the Stats of each
// range SliceWeighted(pid, cut, ActiveWeight(pid)) would have cut the
// frontier into, appended to ranges: what ApplyRange returns over each of
// them. A range closes once 1 + EdgeWork per active vertex adds up to cut,
// and what is left is the last range. So a caller can price the straggler
// split of Fig. 6 while running the sweep whole.
func (j *Job) SweepRanges(pid int, sc *Scratch, cut int64, ranges []Stats) (Stats, []Stats) {
	v := j.view(pid)
	act := j.PT.Active[pid]
	sc.Reset()
	sc.Grow(j.PT.ActiveCount[pid])
	var st, r Stats
	var w int64
	for li := act.NextSet(0); li >= 0; li = act.NextSet(li + 1) {
		st.Vertices++
		seed, scatter := v.apply(uint32(li))
		if !scatter && cut <= 0 {
			continue
		}
		ew := v.p.EdgeWork(uint32(li), v.dir)
		if scatter {
			sc.dst = append(sc.dst, uint32(li))
			sc.contrib = append(sc.contrib, seed)
			st.Edges += ew
		}
		if cut <= 0 {
			continue
		}
		r.Vertices++
		if scatter {
			r.Edges += ew
		}
		if w += 1 + ew; w >= cut {
			ranges = append(ranges, r)
			r, w = Stats{}, 0
		}
	}
	if r.Vertices > 0 {
		ranges = append(ranges, r)
	}
	j.DeltaSum[pid] += j.scatter(&v, j.PT.Received[pid], sc.dst, sc.contrib)
	return st, ranges
}

// ProcessPartition runs the whole-partition BSP step serially and books its
// work on the job. All engines except CLIP use these synchronous semantics,
// so iteration counts are comparable across systems.
func (j *Job) ProcessPartition(pid int, sc *Scratch) Stats {
	st := j.Sweep(pid, sc)
	j.EdgesProcessed += st.Edges
	j.VerticesApplied += st.Vertices
	return st
}

// PushSummary reports the cost-relevant effects of one Push for the
// simulated accounting.
type PushSummary struct {
	// Entries is the number of Snew sync entries handled.
	Entries int64
	// TouchedParts lists the distinct partitions whose private slices were
	// read or written, in ascending order. It aliases a buffer owned by the
	// job and is valid only until the job's next Push.
	TouchedParts []int
}

// Push is Algorithm 2. Every mirror replica that received a non-identity Δ
// is one Snew entry: its Δ is folded straight into the master's slot and the
// mirror is reset. Receivers are visited in ascending (partition, local)
// order and a master lives in the lowest partition holding its vertex, so a
// master's folds arrive in ascending source-partition order after its own
// direct receipts — a fixed order, which keeps float accumulation
// deterministic. Then, walking the masters that received anything in
// ascending (partition, local) order — where the paper's pseudocode copies
// the master's new state to its mirrors — the aggregated Δ is stored into
// every replica of each still-active vertex and those replicas are marked
// active for the next iteration: every replica applies the same Δ to the
// same value itself, so replicas stay value-identical
// (CheckReplicaConsistency) without a second state write-back. Residual
// sub-threshold deltas stay accumulated at the master so no contribution
// mass is ever lost. A steady-state call allocates nothing.
func (j *Job) Push() PushSummary {
	ident := j.Prog.Identity()
	pg := j.PG
	if j.hit == nil {
		j.hit = make([]*bitset.Set, len(pg.Parts))
		for pid, p := range pg.Parts {
			j.hit[pid] = bitset.New(p.NumVertices())
		}
		j.touched = make([]bool, len(pg.Parts))
	}
	hit, touched := j.hit, j.touched

	// Gather and fold.
	var entries int64
	for pid, p := range pg.Parts {
		states := j.PT.States[pid]
		masters := pg.Masters[pid]
		recv := j.PT.Received[pid]
		for li := recv.NextSet(0); li >= 0; li = recv.NextSet(li + 1) {
			d := states[li].Delta
			if d == ident {
				continue
			}
			touched[pid] = true
			if masters[li] {
				hit[pid].Set(li)
				continue
			}
			m := pg.MasterOf[p.Globals[li]]
			st := &j.PT.States[m.Part][m.Local]
			st.Delta = j.Prog.Acc(st.Delta, d)
			states[li].Delta = ident
			hit[m.Part].Set(int(m.Local))
			touched[m.Part] = true
			entries++
		}
	}

	// Decide activation and broadcast the aggregated Δ to the replicas of
	// still-active vertices. A partition with a hit master is already
	// flagged touched; the broadcast only adds partitions without one.
	for pid, p := range pg.Parts {
		if !touched[pid] {
			continue
		}
		states := j.PT.States[pid]
		h := hit[pid]
		for li := h.NextSet(0); li >= 0; li = h.NextSet(li + 1) {
			st := states[li]
			if st.Delta == ident || !j.Prog.IsActive(st) {
				continue // residual stays at the master
			}
			for _, loc := range pg.ReplicaLocations(p.Globals[li]) {
				j.PT.States[loc.Part][loc.Local].Delta = st.Delta
				j.PT.Next[loc.Part].Set(int(loc.Local))
				touched[loc.Part] = true
			}
		}
		h.Reset()
	}

	j.touchedParts = j.touchedParts[:0]
	for pid, t := range touched {
		if t {
			j.touchedParts = append(j.touchedParts, pid)
			touched[pid] = false
		}
	}
	j.SyncEntries += entries
	return PushSummary{Entries: entries, TouchedParts: j.touchedParts}
}

// FinishIteration closes one iteration: it runs Push, advances the activity
// sets, and — when the job ran dry — steps phased programs forward or marks
// the job done.
func (j *Job) FinishIteration() PushSummary {
	sum := j.Push()
	j.advance()
	return sum
}

// advance moves the job past a pushed iteration.
func (j *Job) advance() {
	j.PT.Advance()
	j.Iterations++
	if !j.PT.HasActive() {
		j.advancePhaseOrFinish()
	}
	j.reweigh()
}

func (j *Job) advancePhaseOrFinish() {
	for {
		if j.PT.HasActive() {
			return
		}
		ph, ok := j.Prog.(model.Phased)
		if !ok || !ph.NextPhase(stateView{j}) {
			j.Done = true
			return
		}
		j.Phases++
		j.Dir = j.Prog.Direction()
		j.recountActive()
	}
}

func (j *Job) recountActive() {
	for pid := range j.PT.Active {
		j.PT.ActiveCount[pid] = j.PT.Active[pid].Count()
	}
}

// DrainDeltaStats hands every non-zero per-partition |Δ| sum — the C(P)
// input sampled by the scheduler each round — to fn and resets it.
func (j *Job) DrainDeltaStats(fn func(pid int, sum float64)) {
	for pid, s := range j.DeltaSum {
		if s != 0 {
			fn(pid, s)
			j.DeltaSum[pid] = 0
		}
	}
}

// Results materializes the job's per-vertex values.
func (j *Job) Results() []float64 { return j.PT.Results(j.Prog) }

// stateView adapts a Job for model.Phased.NextPhase.
type stateView struct{ j *Job }

func (v stateView) NumVertices() int { return v.j.PG.G.N }

func (v stateView) Get(id model.VertexID) model.State {
	m := v.j.PG.MasterOf[id]
	if m.Part < 0 {
		s, _ := v.j.Prog.Init(id, v.j.PG.G)
		return s
	}
	return v.j.PT.States[m.Part][m.Local]
}

func (v stateView) Set(id model.VertexID, s model.State, active bool) {
	for _, loc := range v.j.PG.ReplicaLocations(id) {
		v.j.PT.States[loc.Part][loc.Local] = s
		if active {
			v.j.PT.Active[loc.Part].Set(int(loc.Local))
		} else {
			v.j.PT.Active[loc.Part].Clear(int(loc.Local))
		}
	}
}

// CheckReplicaConsistency verifies the Push invariant — after a push every
// replica of every vertex holds the same value; used by tests.
func (j *Job) CheckReplicaConsistency() error {
	for v := 0; v < j.PG.G.N; v++ {
		locs := j.PG.ReplicaLocations(model.VertexID(v))
		if len(locs) < 2 {
			continue
		}
		first := j.PT.States[locs[0].Part][locs[0].Local].Value
		for _, loc := range locs[1:] {
			got := j.PT.States[loc.Part][loc.Local].Value
			if got != first && !(math.IsNaN(got) && math.IsNaN(first)) {
				return fmt.Errorf("vertex %d: replica value %v != master value %v", v, got, first)
			}
		}
	}
	return nil
}

// RunToConvergence drives the job with synchronous whole-graph rounds until
// completion — the minimal correct engine, used by tests and as the
// inner loop of the sequential baseline. It fails if the job does not
// converge within maxRounds iterations.
func RunToConvergence(j *Job, maxRounds int) error {
	sc := &Scratch{}
	for r := 0; r < maxRounds; r++ {
		if j.Done {
			return nil
		}
		for pid := range j.PG.Parts {
			if j.PT.ActiveCount[pid] > 0 {
				j.ProcessPartition(pid, sc)
			}
		}
		j.FinishIteration()
	}
	if j.Done {
		return nil
	}
	return fmt.Errorf("exec: job %s did not converge in %d rounds", j.Prog.Name(), maxRounds)
}

// ProcessPartitionReentrant is CLIP's reentry discipline ("squeezing out
// all the value of loaded data"): while the partition stays loaded, locally
// re-activated vertices are re-processed immediately, up to maxPasses
// sweeps. Soundness on the vertex-cut substrate requires two restrictions:
// eager re-processing applies only to single-replica vertices (a replicated
// vertex applied mid-iteration would strand the update on one replica), and
// contributions to replicated vertices are buffered and folded only after
// the local passes finish, exactly as in the BSP path, so every replica of
// a vertex consumes identical deltas.
func (j *Job) ProcessPartitionReentrant(pid, maxPasses int) Stats {
	p := j.PG.Parts[pid]
	states := j.PT.States[pid]
	recv := j.PT.Received[pid]
	filter, filtered := j.Prog.(model.Filterer)
	var st Stats

	work := bitset.New(p.NumVertices())
	work.CopyFrom(j.PT.Active[pid])
	next := bitset.New(p.NumVertices())
	var deferred Scratch

	scatterTo := func(dst uint32, c float64) {
		if j.PG.IsReplicated(p.Globals[dst]) {
			// Replicated receivers are reconciled by the push; fold
			// after the eager passes to keep replicas consistent.
			deferred.dst = append(deferred.dst, dst)
			deferred.contrib = append(deferred.contrib, c)
			return
		}
		if filtered && !filter.Accept(states[dst], c) {
			return
		}
		states[dst].Delta = j.Prog.Acc(states[dst].Delta, c)
		recv.Set(int(dst))
		j.DeltaSum[pid] += math.Abs(c)
		if j.Prog.IsActive(states[dst]) {
			next.Set(int(dst))
		}
	}

	for pass := 0; pass < maxPasses && work.Any(); pass++ {
		work.Range(func(li int) bool {
			s := &states[li]
			v := p.Globals[li]
			deg := j.PG.G.Degree(v, j.Dir)
			seed, scatter := j.Prog.Apply(v, s, deg)
			st.Vertices++
			if pass > 0 {
				// A re-processed single-replica vertex consumed its
				// pending delta locally; nothing remains to push.
				recv.Clear(li)
			}
			if !scatter {
				return true
			}
			if j.Dir == model.Out || j.Dir == model.Both {
				for ei := p.OutOff[li]; ei < p.OutOff[li+1]; ei++ {
					scatterTo(p.OutDst[ei], j.Prog.Contribution(seed, p.OutW[ei]))
					st.Edges++
				}
			}
			if j.Dir == model.In || j.Dir == model.Both {
				for ei := p.InOff[li]; ei < p.InOff[li+1]; ei++ {
					scatterTo(p.InDst[ei], j.Prog.Contribution(seed, p.InW[ei]))
					st.Edges++
				}
			}
			return true
		})
		work.Swap(next)
		next.Reset()
	}
	j.Merge(pid, &deferred)
	j.EdgesProcessed += st.Edges
	j.VerticesApplied += st.Vertices
	return st
}
