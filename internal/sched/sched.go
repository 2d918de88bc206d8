// Package sched orders a round's partition loads for concurrent jobs over
// an evolving graph, by the Eq. 1 priority of §3.3.
//
// Every job of the round is planned together: units load in descending
// Pri(U) = N(U) + θ·D(U)·C(U), where N(U) is the number of jobs needing the
// unit, D(U) the partition version's average vertex degree, and C(U) the
// average vertex-state change observed for that version in the previous
// round. The paper keeps θ below 1/(Dmax·Cmax) so that N always dominates,
// and for every such θ the order is the same: most jobs first, then the
// highest D·C. So Eq. 1 is applied as that comparator, and no θ is kept.
//
// An earlier version fitted θ at run time, from decayed D/C maxima with a
// hysteresis band, rate-limited refits and a clamp on the θ·D·C term. The
// fit moved results only for the worse: in the 444 rounds that
// TestVirtualTimeGolden plans, the lagging θ pushed units onto the clamp
// in 144, where they tied and fell back to index order. The comparator
// loads in a different order in 96 of the 444; every work count held, and
// no virtual makespan rose.
//
// A scheduling unit is one snapshot version of a partition (the same
// *graph.Partition, identified by its UID, possibly shared by several
// snapshots per Fig. 5), not a base partition index: snapshots with
// arbitrary partition counts schedule correctly side by side, and jobs on
// different snapshots share every version an overlay left alone.
//
// Grouping jobs by disjoint footprints first, in the manner of two-level
// scheduling (Zhao et al., arXiv:1806.00777), was measured against this
// single order and did not pay: on two disconnected components carrying
// eight traversals it moved the virtual makespan by under 0.1 %.
//
// A Scheduler owns its plan buffers: the UID index, the unit slab (sorted in
// place into the load order) and the returned Group are kept and reused by
// every Plan call, so a warmed-up Plan allocates nothing. The plan Plan returns, and every slice in
// it, is therefore valid only until the next Plan call; a caller that keeps
// any of it longer copies it. Between calls the scheduler still holds the
// last plan's partitions, and no others.
package sched

import (
	"cmp"
	"math"
	"slices"

	"cgraph/internal/graph"
)

// Kind selects the scheduling policy.
type Kind int

const (
	// Priority applies Eq. 1 over the union of every job's footprint: the
	// production policy, and the zero Kind.
	Priority Kind = iota
	// Static loads units in partition-index order: the CGraph-without
	// ablation of Fig. 8, which only the experiment harness asks for.
	Static
)

// TwoLevel is the production policy under the name of the two-level
// grouping it replaced.
//
// Deprecated: use Priority; TwoLevel selects nothing of its own.
const TwoLevel = Priority

func (k Kind) String() string {
	if k == Static {
		return "static"
	}
	return "priority"
}

// JobFootprint is one job's round footprint: the snapshot partition versions
// its active vertices live in.
type JobFootprint struct {
	JobID int
	Units []*graph.Partition
	// Active, when set, is parallel to Units: the job's active-vertex
	// count in each unit. The D(U)·C(U) term of Eq. 1 is scaled by the
	// highest active fraction across the unit's jobs, so it reflects the
	// work actually remaining rather than the partition's full size. Nil
	// means "assume fully active".
	Active []int
}

// UnitPlan is one entry of a round's load order: a snapshot partition
// version plus the jobs to trigger on it.
type UnitPlan struct {
	Part *graph.Partition
	Jobs []int
}

// Group is a round's plan: its jobs and their ordered unit loads.
type Group struct {
	Jobs  []int
	Units []UnitPlan
}

// Scheduler orders partition loads for a round. It is driven by a single
// goroutine (the engine's round loop).
type Scheduler struct {
	kind Kind

	// Plan's buffers, reused by every call so that a warmed-up Plan
	// allocates nothing: byUID indexes this round's units, in the slab
	// units, by partition-version UID, and plan is the returned Group.
	byUID map[int64]int
	units []unit
	plan  [1]Group
}

// New builds a scheduler.
func New(kind Kind) *Scheduler { return &Scheduler{kind: kind, byUID: make(map[int64]int)} }

// Kind returns the policy.
func (s *Scheduler) Kind() Kind { return s.kind }

// ObserveSnapshot does nothing: the Eq. 1 order is fitted to no snapshot.
//
// Deprecated: the scheduler keeps no per-snapshot state; drop the call.
func (s *Scheduler) ObserveSnapshot(*graph.PGraph) {}

// unit aggregates the jobs needing one partition version this round.
type unit struct {
	part *graph.Partition
	jobs []int
	// frac is the highest active-vertex fraction any job has in this
	// unit, scaling the D·C term of Eq. 1 down as frontiers shrink.
	frac float64
	// dc is the unit's D(U)·frac·C(U), set by orderUnits.
	dc float64
}

// Plan orders this round's loads. jobs lists each job's footprint; c maps a
// partition version's UID to the C(U) observed in the previous round.
// Neither input is mutated. The plan is one Group holding every job (none
// when jobs is empty), its units in the policy's order; it is
// deterministic, since (ID, UID) breaks every tie.
//
// The returned plan and every slice in it belong to the scheduler: they are
// valid until the next Plan call, which reuses them.
func (s *Scheduler) Plan(jobs []JobFootprint, c map[int64]float64) []Group {
	if len(jobs) == 0 {
		return nil
	}

	// Collect units in first-seen order (deterministic: engine iterates
	// jobs in submission order) into the slab, whose entries keep their
	// jobs capacity from round to round. Sorting moves the entries, and
	// their capacity with them.
	clear(s.byUID)
	n := 0
	for _, jf := range jobs {
		for ui, p := range jf.Units {
			i, ok := s.byUID[p.UID]
			if !ok {
				i, n = n, n+1
				if i == len(s.units) {
					s.units = append(s.units, unit{})
				}
				s.units[i] = unit{part: p, jobs: s.units[i].jobs[:0]}
				s.byUID[p.UID] = i
			}
			u := &s.units[i]
			u.jobs = append(u.jobs, jf.JobID)
			f := 1.0
			if ui < len(jf.Active) && p.NumVertices() > 0 {
				f = float64(jf.Active[ui]) / float64(p.NumVertices())
			}
			if f > u.frac {
				u.frac = f
			}
		}
	}
	// Entries past this round's units keep no partition reachable.
	for i := n; i < len(s.units); i++ {
		s.units[i].part = nil
	}
	units := s.units[:n]
	s.orderUnits(units, c)

	g := &s.plan[0]
	g.Jobs = g.Jobs[:0]
	for _, jf := range jobs {
		g.Jobs = append(g.Jobs, jf.JobID)
	}
	slices.Sort(g.Jobs)
	g.Units = g.Units[:0]
	for _, u := range units {
		g.Units = append(g.Units, UnitPlan{Part: u.part, Jobs: u.jobs})
	}
	clear(g.Units[len(g.Units):cap(g.Units)])
	return s.plan[:]
}

// orderUnits sorts the round's units in place: partition-index order for
// Static, Eq. 1 order otherwise. Eq. 1 with any admissible θ is a
// comparator: N(U) descending, then D(U)·C(U) descending, where the
// frontier fraction scales D·C down to the work actually remaining in the
// unit and a NaN product ranks as +Inf; (ID, UID) ascending breaks the
// remaining ties.
func (s *Scheduler) orderUnits(us []unit, c map[int64]float64) {
	if s.kind == Static {
		slices.SortFunc(us, byIndex)
		return
	}
	for i := range us {
		u := &us[i]
		u.dc = u.part.AvgDegree * u.frac * c[u.part.UID]
		if math.IsNaN(u.dc) {
			u.dc = math.Inf(1)
		}
	}
	slices.SortFunc(us, func(a, b unit) int {
		if len(a.jobs) != len(b.jobs) {
			return cmp.Compare(len(b.jobs), len(a.jobs))
		}
		if a.dc != b.dc {
			return cmp.Compare(b.dc, a.dc)
		}
		return byIndex(a, b)
	})
}

// byIndex orders units by partition index, then by version UID.
func byIndex(a, b unit) int {
	if a.part.ID != b.part.ID {
		return cmp.Compare(a.part.ID, b.part.ID)
	}
	return cmp.Compare(a.part.UID, b.part.UID)
}
