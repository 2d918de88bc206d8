// Package sched orders a round's partition loads for concurrent jobs over
// an evolving graph, by the Eq. 1 priority of §3.3.
//
// Every job of the round is planned together: units load in descending
// Pri(U) = N(U) + θ·D(U)·C(U), where N(U) is the number of jobs needing the
// unit, D(U) the partition version's average vertex degree, and C(U) the
// average vertex-state change observed for that version in the previous
// round. θ is kept strictly below 1/(Dmax·Cmax) so that N always
// dominates, and — unlike the original fit-once preprocessing — is refitted
// whenever a new snapshot raises Dmax or the windowed (decayed) D/C maxima
// drift out of the hysteresis band in either direction, so the fit tracks
// shrinking workloads as well as upward drift.
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
	// highest active fraction across the unit's jobs, so θ reflects the
	// work actually remaining rather than the partition's full size. Nil
	// means "assume fully active" (backward compatible).
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

// driftFactor is the C-maxima growth that triggers a θ refit: large enough
// that well-behaved workloads refit rarely, small enough that the fit
// tracks genuine regime changes. dominanceBudget caps the θ·D·C tie-break
// term of every unit, so N(U) dominates Eq. 1 unconditionally — even
// between refits, and even when a diverging job's state changes grow
// without bound faster than any refit cadence could chase. Because the
// clamp, not the refit cadence, carries the correctness guarantee, drift
// refits are rate-limited to one per refitMinInterval plans (snapshot
// arrivals refit immediately), and C observations beyond cmaxCeiling —
// reachable only by diverging jobs — are ignored so θ never underflows
// to zero.
const (
	driftFactor      = 1.5
	dominanceBudget  = 0.5
	refitMinInterval = 32
	cmaxCeiling      = 1e150
	// windowDecay ages the running D/C maxima a little every plan
	// (half-life ≈ 23 plans), so the estimates — and through them θ —
	// also track *shrinking* workloads: when dense snapshots or hot jobs
	// retire, the window drifts down and a rate-limited refit raises θ
	// back toward the live regime instead of staying pinned to an
	// all-time peak. The dominance clamp keeps Eq. 1 correct either way.
	windowDecay = 0.97
)

// Scheduler orders partition loads for a round. It is driven by a single
// goroutine (the engine's round loop); snapshot observations from other
// goroutines must be funneled through that loop.
type Scheduler struct {
	kind Kind

	// dmaxWin / cmaxWin are windowed (decayed running) maxima of the
	// average degrees and state-change sums: each Plan ages them by
	// windowDecay, then folds in the round's observations, so they rise
	// instantly with the workload and drift back down as it shrinks.
	// dmaxFit / cmaxFit are the values θ was last fitted against.
	dmaxWin float64
	cmaxWin float64
	dmaxFit float64
	cmaxFit float64
	theta   float64
	// fitted distinguishes "never fitted" from small-θ regimes; plans and
	// lastFitPlan rate-limit drift refits.
	fitted      bool
	refits      int
	plans       int
	lastFitPlan int

	// Plan's buffers, reused by every call so that a warmed-up Plan
	// allocates nothing: byUID indexes this round's units, in the slab
	// units, by partition-version UID, and plan is the returned Group.
	byUID map[int64]int
	units []unit
	plan  [1]Group
}

// New builds a scheduler; feed it snapshots via ObserveSnapshot.
func New(kind Kind) *Scheduler { return &Scheduler{kind: kind, byUID: make(map[int64]int)} }

// Kind returns the policy.
func (s *Scheduler) Kind() Kind { return s.kind }

// Theta exposes the fitted θ (0 until the first non-zero C observation).
func (s *Scheduler) Theta() float64 { return s.theta }

// Refits counts how many times θ was (re)fitted.
func (s *Scheduler) Refits() int { return s.refits }

// ObserveSnapshot folds a snapshot's partition degrees into the windowed
// Dmax and refits θ immediately when the new version raised it beyond the
// fitted value. Merely topping up the decayed window (a steady stream of
// same-density snapshots) does not refit — downward tracking is Plan's
// rate-limited job — so snapshot ingestion cadence cannot churn θ.
func (s *Scheduler) ObserveSnapshot(pg *graph.PGraph) {
	for _, p := range pg.Parts {
		if p.AvgDegree > s.dmaxWin {
			s.dmaxWin = p.AvgDegree
		}
	}
	if !s.fitted || s.dmaxWin > s.dmaxFit {
		s.refit()
	}
}

// refit pins θ strictly below 1/(Dmax·Cmax) from the windowed maxima.
func (s *Scheduler) refit() {
	if s.dmaxWin > 0 && s.cmaxWin > 0 {
		s.theta = dominanceBudget / (s.dmaxWin * s.cmaxWin)
		s.dmaxFit = s.dmaxWin
		s.cmaxFit = s.cmaxWin
		s.fitted = true
		s.refits++
		s.lastFitPlan = s.plans
	}
}

// unit aggregates the jobs needing one partition version this round.
type unit struct {
	part *graph.Partition
	jobs []int
	// frac is the highest active-vertex fraction any job has in this
	// unit, scaling the D·C term of Eq. 1 down as frontiers shrink.
	frac float64
	// pri is the unit's Eq. 1 priority, set by orderUnits.
	pri float64
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
	s.plans++
	// Age the window, then fold in this round's observations: the C sums
	// of the previous round and the degrees of the footprints actually
	// being scheduled (snapshot arrivals feed ObserveSnapshot directly).
	s.cmaxWin *= windowDecay
	s.dmaxWin *= windowDecay
	for _, v := range c {
		if v > s.cmaxWin && v < cmaxCeiling && !math.IsNaN(v) {
			s.cmaxWin = v
		}
	}
	for _, jf := range jobs {
		for _, p := range jf.Units {
			if p.AvgDegree > s.dmaxWin {
				s.dmaxWin = p.AvgDegree
			}
		}
	}
	// First fit as soon as both maxima exist; afterwards whenever the
	// windowed maxima drift out of the hysteresis band in either
	// direction, at most once per refitMinInterval plans.
	drifted := s.cmaxWin > s.cmaxFit*driftFactor || s.dmaxWin > s.dmaxFit*driftFactor ||
		s.cmaxWin < s.cmaxFit/driftFactor || s.dmaxWin < s.dmaxFit/driftFactor
	switch {
	case !s.fitted && s.cmaxWin > 0:
		s.refit()
	case s.fitted && drifted && s.plans-s.lastFitPlan >= refitMinInterval:
		s.refit()
	}
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
// Static, Eq. 1 priority descending otherwise, with (ID, UID) ascending as
// the deterministic tie-break.
func (s *Scheduler) orderUnits(us []unit, c map[int64]float64) {
	if s.kind == Static {
		slices.SortFunc(us, byIndex)
		return
	}
	for i := range us {
		u := &us[i]
		// The clamp (which also catches NaN/Inf products) caps the
		// tie-break strictly below any N difference, so the Eq. 1
		// dominance guarantee holds even against drift θ has not yet
		// chased. The frontier fraction scales D·C down to the work
		// actually remaining in the unit.
		term := s.theta * u.part.AvgDegree * u.frac * c[u.part.UID]
		if !(term < dominanceBudget) {
			term = dominanceBudget
		}
		u.pri = float64(len(u.jobs)) + term
	}
	slices.SortFunc(us, func(a, b unit) int {
		if a.pri != b.pri {
			return cmp.Compare(b.pri, a.pri)
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
