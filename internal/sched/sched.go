// Package sched implements snapshot-aware two-level scheduling for
// concurrent jobs over an evolving graph.
//
// Level 1 groups the round's jobs by correlation: jobs whose active
// footprints share a snapshot partition version (the same *graph.Partition,
// identified by its UID, possibly shared by several snapshots per Fig. 5)
// are scheduled together so their loads amortize, in the spirit of the
// two-level scheduling of Zhao et al. (arXiv:1806.00777). Level 2 keeps the
// Eq. 1 priority order of §3.3 within each group: units load in descending
// Pri(U) = N(U) + θ·D(U)·C(U), where N(U) is the number of group jobs
// needing the unit, D(U) the partition version's average vertex degree, and
// C(U) the average vertex-state change observed for that version in the
// previous round. θ is kept strictly below 1/(Dmax·Cmax) so that N always
// dominates, and — unlike the original fit-once preprocessing — is refitted
// whenever a new snapshot raises Dmax or the windowed (decayed) D/C maxima
// drift out of the hysteresis band in either direction, so the fit tracks
// shrinking workloads as well as upward drift.
//
// A scheduling unit is one snapshot version of a partition, not a base
// partition index: snapshots with arbitrary partition counts schedule
// correctly side by side.
package sched

import (
	"fmt"
	"math"
	"sort"

	"cgraph/internal/graph"
)

// Kind selects the scheduling policy.
type Kind int

const (
	// Static loads units in partition-index order (the CGraph-without
	// ablation of Fig. 8), all jobs in one group.
	Static Kind = iota
	// Priority applies Eq. 1 over the union of every job's footprint
	// (one-level scheduling), all jobs in one group.
	Priority
	// TwoLevel first groups jobs by correlated footprints, then applies
	// Eq. 1 within each group with group-local N(U).
	TwoLevel
)

func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case TwoLevel:
		return "two-level"
	default:
		return "priority"
	}
}

// ParseKind resolves a policy name ("static", "priority", "two-level").
func ParseKind(s string) (Kind, error) {
	switch s {
	case "static":
		return Static, nil
	case "priority":
		return Priority, nil
	case "two-level", "twolevel", "two_level":
		return TwoLevel, nil
	}
	return Static, fmt.Errorf("sched: unknown policy %q (want static, priority, or two-level)", s)
}

// JobFootprint is one job's round footprint: the snapshot partition versions
// its active vertices live in.
type JobFootprint struct {
	JobID int
	// Priority is the job's submission priority; groups are ordered by
	// aggregate priority, so a group carrying urgent jobs runs its loads
	// first regardless of how many jobs it amortizes over.
	Priority int
	Units    []*graph.Partition
	// Active, when set, is parallel to Units: the job's active-vertex
	// count in each unit. The D(U)·C(U) term of Eq. 1 is scaled by the
	// highest active fraction across the unit's jobs, so θ reflects the
	// work actually remaining rather than the partition's full size. Nil
	// means "assume fully active" (backward compatible).
	Active []int
}

// UnitPlan is one entry of a group's load order: a snapshot partition
// version plus the jobs to trigger on it.
type UnitPlan struct {
	Part *graph.Partition
	Jobs []int
}

// Group is one correlation group: its jobs and their ordered unit loads.
type Group struct {
	Jobs []int
	// Priority is the group's aggregate (summed) job priority, the primary
	// ordering key between groups.
	Priority int
	Units    []UnitPlan
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
}

// New builds a scheduler; feed it snapshots via ObserveSnapshot.
func New(kind Kind) *Scheduler { return &Scheduler{kind: kind} }

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
}

// Plan orders this round's loads. jobs lists each job's footprint; c maps a
// partition version's UID to the C(U) observed in the previous round.
// Neither input is mutated. The plan is deterministic for a given job order:
// groups descend by job count (ties: lowest job ID first), units within a
// group follow the policy's order, and every unit appears in exactly one
// group.
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

	// Collect units in first-seen order (deterministic: engine iterates
	// jobs in submission order).
	byUID := make(map[int64]*unit)
	var units []*unit
	for _, jf := range jobs {
		for ui, p := range jf.Units {
			u := byUID[p.UID]
			if u == nil {
				u = &unit{part: p}
				byUID[p.UID] = u
				units = append(units, u)
			}
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

	// Level 1: correlate jobs. Sharing a unit is the correlation edge;
	// connected components become groups. One-level policies use a single
	// component.
	parent := make(map[int]int, len(jobs))
	for _, jf := range jobs {
		parent[jf.JobID] = jf.JobID
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	if s.kind == TwoLevel {
		for _, u := range units {
			for _, j := range u.jobs[1:] {
				union(u.jobs[0], j)
			}
		}
	} else if len(jobs) > 1 {
		for _, jf := range jobs[1:] {
			union(jobs[0].JobID, jf.JobID)
		}
	}

	type groupAcc struct {
		jobs  []int
		pri   int
		units []*unit
	}
	byRoot := make(map[int]*groupAcc)
	var roots []int
	for _, jf := range jobs {
		r := find(jf.JobID)
		g := byRoot[r]
		if g == nil {
			g = &groupAcc{}
			byRoot[r] = g
			roots = append(roots, r)
		}
		g.jobs = append(g.jobs, jf.JobID)
		g.pri += jf.Priority
	}
	for _, u := range units {
		g := byRoot[find(u.jobs[0])]
		g.units = append(g.units, u)
	}

	// Level 2: order units within each group.
	for _, r := range roots {
		s.orderUnits(byRoot[r].units, c)
	}

	// Highest aggregate job priority first, so urgent groups' loads land
	// before bulk ones; within a priority, the largest (most amortization)
	// group first; ties toward the oldest job.
	sort.SliceStable(roots, func(a, b int) bool {
		ga, gb := byRoot[roots[a]], byRoot[roots[b]]
		if ga.pri != gb.pri {
			return ga.pri > gb.pri
		}
		if len(ga.jobs) != len(gb.jobs) {
			return len(ga.jobs) > len(gb.jobs)
		}
		return ga.jobs[0] < gb.jobs[0]
	})

	out := make([]Group, 0, len(roots))
	for _, r := range roots {
		g := byRoot[r]
		grp := Group{Jobs: append([]int(nil), g.jobs...), Priority: g.pri}
		sort.Ints(grp.Jobs)
		for _, u := range g.units {
			grp.Units = append(grp.Units, UnitPlan{
				Part: u.part,
				Jobs: append([]int(nil), u.jobs...),
			})
		}
		out = append(out, grp)
	}
	return out
}

// orderUnits sorts one group's units in place: partition-index order for
// Static, Eq. 1 priority descending otherwise, with (ID, UID) ascending as
// the deterministic tie-break.
func (s *Scheduler) orderUnits(us []*unit, c map[int64]float64) {
	if s.kind == Static {
		sort.Slice(us, func(a, b int) bool {
			if us[a].part.ID != us[b].part.ID {
				return us[a].part.ID < us[b].part.ID
			}
			return us[a].part.UID < us[b].part.UID
		})
		return
	}
	pri := make(map[int64]float64, len(us))
	for _, u := range us {
		// The clamp (which also catches NaN/Inf products) caps the
		// tie-break strictly below any N difference, so the Eq. 1
		// dominance guarantee holds even against drift θ has not yet
		// chased. The frontier fraction scales D·C down to the work
		// actually remaining in the unit.
		term := s.theta * u.part.AvgDegree * u.frac * c[u.part.UID]
		if !(term < dominanceBudget) {
			term = dominanceBudget
		}
		pri[u.part.UID] = float64(len(u.jobs)) + term
	}
	sort.Slice(us, func(a, b int) bool {
		pa, pb := pri[us[a].part.UID], pri[us[b].part.UID]
		if pa != pb {
			return pa > pb
		}
		if us[a].part.ID != us[b].part.ID {
			return us[a].part.ID < us[b].part.ID
		}
		return us[a].part.UID < us[b].part.UID
	})
}
