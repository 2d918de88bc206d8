package sched

import (
	"math"
	"slices"
	"testing"

	"cgraph/internal/gen"
	"cgraph/internal/graph"
)

func buildPG(t testing.TB, parts int) *graph.PGraph {
	t.Helper()
	edges := gen.RMAT(5, 200, 4000, 0.57, 0.19, 0.19)
	g := graph.Build(200, edges)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// footprints builds one footprint per job over the given partition indices.
func footprints(pg *graph.PGraph, jobs map[int][]int) []JobFootprint {
	ids := make([]int, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	// Deterministic submission order.
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	var out []JobFootprint
	for _, id := range ids {
		jf := JobFootprint{JobID: id}
		for _, pid := range jobs[id] {
			jf.Units = append(jf.Units, pg.Parts[pid])
		}
		out = append(out, jf)
	}
	return out
}

// loadOrder flattens a plan into the sequence of partition IDs loaded.
func loadOrder(plan []Group) []int {
	var out []int
	for _, g := range plan {
		for _, u := range g.Units {
			out = append(out, u.Part.ID)
		}
	}
	return out
}

func cmap(pg *graph.PGraph, c []float64) map[int64]float64 {
	m := make(map[int64]float64)
	for pid, v := range c {
		if v != 0 {
			m[pg.Parts[pid].UID] = v
		}
	}
	return m
}

func TestStaticOrder(t *testing.T) {
	pg := buildPG(t, 8)
	s := New(Static)
	s.ObserveSnapshot(pg)
	plan := s.Plan(footprints(pg, map[int][]int{0: {5, 1}, 1: {7, 0}}), nil)
	if len(plan) != 1 {
		t.Fatalf("static plan has %d groups, want 1", len(plan))
	}
	got := loadOrder(plan)
	want := []int{0, 1, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("static order = %v, want %v", got, want)
		}
	}
	if s.Kind() != Static || s.Kind().String() != "static" {
		t.Fatal("kind accessors broken")
	}
}

func TestPriorityNDominates(t *testing.T) {
	// Eq. 1: the partition needed by the most jobs loads first, whatever
	// D(P)·C(P) says — guaranteed by the θ bound.
	pg := buildPG(t, 8)
	s := New(Priority)
	s.ObserveSnapshot(pg)
	jobs := map[int][]int{
		0: {0, 1, 2, 3},
		1: {1, 2},
		2: {1},
	}
	c := cmap(pg, []float64{100, 0.1, 50, 3, 0, 0, 0, 0})
	got := loadOrder(s.Plan(footprints(pg, jobs), c))
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("priority order = %v, want N(P) to dominate (1,2 first)", got)
	}
	if s.Theta() <= 0 {
		t.Fatal("theta not fitted from first observation")
	}
}

func TestPriorityTieBreakByDC(t *testing.T) {
	pg := buildPG(t, 8)
	s := New(Priority)
	s.ObserveSnapshot(pg)
	// Equal N: ties broken toward the larger D(P)·C(P).
	jobs := map[int][]int{0: {0, 1, 2, 3}, 1: {0, 1, 2, 3}}
	c := cmap(pg, []float64{0, 10, 5, 0, 0, 0, 0, 0})
	got := loadOrder(s.Plan(footprints(pg, jobs), c))
	pos := map[int]int{}
	for i, p := range got {
		pos[p] = i
	}
	// Partition 1 has the largest C among equal-N candidates with a
	// nonzero degree, so it must come before 0 and 3 (C = 0).
	if pos[1] > pos[0] || pos[1] > pos[3] {
		t.Fatalf("tie-break order = %v (D=%v)", got, []float64{pg.Parts[0].AvgDegree, pg.Parts[1].AvgDegree})
	}
}

func TestThetaBound(t *testing.T) {
	pg := buildPG(t, 8)
	s := New(Priority)
	s.ObserveSnapshot(pg)
	c := cmap(pg, []float64{9, 4, 7, 1, 0, 0, 0, 0})
	s.Plan(footprints(pg, map[int][]int{0: {0, 1, 2, 3}}), c)
	var dmax, cmax float64
	for _, p := range pg.Parts {
		if p.AvgDegree > dmax {
			dmax = p.AvgDegree
		}
	}
	for _, v := range c {
		if v > cmax {
			cmax = v
		}
	}
	if s.Theta() >= 1/(dmax*cmax) {
		t.Fatalf("theta %v violates the Eq. 1 bound 1/(Dmax*Cmax) = %v", s.Theta(), 1/(dmax*cmax))
	}
}

// TestThetaRefitsOnSnapshotAndDrift is the regression for the fit-once
// staleness: θ must change when a new snapshot introduces higher-degree
// partitions, and when observed C maxima drift upward.
func TestThetaRefitsOnSnapshotAndDrift(t *testing.T) {
	pg := buildPG(t, 8)
	s := New(Priority)
	s.ObserveSnapshot(pg)
	s.Plan(footprints(pg, map[int][]int{0: {0, 1}}), cmap(pg, []float64{3, 1}))
	theta1 := s.Theta()
	if theta1 <= 0 {
		t.Fatal("theta not fitted")
	}

	// A snapshot with far denser partitions must refit θ downward.
	dense := gen.RMAT(9, 50, 6000, 0.57, 0.19, 0.19)
	g2 := graph.Build(50, dense)
	pg2, err := graph.Cut(g2, dense, graph.Options{NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	refits := s.Refits()
	s.ObserveSnapshot(pg2)
	if s.Theta() >= theta1 {
		t.Fatalf("theta %v did not shrink after higher-degree snapshot (was %v)", s.Theta(), theta1)
	}
	if s.Refits() <= refits {
		t.Fatal("refit not counted for snapshot arrival")
	}

	// Upward C drift refits again. Drift refits are rate-limited to one
	// per refitMinInterval plans, so keep planning until the window opens.
	theta2 := s.Theta()
	for i := 0; i < refitMinInterval+1; i++ {
		s.Plan(footprints(pg, map[int][]int{0: {0, 1}}), cmap(pg, []float64{300, 1}))
	}
	if s.Theta() >= theta2 {
		t.Fatalf("theta %v did not shrink after C drift (was %v)", s.Theta(), theta2)
	}

	// A diverging job cannot drive θ to zero: non-finite and
	// beyond-ceiling observations are ignored.
	for i := 0; i < 2*refitMinInterval; i++ {
		s.Plan(footprints(pg, map[int][]int{0: {0, 1}}), cmap(pg, []float64{1e200, math.Inf(1)}))
	}
	if s.Theta() <= 0 {
		t.Fatalf("theta collapsed to %v under diverging observations", s.Theta())
	}
}

// TestThetaWindowTracksShrinkingWorkload: the windowed D/C estimate must
// decay once the hot regime ends, so a rate-limited downward refit raises
// θ back toward the live workload instead of staying pinned to the
// all-time peak.
func TestThetaWindowTracksShrinkingWorkload(t *testing.T) {
	pg := buildPG(t, 8)
	s := New(Priority)
	s.ObserveSnapshot(pg)

	// Fit against a hot regime.
	s.Plan(footprints(pg, map[int][]int{0: {0, 1}}), cmap(pg, []float64{500, 100}))
	hot := s.Theta()
	if hot <= 0 {
		t.Fatal("theta not fitted")
	}

	// The workload cools: tiny C observations for long enough that the
	// decayed window leaves the hysteresis band and the rate limit opens.
	refits := s.Refits()
	for i := 0; i < 4*refitMinInterval; i++ {
		s.Plan(footprints(pg, map[int][]int{0: {0, 1}}), cmap(pg, []float64{2, 1}))
	}
	if s.Refits() <= refits {
		t.Fatal("no downward refit despite a shrunken workload")
	}
	if s.Theta() <= hot {
		t.Fatalf("theta %v did not grow after the workload shrank (was %v)", s.Theta(), hot)
	}

	// N(U) dominance survives the larger θ: a sudden C spike between
	// refits is absorbed by the dominance clamp.
	jobs := map[int][]int{0: {0, 1, 2, 3}, 1: {1, 2}, 2: {1}}
	got := loadOrder(s.Plan(footprints(pg, jobs), cmap(pg, []float64{1e9, 0.1, 1e9, 1e9})))
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("order = %v, want N(P) to dominate (1,2 first) despite stale θ", got)
	}
}

// TestPlanIsOneGroup: whatever the footprints — disjoint job sets on one
// snapshot, or jobs on snapshots of different partition counts — a round
// is one group holding every job, its units in Eq. 1 order with (ID, UID)
// breaking ties.
func TestPlanIsOneGroup(t *testing.T) {
	pg := buildPG(t, 8)
	pgA, pgB := buildPG(t, 4), buildPG(t, 8)
	p, a, b := pg.Parts, pgA.Parts, pgB.Parts
	for _, tc := range []struct {
		name string
		foot []JobFootprint
		c    map[int64]float64
		want []*graph.Partition
	}{
		{
			// Jobs {0,1,2} share partitions 0-2; job 3 runs alone on 5-6.
			name: "disjoint footprints",
			foot: footprints(pg, map[int][]int{0: {0, 1}, 1: {1, 2}, 2: {2, 0}, 3: {6, 5}}),
			want: []*graph.Partition{p[0], p[1], p[2], p[5], p[6]},
		},
		{
			// D·C orders units of equal N; N still outranks it.
			name: "eq1 tie-break",
			foot: footprints(pg, map[int][]int{0: {0, 1, 2}, 1: {2}, 2: {7}}),
			c:    cmap(pg, []float64{0, 5}),
			want: []*graph.Partition{p[2], p[1], p[0], p[7]},
		},
		{
			// Units are snapshot versions: ID ties fall to the UID.
			name: "snapshot versions",
			foot: []JobFootprint{
				{JobID: 0, Units: []*graph.Partition{a[3], a[0]}},
				{JobID: 1, Units: []*graph.Partition{b[7], b[0]}},
			},
			want: []*graph.Partition{a[0], b[0], a[3], b[7]},
		},
	} {
		s := New(Priority)
		s.ObserveSnapshot(pg)
		s.ObserveSnapshot(pgA)
		s.ObserveSnapshot(pgB)
		plan := s.Plan(tc.foot, tc.c)
		if len(plan) != 1 || len(plan[0].Jobs) != len(tc.foot) {
			t.Fatalf("%s: plan = %+v, want one group of all %d jobs", tc.name, plan, len(tc.foot))
		}
		if len(plan[0].Units) != len(tc.want) {
			t.Fatalf("%s: %d units, want %d", tc.name, len(plan[0].Units), len(tc.want))
		}
		for i, u := range plan[0].Units {
			if u.Part != tc.want[i] {
				t.Fatalf("%s: unit %d is partition %d (UID %d), want %d (UID %d)",
					tc.name, i, u.Part.ID, u.Part.UID, tc.want[i].ID, tc.want[i].UID)
			}
		}
	}
}

// TestUnitsKeyedByVersion: a partition version (one *graph.Partition, one
// UID) shared by two snapshots is one unit triggering both jobs; the
// versions each snapshot holds alone stay units of their own.
func TestUnitsKeyedByVersion(t *testing.T) {
	pgA, pgB := buildPG(t, 4), buildPG(t, 8)
	s := New(Priority)
	s.ObserveSnapshot(pgA)
	s.ObserveSnapshot(pgB)
	plan := s.Plan([]JobFootprint{
		{JobID: 0, Units: []*graph.Partition{pgA.Parts[0]}},
		{JobID: 1, Units: []*graph.Partition{pgA.Parts[0], pgB.Parts[1]}},
	}, nil)
	units := plan[0].Units
	if len(units) != 2 || units[0].Part != pgA.Parts[0] || len(units[0].Jobs) != 2 || len(units[1].Jobs) != 1 {
		t.Fatalf("shared version not one unit triggering both jobs: %+v", units)
	}
}

func TestPlanDoesNotMutateInputs(t *testing.T) {
	pg := buildPG(t, 8)
	s := New(Priority)
	s.ObserveSnapshot(pg)
	foot := footprints(pg, map[int][]int{0: {3, 1, 2}})
	c := cmap(pg, []float64{1, 2, 3, 4})
	s.Plan(foot, c)
	if foot[0].Units[0].ID != 3 || foot[0].Units[1].ID != 1 || foot[0].Units[2].ID != 2 {
		t.Fatal("Plan mutated a job footprint")
	}
	if len(c) != 4 {
		t.Fatal("Plan mutated the C map")
	}
}

func TestDeterministicPlan(t *testing.T) {
	pg := buildPG(t, 8)
	for _, kind := range []Kind{Static, Priority} {
		s := New(kind)
		s.ObserveSnapshot(pg)
		jobs := map[int][]int{0: {7, 3, 5, 0}, 1: {3, 5}, 2: {6}}
		a := loadOrder(s.Plan(footprints(pg, jobs), nil))
		b := loadOrder(s.Plan(footprints(pg, jobs), nil))
		if len(a) != len(b) {
			t.Fatalf("%v: plan lengths differ", kind)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: plan not deterministic: %v vs %v", kind, a, b)
			}
		}
	}
}

// TestPlanAllocations: the scheduler keeps its UID index, unit slab, load
// order and plan, so once a first call has sized them, planning a round of
// 8 jobs over 32 partitions allocates nothing, under either policy.
func TestPlanAllocations(t *testing.T) {
	pg := buildPG(t, 32)
	var foot []JobFootprint
	for id := range 8 {
		jf := JobFootprint{JobID: id}
		for pid := id % 3; pid < len(pg.Parts); pid++ {
			jf.Units = append(jf.Units, pg.Parts[pid])
			jf.Active = append(jf.Active, 1+(id+pid)%5)
		}
		foot = append(foot, jf)
	}
	c := cmap(pg, []float64{3, 0, 1, 7, 2, 0, 5})
	for _, kind := range []Kind{Priority, Static} {
		s := New(kind)
		s.ObserveSnapshot(pg)
		// The first plan, copied out of the scheduler's buffers.
		var want []UnitPlan
		for _, u := range s.Plan(foot, c)[0].Units {
			want = append(want, UnitPlan{Part: u.Part, Jobs: slices.Clone(u.Jobs)})
		}
		if n := testing.AllocsPerRun(50, func() { s.Plan(foot, c) }); n != 0 {
			t.Errorf("%v: a warmed-up Plan made %v allocations, want 0", kind, n)
		}
		// Reusing the buffers changes neither the order nor the job lists.
		got := s.Plan(foot, c)[0].Units
		if len(got) != len(want) {
			t.Fatalf("%v: reused plan has %d units, first plan %d", kind, len(got), len(want))
		}
		for i, u := range got {
			if u.Part != want[i].Part || !slices.Equal(u.Jobs, want[i].Jobs) {
				t.Fatalf("%v: unit %d is partition %d with jobs %v, first plan %d with %v",
					kind, i, u.Part.ID, u.Jobs, want[i].Part.ID, want[i].Jobs)
			}
		}
	}
}
