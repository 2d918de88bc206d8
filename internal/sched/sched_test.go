package sched

import (
	"math"
	"math/big"
	"math/rand/v2"
	"slices"
	"testing"

	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/model"
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
	// D(P)·C(P) says, even when C is huge or not finite.
	pg := buildPG(t, 8)
	jobs := map[int][]int{
		0: {0, 1, 2, 3},
		1: {1, 2},
		2: {1},
	}
	for _, c := range [][]float64{
		{100, 0.1, 50, 3},
		{1e300, 0.1, 1e9, math.Inf(1)},
		{math.NaN(), 0, 0, math.NaN()},
	} {
		s := New(Priority)
		got := loadOrder(s.Plan(footprints(pg, jobs), cmap(pg, c)))
		if got[0] != 1 || got[1] != 2 {
			t.Fatalf("C = %v: priority order = %v, want N(P) to dominate (1,2 first)", c, got)
		}
	}
}

// TestPriorityTieBreakByDC: among units of equal N, the larger D(P)·C(P)
// loads first, at any scale of C; a NaN or +Inf product ranks first
// within its N, and (ID, UID) breaks every remaining tie.
func TestPriorityTieBreakByDC(t *testing.T) {
	pg := buildPG(t, 8)
	p := pg.Parts
	// byKey returns a C map under which D(P)·C(P) of partition pids[i] is
	// about keys[i].
	byKey := func(pids []int, keys ...float64) map[int64]float64 {
		c := make(map[int64]float64)
		for i, pid := range pids {
			c[p[pid].UID] = keys[i] / p[pid].AvgDegree
		}
		return c
	}
	t.Run("equal N", func(t *testing.T) {
		s := New(Priority)
		jobs := map[int][]int{0: {0, 1, 2, 3}, 1: {0, 1, 2, 3}}
		got := loadOrder(s.Plan(footprints(pg, jobs), cmap(pg, []float64{0, 10, 5, 0})))
		// Partition 1 has the largest C among equal-N candidates with a
		// nonzero degree, so it must come before 0 and 3 (C = 0).
		if i := slices.Index(got, 1); i > slices.Index(got, 0) || i > slices.Index(got, 3) {
			t.Fatalf("tie-break order = %v (D=%v)", got, []float64{p[0].AvgDegree, p[1].AvgDegree})
		}
	})

	t.Run("C grown past an earlier round's scale", func(t *testing.T) {
		// A first round sees C ≈ 1; the next sees C six orders of magnitude
		// larger. A θ fitted to the first round would push every unit of
		// the second onto the old clamp and into index order; the
		// comparator still orders them by D·C.
		s := New(Priority)
		jobs := footprints(pg, map[int][]int{0: {0, 1, 2, 3}, 1: {0, 1, 2, 3}})
		s.Plan(jobs, byKey([]int{0, 1, 2, 3}, 1, 1, 1, 1))
		got := loadOrder(s.Plan(jobs, byKey([]int{3, 0, 2, 1}, 4e6, 3e6, 2e6, 1e6)))
		if want := []int{3, 0, 2, 1}; !slices.Equal(got, want) {
			t.Fatalf("order = %v, want %v by D·C", got, want)
		}
	})

	t.Run("NaN and +Inf", func(t *testing.T) {
		// A second snapshot's versions share IDs with the first's and
		// carry larger UIDs.
		pg2 := buildPG(t, 8)
		q := pg2.Parts
		s := New(Priority)
		foot := footprints(pg, map[int][]int{0: {0, 1, 2, 3, 4, 5}, 1: {0, 1, 2, 3, 4, 5}})
		foot = append(foot, JobFootprint{JobID: 2, Units: []*graph.Partition{q[1], q[6], p[6]}})
		c := byKey([]int{0, 2}, 2e3, 1e3)
		c[p[1].UID], c[p[3].UID] = math.NaN(), math.Inf(1)
		c[q[1].UID] = 1e300
		c[p[6].UID], c[q[6].UID] = math.Inf(1), math.NaN()
		want := []*graph.Partition{p[1], p[3], p[0], p[2], p[4], p[5], p[6], q[6], q[1]}
		got := s.Plan(foot, c)[0].Units
		if len(got) != len(want) {
			t.Fatalf("%d units, want %d", len(got), len(want))
		}
		for i, u := range got {
			if u.Part != want[i] {
				t.Fatalf("unit %d is partition %d (UID %d), want %d (UID %d)",
					i, u.Part.ID, u.Part.UID, want[i].ID, want[i].UID)
			}
		}
	})
}

// TestPlanMatchesExactEq1: on random footprints, active counts and C maps,
// Plan's unit order is the order of Pri(U) = N(U) + θ·D(U)·frac·C(U)
// evaluated exactly, at θ = 1/(2·Dmax·Cmax) and with no clamp, with
// (ID, UID) ascending breaking exact ties.
func TestPlanMatchesExactEq1(t *testing.T) {
	const prec = 256
	rng := rand.New(rand.NewPCG(38, 1))
	// pick draws from a few exact values half the time, so that equal keys
	// (and with them the (ID, UID) tie-break) occur, and otherwise from a
	// wide random range.
	pick := func(few []float64, scale float64) float64 {
		if rng.IntN(2) == 0 {
			return few[rng.IntN(len(few))]
		}
		return rng.Float64() * math.Pow(10, scale*(2*rng.Float64()-1))
	}
	s := New(Priority)
	for trial := range 300 {
		// Partition sizes are powers of two, so every active fraction is
		// exact and equal keys stay equal in float64.
		parts := make([]*graph.Partition, 1+rng.IntN(24))
		uids := rng.Perm(len(parts))
		for i := range parts {
			parts[i] = &graph.Partition{
				ID:        rng.IntN(8),
				UID:       int64(uids[i]),
				Globals:   make([]model.VertexID, 1<<rng.IntN(7)),
				AvgDegree: pick([]float64{0, 4, 8, 12.5}, 2),
			}
		}
		c := make(map[int64]float64)
		for _, p := range parts {
			if rng.IntN(5) > 0 {
				c[p.UID] = pick([]float64{0, 1, 2.5}, 6)
			}
		}
		var foot []JobFootprint
		for id := range 1 + rng.IntN(8) {
			jf := JobFootprint{JobID: 10 * id}
			withActive := rng.IntN(4) > 0
			for _, i := range rng.Perm(len(parts))[:1+rng.IntN(len(parts))] {
				jf.Units = append(jf.Units, parts[i])
				if withActive {
					jf.Active = append(jf.Active, rng.IntN(parts[i].NumVertices()+1))
				}
			}
			foot = append(foot, jf)
		}

		// The exact priorities, from the footprints alone.
		n := map[*graph.Partition]int{}
		frac := map[*graph.Partition]float64{}
		var dmax, cmax float64
		for _, jf := range foot {
			for ui, p := range jf.Units {
				n[p]++
				f := 1.0
				if jf.Active != nil {
					f = float64(jf.Active[ui]) / float64(p.NumVertices())
				}
				frac[p] = max(frac[p], f)
				dmax, cmax = max(dmax, p.AvgDegree), max(cmax, c[p.UID])
			}
		}
		theta := new(big.Float).SetPrec(prec)
		if dmax > 0 && cmax > 0 {
			den := new(big.Float).SetPrec(prec).SetFloat64(2 * dmax)
			den.Mul(den, big.NewFloat(cmax))
			theta.Quo(big.NewFloat(1).SetPrec(prec), den)
		}
		pri := func(p *graph.Partition) *big.Float {
			x := new(big.Float).SetPrec(prec).Set(theta)
			x.Mul(x, big.NewFloat(p.AvgDegree))
			x.Mul(x, big.NewFloat(frac[p]))
			x.Mul(x, big.NewFloat(c[p.UID]))
			return x.Add(x, big.NewFloat(float64(n[p])))
		}

		units := s.Plan(foot, c)[0].Units
		if len(units) != len(n) {
			t.Fatalf("trial %d: %d units planned, footprints hold %d", trial, len(units), len(n))
		}
		for i := 1; i < len(units); i++ {
			a, b := units[i-1].Part, units[i].Part
			switch pa, pb := pri(a), pri(b); pa.Cmp(pb) {
			case 1:
			case 0:
				if byIndex(unit{part: a}, unit{part: b}) >= 0 {
					t.Fatalf("trial %d: units %d and %d tie at Pri %v but are not in (ID, UID) order: (%d, %d) then (%d, %d)",
						trial, i-1, i, pa, a.ID, a.UID, b.ID, b.UID)
				}
			default:
				t.Fatalf("trial %d: unit %d (Pri %v) loads before unit %d (Pri %v)", trial, i-1, pa, i, pb)
			}
		}
		for i, u := range units {
			if len(u.Jobs) != n[u.Part] {
				t.Fatalf("trial %d: unit %d triggers %d jobs, footprints give %d", trial, i, len(u.Jobs), n[u.Part])
			}
		}
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
