package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/model"
)

// bundled lists every bundled program, one fresh instance per call: SCC and
// HITS keep job-private tables.
var bundled = []struct {
	name string
	mk   func() model.Program
}{
	{"pagerank", func() model.Program { return algo.NewPageRank() }},
	{"ppr", func() model.Program { return algo.NewPPR(0) }},
	{"hits", func() model.Program { return algo.NewHITS() }},
	{"katz", func() model.Program { return &algo.Katz{Alpha: 0.005, Beta: 1, Epsilon: 1e-6} }},
	{"sssp", func() model.Program { return algo.NewSSSP(0) }},
	{"bfs", func() model.Program { return algo.NewBFS(0) }},
	{"sswp", func() model.Program { return algo.NewSSWP(0) }},
	{"wcc", func() model.Program { return algo.NewWCC() }},
	{"scc", func() model.Program { return algo.NewSCC() }},
	{"kcore", func() model.Program { return algo.NewKCore(5) }},
}

// fixtures returns the rmat graph and its hole-punched snapshot, cut into
// parts partitions.
func fixtures(t *testing.T, parts int) map[string]*graph.PGraph {
	edges, n := testGraph(21)
	return map[string]*graph.PGraph{"rmat": buildPG(t, edges, n, parts), "holes": holePunched(t, edges, n, parts)}
}

// walkedWeight is ActiveWeight recomputed from the bitset.
func walkedWeight(j *Job, pid int) int64 {
	var w int64
	for _, li := range activeLocals(j, pid) {
		w += 1 + j.PG.Parts[pid].EdgeWork(li, j.Dir)
	}
	return w
}

// thin drops each active vertex of every job's frontier with probability
// 1/3, the same vertices in every job, and refreshes the cached counts and
// weights.
func thin(rng *rand.Rand, jobs ...*Job) {
	ref := jobs[0]
	for pid := range ref.PG.Parts {
		for _, li := range activeLocals(ref, pid) {
			if rng.Intn(3) == 0 {
				for _, j := range jobs {
					j.PT.Active[pid].Clear(int(li))
				}
			}
		}
	}
	for _, j := range jobs {
		for pid := range j.PT.Active {
			j.PT.ActiveCount[pid] = j.PT.Active[pid].Count()
		}
		j.reweigh()
	}
}

// TestSweepRangesMatchApplyRange drives every bundled program on both
// fixtures three ways in lockstep — SweepRanges with a cut, plain Sweep, and
// SliceWeighted + ApplyRange per range + Merge — over natural and randomly
// thinned frontiers, with cuts of 0, one vertex, a few vertices, about an
// eighth of the frontier and at least all of it. SweepRanges must report
// exactly the Stats ApplyRange returns over SliceWeighted's ranges (none for
// a cut of 0), total what Sweep returns, and leave the bits Sweep leaves:
// that is what lets the engine run a straggler whole and price its Fig. 6
// split as if it had been cut.
func TestSweepRangesMatchApplyRange(t *testing.T) {
	for _, parts := range []int{1, 4} {
		for fname, pg := range fixtures(t, parts) {
			for _, p := range bundled {
				t.Run(fmt.Sprintf("%s/p%d/%s", fname, parts, p.name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(parts)))
					priced, plain, oracle := NewJob(0, p.mk(), pg), NewJob(1, p.mk(), pg), NewJob(2, p.mk(), pg)
					split := 0
					for it := 0; it < 12 && !plain.Done; it++ {
						if it%2 == 1 {
							thin(rng, priced, plain, oracle)
						}
						for pid := range pg.Parts {
							if plain.PT.ActiveCount[pid] == 0 {
								continue
							}
							w := plain.ActiveWeight(pid)
							if priced.ActiveWeight(pid) != w || oracle.ActiveWeight(pid) != w {
								t.Fatalf("iteration %d partition %d: weights %d %d %d", it, pid, priced.ActiveWeight(pid), w, oracle.ActiveWeight(pid))
							}
							cuts := []int64{0, 1, 7, w/8 + 1, w, w + 3}
							cut := cuts[(it+pid)%len(cuts)]
							got, ranges := priced.SweepRanges(pid, &Scratch{}, cut, nil)
							want := plain.Sweep(pid, &Scratch{})
							var oracleRanges []Stats
							if cut > 0 {
								rs := oracle.SliceWeighted(pid, cut, w, nil)
								scs := make([]*Scratch, len(rs))
								for i, r := range rs {
									scs[i] = &Scratch{}
									oracleRanges = append(oracleRanges, oracle.ApplyRange(pid, r, scs[i]))
								}
								oracle.Merge(pid, scs...)
								split += len(rs)
							} else {
								oracle.Sweep(pid, &Scratch{})
							}
							if got != want {
								t.Fatalf("iteration %d partition %d cut %d: SweepRanges %+v, Sweep %+v", it, pid, cut, got, want)
							}
							if !slices.Equal(ranges, oracleRanges) {
								t.Fatalf("iteration %d partition %d cut %d of %d: ranges %v, ApplyRange over SliceWeighted %v", it, pid, cut, w, ranges, oracleRanges)
							}
							var sum Stats
							for _, r := range ranges {
								sum.Add(r)
							}
							if cut > 0 && sum != want {
								t.Fatalf("iteration %d partition %d cut %d: ranges total %+v, sweep %+v", it, pid, cut, sum, want)
							}
						}
						for name, j := range map[string]*Job{"SweepRanges": priced, "ApplyRange+Merge": oracle} {
							if err := sameSweep(j, plain); err != nil {
								t.Fatalf("iteration %d: %s against Sweep: %v", it, name, err)
							}
						}
						for _, j := range []*Job{priced, plain, oracle} {
							j.FinishIteration()
						}
					}
					if split == 0 {
						t.Fatal("setup: no sweep was cut into ranges")
					}
				})
			}
		}
	}
}

// TestActiveWeightCached: the frontier weight a job caches equals the walk
// over its active bitset after NewJob and after every FinishIteration, for
// every bundled program to convergence — through HITS's and SCC's phase
// changes, which rewrite the frontier and turn the direction.
func TestActiveWeightCached(t *testing.T) {
	for _, parts := range []int{1, 4, 32} {
		for fname, pg := range fixtures(t, parts) {
			for _, p := range bundled {
				t.Run(fmt.Sprintf("%s/p%d/%s", fname, parts, p.name), func(t *testing.T) {
					j := NewJob(0, p.mk(), pg)
					check := func(when string) {
						t.Helper()
						for pid := range pg.Parts {
							if got, want := j.ActiveWeight(pid), walkedWeight(j, pid); got != want {
								t.Fatalf("%s: partition %d ActiveWeight %d, walk %d", when, pid, got, want)
							}
						}
					}
					check("NewJob")
					sc := &Scratch{}
					for it := 0; !j.Done; it++ {
						if it >= 10000 {
							t.Fatal("no convergence")
						}
						for pid := range pg.Parts {
							if j.PT.ActiveCount[pid] > 0 {
								j.ProcessPartition(pid, sc)
							}
						}
						j.FinishIteration()
						check(fmt.Sprintf("iteration %d (phase %d)", it, j.Phases))
					}
					if _, phased := j.Prog.(model.Phased); phased && j.Phases == 0 {
						t.Fatal("setup: a phased program never changed phase")
					}
				})
			}
		}
	}
}

// TestFrontierTallyMatchesWalk holds the frontier tallies to a walk: every
// bundled program runs to convergence over random graphs — RMATs and
// Erdős–Rényi graphs of random size, some with isolated vertices — cut into
// 1, 4 and 32 partitions, each partition's step taken at random as a Sweep,
// as ApplyRange over SliceWeighted's ranges plus Merge, or as CLIP's
// ProcessPartitionReentrant, so that every settle path sets Next bits. After
// NewJob and after every FinishIteration, each partition's PT.ActiveCount and
// ActiveWeight must equal a fresh walk of its Active bitset, through the
// phase changes of HITS and SCC.
func TestFrontierTallyMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(300)
		m := n * (2 + rng.Intn(10))
		var edges []model.Edge
		if seed%2 == 0 {
			edges = gen.ER(seed, n, m)
		} else {
			edges = gen.RMAT(seed, n, m, 0.57, 0.19, 0.19)
		}
		n += rng.Intn(20) // isolated vertices past the generated ones
		for _, parts := range []int{1, 4, 32} {
			pg := buildPG(t, edges, n, parts)
			for _, p := range bundled {
				t.Run(fmt.Sprintf("seed%d/p%d/%s", seed, parts, p.name), func(t *testing.T) {
					j := NewJob(0, p.mk(), pg)
					check := func(when string) {
						t.Helper()
						for pid := range pg.Parts {
							if got, want := j.PT.ActiveCount[pid], j.PT.Active[pid].Count(); got != want {
								t.Fatalf("%s: partition %d ActiveCount %d, walk %d", when, pid, got, want)
							}
							if got, want := j.ActiveWeight(pid), walkedWeight(j, pid); got != want {
								t.Fatalf("%s: partition %d ActiveWeight %d, walk %d", when, pid, got, want)
							}
						}
					}
					check("NewJob")
					sc := &Scratch{}
					for it := 0; !j.Done; it++ {
						if it >= 10000 {
							t.Fatal("no convergence")
						}
						for pid := range pg.Parts {
							if j.PT.ActiveCount[pid] == 0 {
								continue
							}
							switch rng.Intn(3) {
							case 0:
								j.ProcessPartition(pid, sc)
							case 1:
								rs := j.SliceWeighted(pid, 1+rng.Int63n(64), j.ActiveWeight(pid), nil)
								scs := make([]*Scratch, len(rs))
								for i, r := range rs {
									scs[i] = &Scratch{}
									j.ApplyRange(pid, r, scs[i])
								}
								j.Merge(pid, scs...)
							default:
								j.ProcessPartitionReentrant(pid, 1+rng.Intn(3))
							}
						}
						j.FinishIteration()
						check(fmt.Sprintf("iteration %d (phase %d)", it, j.Phases))
					}
					if _, phased := j.Prog.(model.Phased); phased && j.Phases == 0 {
						t.Fatal("setup: a phased program never changed phase")
					}
				})
			}
		}
	}
}
