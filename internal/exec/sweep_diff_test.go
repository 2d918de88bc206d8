package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cgraph/algo"
	"cgraph/internal/graph"
	"cgraph/internal/testutil"
	"cgraph/model"
)

// sweepFn is one way of running a (job, partition) BSP step.
type sweepFn func(j *Job, pid int) Stats

// sweepWhole is the whole-sweep shape: one Sweep call.
func sweepWhole(j *Job, pid int) Stats { return j.Sweep(pid, &Scratch{}) }

// sweepRanged is the straggler shape, the oracle of
// TestSweepMatchesApplyMerge: the frontier cut into (up to) 8 weighted
// ranges, each applied into a scratch of its own, then one Merge.
func sweepRanged(j *Job, pid int) Stats {
	ranges := j.SliceActive(pid, j.ActiveWeight(pid)/8+1, nil)
	scs := make([]*Scratch, len(ranges))
	var st Stats
	for i, r := range ranges {
		scs[i] = &Scratch{}
		st.Add(j.ApplyRange(pid, r, scs[i]))
	}
	j.Merge(pid, scs...)
	return st
}

// hideAlgebra wraps prog so that its Algebra method — and nothing else the
// kernel asks for — is out of reach, which sends it down the interface path.
func hideAlgebra(prog model.Program) model.Program {
	ph, phased := prog.(model.Phased)
	f, filtered := prog.(model.Filterer)
	switch {
	case phased && filtered:
		return struct {
			model.Phased
			model.Filterer
		}{ph, f}
	case phased:
		return struct{ model.Phased }{ph}
	case filtered:
		return struct {
			model.Program
			model.Filterer
		}{prog, f}
	}
	return struct{ model.Program }{prog}
}

// sameSweep reports the first difference between what two sweeps of the same
// iteration left behind: States, Next and Received of every partition, and
// the per-partition |Δ| sums.
func sameSweep(got, want *Job) error {
	for pid := range want.PT.States {
		for li, w := range want.PT.States[pid] {
			if g := got.PT.States[pid][li]; !testutil.SameFloat(g.Value, w.Value) || !testutil.SameFloat(g.Delta, w.Delta) {
				return fmt.Errorf("state [%d][%d] = %+v, reference %+v", pid, li, g, w)
			}
		}
		if g, w := got.DeltaSum[pid], want.DeltaSum[pid]; !testutil.SameFloat(g, w) {
			return fmt.Errorf("DeltaSum[%d] = %v (%#x), reference %v (%#x)", pid, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	if err := sameSets(got.PT.Next, want.PT.Next); err != nil {
		return fmt.Errorf("Next: %w", err)
	}
	if err := sameSets(got.PT.Received, want.PT.Received); err != nil {
		return fmt.Errorf("Received: %w", err)
	}
	return nil
}

// lockstep drives jobs — instances of one program over one snapshot — an
// iteration at a time, jobs[i] stepping its partitions with sweeps[i], and
// fails at the first bit (testutil.SameFloat: NaN for NaN) in which any of them differs from
// jobs[0]: the Stats of a sweep; States, Received and DeltaSum once every
// partition is swept; the push summary, States, Next and Received after Push;
// Iterations, Phases, SyncEntries and Done after the advance. It returns the
// iterations run.
func lockstep(t *testing.T, jobs []*Job, sweeps []sweepFn, maxIter int) int {
	t.Helper()
	ref := jobs[0]
	for it := 0; !ref.Done; it++ {
		if it >= maxIter {
			t.Fatalf("no convergence in %d iterations", maxIter)
		}
		for pid := range ref.PG.Parts {
			if ref.PT.ActiveCount[pid] == 0 {
				continue
			}
			want := sweeps[0](ref, pid)
			for i, j := range jobs[1:] {
				if got := sweeps[i+1](j, pid); got != want {
					t.Fatalf("iteration %d partition %d: job %d swept %+v, job 0 %+v", it, pid, i+1, got, want)
				}
			}
		}
		for i, j := range jobs[1:] {
			if err := sameSweep(j, ref); err != nil {
				t.Fatalf("iteration %d after the sweeps: job %d: %v", it, i+1, err)
			}
		}
		want := ref.Push()
		for i, j := range jobs[1:] {
			got := j.Push()
			if got.Entries != want.Entries || !slices.Equal(got.TouchedParts, want.TouchedParts) {
				t.Fatalf("iteration %d: job %d pushed {%d %v}, job 0 {%d %v}", it, i+1, got.Entries, got.TouchedParts, want.Entries, want.TouchedParts)
			}
			if err := sameSweep(j, ref); err != nil {
				t.Fatalf("iteration %d after the push: job %d: %v", it, i+1, err)
			}
		}
		ref.advance()
		for i, j := range jobs[1:] {
			j.advance()
			if j.Iterations != ref.Iterations || j.Phases != ref.Phases || j.SyncEntries != ref.SyncEntries || j.Done != ref.Done {
				t.Fatalf("iteration %d: job %d at {it %d ph %d sync %d done %v}, job 0 {%d %d %d %v}", it, i+1,
					j.Iterations, j.Phases, j.SyncEntries, j.Done, ref.Iterations, ref.Phases, ref.SyncEntries, ref.Done)
			}
		}
	}
	return ref.Iterations
}

// TestSweepMatchesApplyMerge drives every bundled program to convergence four
// ways in lockstep — ApplyRange over 8 ranges + Merge (the oracle) and Sweep,
// each with the program's Algebra declared (the loops with the arithmetic in
// line) and hidden (the loops that call the program) — and requires all four
// to agree bit for bit after every sweep, push and advance. That is what lets
// the engine choose, sweep by sweep, between a whole Sweep and the range +
// scratch + merge split without changing a result, and it is the test that
// catches a program whose declared Algebra is not its Acc and Contribution.
func TestSweepMatchesApplyMerge(t *testing.T) {
	programs := []struct {
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
	edges, n := testGraph(21)
	for _, parts := range []int{1, 4, 32} {
		graphs := []struct {
			name string
			pg   *graph.PGraph
		}{
			{"rmat", buildPG(t, edges, n, parts)},
			{"holes", holePunched(t, edges, n, parts)},
		}
		for _, gr := range graphs {
			for _, p := range programs {
				t.Run(fmt.Sprintf("%s/p%d/%s", gr.name, parts, p.name), func(t *testing.T) {
					// One program instance per job: SCC and HITS keep
					// job-private tables.
					declared := NewJob(0, p.mk(), gr.pg).alg.Declared()
					if _, filtered := p.mk().(model.Filterer); declared == filtered {
						t.Fatalf("setup: declared path %v for a program with Filterer %v", declared, filtered)
					}
					jobs := []*Job{
						NewJob(0, p.mk(), gr.pg),
						NewJob(1, p.mk(), gr.pg),
						NewJob(2, hideAlgebra(p.mk()), gr.pg),
						NewJob(3, hideAlgebra(p.mk()), gr.pg),
					}
					if jobs[2].alg.Declared() || jobs[3].alg.Declared() {
						t.Fatal("setup: the wrapper did not hide the algebra")
					}
					if lockstep(t, jobs, []sweepFn{sweepRanged, sweepWhole, sweepRanged, sweepWhole}, 10000) == 0 {
						t.Fatal("no iteration exercised")
					}
					if err := jobs[1].CheckReplicaConsistency(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// probe is a program over any declared algebra, built to push special values
// through the edge loops: vertex v starts from Delta specials[v mod len], and
// for three iterations every vertex scatters whatever it accumulated along
// both edge directions. Its Acc and Contribution are the algebra's own
// reference functions, so hiding the declaration changes the code path only.
type probe struct{ alg model.Algebra }

var specials = []float64{1, math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), -2.5, 1e300}

func (p probe) Name() string               { return "probe" }
func (p probe) Direction() model.Direction { return model.Both }
func (p probe) Algebra() model.Algebra     { return p.alg }
func (p probe) Identity() float64 {
	switch p.alg.Acc {
	case model.Min:
		return math.Inf(1)
	case model.Max:
		return math.Inf(-1)
	}
	return 0
}
func (p probe) Acc(a, c float64) float64                     { return p.alg.Fold(a, c) }
func (p probe) Contribution(seed float64, w float32) float64 { return p.alg.Along(seed, w) }
func (p probe) IsActive(s model.State) bool                  { return s.Value < 3 }
func (p probe) Init(v model.VertexID, _ model.GraphInfo) (model.State, bool) {
	return model.State{Delta: specials[int(v)%len(specials)]}, true
}
func (p probe) Apply(_ model.VertexID, s *model.State, _ int) (float64, bool) {
	seed := s.Delta
	s.Value++
	s.Delta = p.Identity()
	return seed, true
}

// TestSweepSpecialValues runs probe over all twelve (Acc, Edge) pairs on a
// graph whose weights are themselves special (NaN, ±0, ±Inf): whole and
// ranged, declared and hidden, the four must still agree bit for bit — a loop
// that skips, reorders or double-folds an edge when a contribution is NaN, a
// signed zero or infinite would show here and nowhere in the bundled
// programs' ordinary runs.
func TestSweepSpecialValues(t *testing.T) {
	edges, n := testGraph(22)
	weights := []float32{1, float32(math.Copysign(0, -1)), 0, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0.5}
	for i := range edges {
		edges[i].Weight = weights[i%len(weights)]
	}
	pg := buildPG(t, edges, n, 4)
	for acc := model.Sum; acc <= model.Max; acc++ {
		for edge := model.Copy; edge <= model.MinWeight; edge++ {
			p := probe{model.Algebra{Acc: acc, Edge: edge}}
			t.Run(fmt.Sprintf("acc%d/edge%d", acc, edge), func(t *testing.T) {
				jobs := []*Job{NewJob(0, p, pg), NewJob(1, p, pg), NewJob(2, hideAlgebra(p), pg), NewJob(3, hideAlgebra(p), pg)}
				if !jobs[0].alg.Declared() || jobs[2].alg.Declared() {
					t.Fatal("setup: want jobs 0-1 on the declared path, 2-3 on the interface path")
				}
				if got := lockstep(t, jobs, []sweepFn{sweepRanged, sweepWhole, sweepRanged, sweepWhole}, 10); got < 3 {
					t.Fatalf("ran %d iterations, want 3", got)
				}
			})
		}
	}
}
