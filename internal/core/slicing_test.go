package core

import (
	"fmt"
	"math"
	"testing"

	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/internal/pool"
	"cgraph/model"
)

// jobOutcome is everything about a finished job that must not depend on how
// the engine cut its sweeps into tasks.
type jobOutcome struct {
	results                  []uint64 // Float64bits per vertex
	iterations               int
	edges, vertices, entries int64
}

// TestEngineResultsIndependentOfSlicing runs two job mixes — batch_dense's
// four sum programs, and a min/max/filtered traversal mix — under every
// combination of worker count, task granularity and straggler splitting, and
// requires each job's per-vertex results, iteration count, edge count and
// sync entries to be bit-identical in all of them. Workers decide how the
// round's sweeps and pushes spread over the pool, and which rounds run
// inline; Workers and Balance decide which sweeps the virtual clock prices as
// split into ranges, and how many. None of that may reach a result. Under
// -race it is also the check that sweeps of different jobs share a partition
// safely, and that different jobs' pushes run side by side safely.
func TestEngineResultsIndependentOfSlicing(t *testing.T) {
	// 8192 edges per partition: a round weighs enough to run on the pool,
	// and one job's sweep enough to be priced as ranges.
	edges := gen.RMAT(77, 1024, 32768, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 1024, 4, false)
	mixes := map[string]func() []model.Program{
		"dense": func() []model.Program {
			return []model.Program{algo.NewPageRank(), algo.NewPPR(0), &algo.PageRank{Damping: 0.7, Epsilon: 1e-3}, algo.NewHITS()}
		},
		"traversal": func() []model.Program {
			return []model.Program{algo.NewBFS(0), algo.NewSSSP(0), algo.NewSSWP(0), algo.NewSCC()}
		},
	}
	for name, mix := range mixes {
		t.Run(name, func(t *testing.T) {
			var want []jobOutcome
			var wantCell string
			makespans := map[float64]bool{}
			var steals int64
			for _, workers := range []int{1, 2, 4} {
				for _, balance := range []float64{1, 4} {
					for _, noSplit := range []bool{false, true} {
						cell := fmt.Sprintf("workers=%d balance=%v split=%v", workers, balance, !noSplit)
						b := balance
						if noSplit {
							// At or below 1/Workers every sweep stays whole.
							b = 1 / float64(workers)
						}
						e := NewSingle(Config{Workers: workers, Balance: b}, pg)
						progs := mix()
						for _, p := range progs {
							e.Submit(p, 0)
						}
						rep, err := e.Run()
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						makespans[rep.Makespan] = true
						if workers > 1 {
							steals += e.ExecStats().Steals
						}
						got := make([]jobOutcome, len(progs))
						for id := range progs {
							res, err := e.Results(id)
							if err != nil {
								t.Fatalf("%s: %v", cell, err)
							}
							for _, jm := range rep.Jobs {
								if jm.JobID == id {
									got[id] = jobOutcome{iterations: jm.Iterations, edges: jm.Edges, vertices: jm.Vertices, entries: jm.SyncEntries}
								}
							}
							for _, r := range res {
								got[id].results = append(got[id].results, math.Float64bits(r))
							}
						}
						if want == nil {
							want, wantCell = got, cell
							continue
						}
						for id := range got {
							g, w := got[id], want[id]
							if g.iterations != w.iterations || g.edges != w.edges || g.vertices != w.vertices || g.entries != w.entries {
								t.Errorf("%s job %d: {it %d edges %d vertices %d sync %d}, at %s {%d %d %d %d}", cell, id,
									g.iterations, g.edges, g.vertices, g.entries, wantCell, w.iterations, w.edges, w.vertices, w.entries)
							}
							for v := range w.results {
								if g.results[v] != w.results[v] {
									t.Fatalf("%s job %d vertex %d: %v, at %s %v", cell, id, v,
										math.Float64frombits(g.results[v]), wantCell, math.Float64frombits(w.results[v]))
								}
							}
						}
					}
				}
			}
			if len(makespans) < 3 {
				t.Fatalf("setup: only %d distinct makespans over 12 cells; the cells did not price the split differently", len(makespans))
			}
			if steals == 0 {
				t.Fatal("setup: no multi-worker cell stole a task; the pool never rebalanced a round")
			}
		})
	}
}

// TestImbalanceCountsDispatchedRuns: a round's imbalance is the work-weighted
// balance of the pool runs that went to more than one worker. An inline run
// puts its whole weight on one worker by construction; counting it (and
// keeping the maximum over runs, as the engine once did) pinned
// ExecStats.LastImbalance at Workers.
func TestImbalanceCountsDispatchedRuns(t *testing.T) {
	task := func(w int64) pool.Task { return pool.Task{Weight: w, Run: func(int) {}} }
	p := pool.New(2)
	inline := pool.Inline([]pool.Task{task(1000), task(1000)})
	if inline.Workers != 1 || inline.MaxWorkerWeight != 2000 {
		t.Fatalf("setup: inline run reported %+v", inline)
	}
	two := p.Run([]pool.Task{task(300), task(100)})
	if two.Workers != 2 || two.MaxWorkerWeight < 300 {
		t.Fatalf("setup: two-worker run reported %+v", two)
	}

	var imb imbalance
	imb.add(inline)
	if got := imb.factor(2); got != 1 {
		t.Fatalf("a round with only an inline run has imbalance %v, want 1", got)
	}
	imb.add(two)
	imb.add(inline)
	if got, want := imb.factor(2), two.Imbalance(2); got != want || got < 1.5 {
		t.Fatalf("inline + two-worker run: imbalance %v, want the two-worker run's own %v", got, want)
	}
	// A second dispatched run weighs in by its work, not as a maximum.
	even := p.Run([]pool.Task{task(600), task(600)})
	imb.add(even)
	want := float64(two.MaxWorkerWeight+even.MaxWorkerWeight) * 2 / float64(400+1200)
	if got := imb.factor(2); got != want {
		t.Fatalf("two dispatched runs: imbalance %v, want %v", got, want)
	}

	// End to end: a graph so small that every trigger batch runs inline.
	edges := gen.RMAT(5, 64, 256, 0.57, 0.19, 0.19)
	e := NewSingle(Config{Workers: 2}, buildPG(t, edges, 64, 4, false))
	e.Submit(algo.NewPageRank(), 0)
	e.Submit(algo.NewBFS(0), 0)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if es := e.ExecStats(); es.LastImbalance != 1 || es.Tasks == 0 {
		t.Fatalf("all-inline run: LastImbalance %v over %d tasks, want 1", es.LastImbalance, es.Tasks)
	}
	e = NewSingle(Config{Workers: 2}, buildPG(t, edges, 64, 4, false))
	e.Submit(algo.NewPageRank(), 0)
	e.admitPending()
	plan, byID, _ := e.planRound()
	if !e.build(plan, byID) {
		t.Fatal("a round of a few hundred edges is not light")
	}
}
