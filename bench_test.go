// Benchmarks regenerating every table and figure of the paper's evaluation
// (one sub-benchmark per artifact, backed by internal/harness) plus
// micro-benchmarks of the core mechanisms. The experiment scale defaults to
// 0.25 to keep `go test -bench=.` tractable; set CGRAPH_BENCH_SCALE=1.0 for
// the full reproduction scale.
package cgraph

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"cgraph/algo"
	"cgraph/internal/exec"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/harness"
	"cgraph/internal/memsim"
	"cgraph/internal/pool"
	"cgraph/internal/sched"
)

func benchOpts() harness.Options {
	scale := 0.25
	if s := os.Getenv("CGRAPH_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			scale = v
		}
	}
	return harness.Options{Scale: scale, Workers: 8, Epsilon: 1e-3}
}

// BenchmarkExperiments regenerates every table and figure of the paper's
// evaluation and every ablation, one sub-benchmark per harness.Experiments
// entry (e.g. -bench 'Experiments/fig14').
func BenchmarkExperiments(b *testing.B) {
	opt := benchOpts()
	for _, x := range harness.Experiments {
		b.Run(x.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := x.Run(opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Micro-benchmarks of the core mechanisms.

func microGraph(b *testing.B) ([]Edge, *graph.Graph) {
	b.Helper()
	edges := gen.RMAT(77, 4000, 120000, 0.57, 0.19, 0.19)
	return edges, graph.Build(4000, edges)
}

func BenchmarkVertexCutPartition(b *testing.B) {
	edges, g := microGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Cut(g, edges, graph.Options{NumPartitions: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreSubgraphPartition(b *testing.B) {
	edges, g := microGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Cut(g, edges, graph.Options{NumPartitions: 32, CoreSubgraph: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriggerIteration(b *testing.B) {
	// One full apply+scatter sweep over all partitions (Algorithm 1).
	edges, g := microGraph(b)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: 32})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := exec.NewJob(0, algo.NewPageRank(), pg)
		sc := &exec.Scratch{}
		for pid := range pg.Parts {
			j.ProcessPartition(pid, sc)
		}
	}
	b.SetBytes(int64(len(edges)) * 16)
}

// heapBytes reads the cumulative bytes allocated, for the per-layer B/…
// metrics below (the benchmark/ legs' exec.*_b_per_* and push_kb_per_iter).
func heapBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// BenchmarkPushSync times Algorithm 2 at every iteration close of a whole
// PageRank run (the sweeps between closes are untimed) and reports what
// benchmark/ calls exec.push_ns_per_entry and exec.push_kb_per_iter.
func BenchmarkPushSync(b *testing.B) {
	edges, g := microGraph(b)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: 32})
	if err != nil {
		b.Fatal(err)
	}
	var push time.Duration
	var entries, iters int64
	var bytes uint64
	sc := &exec.Scratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		j := exec.NewJob(0, algo.NewPageRank(), pg)
		for !j.Done {
			for pid := range pg.Parts {
				if j.PT.ActiveCount[pid] > 0 {
					j.ProcessPartition(pid, sc)
				}
			}
			b0 := heapBytes()
			b.StartTimer()
			t0 := time.Now()
			entries += j.FinishIteration().Entries
			push += time.Since(t0)
			b.StopTimer()
			bytes += heapBytes() - b0
			iters++
		}
	}
	b.ReportMetric(float64(push.Nanoseconds())/float64(entries), "ns/entry")
	b.ReportMetric(float64(bytes)/float64(iters), "B/iter")
}

// BenchmarkApplyRange sweeps every partition of a first PageRank iteration
// the way the engine's trigger does — the frontier sliced into weighted
// ranges, one scratch per range — with the scratches either fresh per range
// (what benchmark/'s exec leg replays) or recycled by task position (what
// the engine does), and reports exec.apply_ns_per_edge / apply_b_per_edge.
func BenchmarkApplyRange(b *testing.B) {
	edges, g := microGraph(b)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: 32})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"fresh", "recycled"} {
		b.Run(mode, func(b *testing.B) {
			var slab []*exec.Scratch
			var ranges []exec.Range
			var apply time.Duration
			var edgesDone int64
			var bytes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				j := exec.NewJob(0, algo.NewPageRank(), pg)
				for pid := range pg.Parts {
					ranges = j.SliceActive(pid, j.ActiveWeight(pid)/8+1, ranges[:0])
					for len(slab) < len(ranges) {
						slab = append(slab, &exec.Scratch{})
					}
					b0 := heapBytes()
					b.StartTimer()
					t0 := time.Now()
					for k, r := range ranges {
						sc := slab[k]
						if mode == "fresh" {
							sc = &exec.Scratch{}
						}
						sc.Reset()
						edgesDone += j.ApplyRange(pid, r, sc).Edges
					}
					apply += time.Since(t0)
					b.StopTimer()
					bytes += heapBytes() - b0
				}
			}
			b.ReportMetric(float64(apply.Nanoseconds())/float64(edgesDone), "ns/edge")
			b.ReportMetric(float64(bytes)/float64(edgesDone), "B/edge")
		})
	}
}

// BenchmarkSweep sweeps every partition of a first PageRank iteration the way
// the engine's trigger does when no job is a straggler — one Sweep per
// partition, scratch recycled — with the program's Algebra declared (the
// arithmetic in line) and hidden behind a wrapper (Acc and Contribution
// called through the interface per edge), in BenchmarkApplyRange's units.
func BenchmarkSweep(b *testing.B) {
	edges, g := microGraph(b)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: 32})
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		prog func() Program
	}{
		{"declared", func() Program { return algo.NewPageRank() }},
		{"interface", func() Program { return struct{ Program }{algo.NewPageRank()} }},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			sc := &exec.Scratch{}
			var sweep time.Duration
			var edgesDone int64
			var bytes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				j := exec.NewJob(0, mode.prog(), pg)
				if i == 0 {
					// Size the scratch outside the measurement, as the
					// engine's first round does.
					warm := exec.NewJob(0, mode.prog(), pg)
					for pid := range pg.Parts {
						warm.Sweep(pid, sc)
					}
				}
				b0 := heapBytes()
				b.StartTimer()
				t0 := time.Now()
				for pid := range pg.Parts {
					edgesDone += j.Sweep(pid, sc).Edges
				}
				sweep += time.Since(t0)
				b.StopTimer()
				bytes += heapBytes() - b0
			}
			b.ReportMetric(float64(sweep.Nanoseconds())/float64(edgesDone), "ns/edge")
			b.ReportMetric(float64(bytes)/float64(edgesDone), "B/edge")
		})
	}
}

// BenchmarkPoolRun dispatches no-op tasks shaped like one dense trigger
// batch (a few heavy ranges, many light ones) through a two-worker pool:
// benchmark/'s pool.dispatch_ns_per_task, plus the allocations a run costs.
func BenchmarkPoolRun(b *testing.B) {
	tasks := make([]pool.Task, 16)
	for i := range tasks {
		tasks[i] = pool.Task{Weight: int64(math.Pow(2, float64(i%5))) * 512, Run: func(int) {}}
	}
	p := pool.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(tasks)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tasks)), "ns/task")
}

func BenchmarkEndToEndFourJobs(b *testing.B) {
	// Full CGraph runs of the 4-job workload on a mid-size graph.
	edges, _ := microGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := NewSystem(WithWorkers(8), WithPartitions(32))
		if err := sys.LoadEdges(4000, edges); err != nil {
			b.Fatal(err)
		}
		sys.Submit(algo.NewPageRank())
		sys.Submit(algo.NewSSSP(0))
		sys.Submit(algo.NewSCC())
		sys.Submit(algo.NewBFS(0))
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheLoadHit(b *testing.B) {
	h := memsim.New(memsim.Config{CacheBytes: 1 << 20, Cost: memsim.DefaultCost()})
	id := memsim.ItemID{Kind: memsim.Struct, UID: 1, Job: -1}
	h.Load(id, 4096, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(id, 4096, false)
	}
}

func BenchmarkCacheLoadEvict(b *testing.B) {
	h := memsim.New(memsim.Config{CacheBytes: 64 << 10, Cost: memsim.DefaultCost()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := memsim.ItemID{Kind: memsim.Struct, UID: int64(i % 64), Job: -1}
		h.Load(id, 4096, false)
	}
}

func BenchmarkSchedulerPlan(b *testing.B) {
	edges, g := microGraph(b)
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: 128})
	if err != nil {
		b.Fatal(err)
	}
	s := sched.New(sched.Priority)
	s.ObserveSnapshot(pg)
	// Eight jobs with staggered 32-partition footprints.
	var foot []sched.JobFootprint
	for j := 0; j < 8; j++ {
		jf := sched.JobFootprint{JobID: j}
		for i := 0; i < 32; i++ {
			jf.Units = append(jf.Units, pg.Parts[(j*16+i)%128])
		}
		foot = append(foot, jf)
	}
	c := make(map[int64]float64, 128)
	for i, p := range pg.Parts {
		c[p.UID] = float64(i%13) * 0.7
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Plan(foot, c)
	}
}
