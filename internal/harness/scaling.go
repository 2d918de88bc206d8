package harness

import (
	"fmt"

	"cgraph/internal/core"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/sched"
)

// scalingSeed and the Zipf shape below define the skewed power-law
// workload of the scaling sweep: a handful of hub vertices carry a large
// share of all edges, the regime where an executor that cannot split a
// hub's sweep parks it on one worker.
const (
	scalingSeed     = 42
	scalingVertices = 20000
	scalingEdges    = 300000
	scalingZipfS    = 1.2
)

// BenchScalingPoint is one simulated-core count of the sweep: the 4-job
// workload on the work-stealing degree-weighted executor, reported in
// simulated makespan (the repo's standard currency — wall clock on a
// shared CI box is noise).
type BenchScalingPoint struct {
	// Workers is the simulated core count of this point.
	Workers int `json:"workers"`
	// StealMakespanUS is the virtual total execution time of the run.
	StealMakespanUS float64 `json:"steal_makespan_us"`
	// Speedup is the 1-core makespan over this point's (>1 = more cores
	// pay).
	Speedup float64 `json:"speedup"`
	// Steals / Stolen are the pool's cumulative steal operations and
	// moved tasks.
	Steals int64 `json:"steals"`
	Stolen int64 `json:"stolen"`
	// Tasks counts pool tasks executed.
	Tasks int64 `json:"tasks"`
	// SkippedPartitions is the cumulative count of converged
	// (job, partition) pairs excluded before scheduling.
	SkippedPartitions int64 `json:"skipped_partitions"`
	// TailSkipped sums the skipped-partition counts over the last traced
	// rounds (the PageRank convergence tail), where frontiers go sparse.
	TailSkipped int64 `json:"tail_skipped"`
	// Imbalance is the work-weighted imbalance of the last round's pool
	// runs that were dispatched to more than one worker, ×Workers (1.0 when
	// none were).
	Imbalance float64 `json:"imbalance"`
}

// BenchScalingResult is the machine-readable artifact of the scaling
// sweep (written as BENCH_scaling.json).
type BenchScalingResult struct {
	Dataset  string  `json:"dataset"`
	Vertices int     `json:"vertices"`
	Edges    int     `json:"edges"`
	ZipfS    float64 `json:"zipf_s"`
	Jobs     int     `json:"jobs"`
	Balance  float64 `json:"balance"`
	MaxCores int     `json:"max_cores"`

	Points []BenchScalingPoint `json:"points"`
	// MaxSpeedup is the largest per-point speedup of the sweep.
	MaxSpeedup float64 `json:"max_speedup"`
}

// scalingEnv prepares the Zipf environment. Unlike the paper-regime
// experiments (cache ≪ graph, access-dominated — where the executor's
// compute time hides entirely behind partition loads), this sweep
// isolates the execution layer: the simulated hierarchy is sized to hold
// the whole graph, so the trigger phase's vertex processing is the
// bottleneck and the executor's scaling is what the makespan measures.
func scalingEnv(workers int, scale float64) *Env {
	edges := gen.Zipf(scalingSeed, scalingVertices, int(float64(scalingEdges)*scale), scalingZipfS)
	g := graph.Build(scalingVertices, edges)
	cost := ExperimentCost()
	// Weight edges the way the scaling question demands: the sweep asks
	// how the executor divides scatter work, so scatter work must be the
	// dominant term rather than hiding behind the (serial) load stream.
	cost.EdgeCost *= 10
	e := &Env{
		Dataset: gen.Dataset{
			Name:        "zipf-powerlaw",
			NumVertices: scalingVertices,
			NumEdges:    len(edges),
			Seed:        scalingSeed,
		},
		Edges:       edges,
		G:           g,
		Workers:     workers,
		CacheBytes:  16 << 20,
		MemoryBytes: 128 << 20,
		Cost:        cost,
		// Enough partitions that frontiers converge region by region (the
		// skip metric needs granularity), independent of the cache size.
		NumPartitions: 4 * workers,
	}
	if e.NumPartitions < 16 {
		e.NumPartitions = 16
	}
	return e
}

// scalingLeg runs the 4-job workload once at the given simulated core
// count and returns the engine (virtual time is deterministic, so a
// single run is exact — there is no wall-clock noise to best-of away).
func (e *Env) scalingLeg(o Options, workers int) (*core.Engine, float64, error) {
	store, err := e.Store(false)
	if err != nil {
		return nil, 0, err
	}
	eng := core.New(core.Config{
		Workers:    workers,
		Hier:       e.Hier(),
		Scheduler:  sched.Priority,
		Label:      "CGraph",
		TraceDepth: 256,
	}, store)
	for _, s := range benchmarks(4, o.Epsilon, func(int) int64 { return 0 }) {
		eng.Submit(s.Prog, s.Arrival)
	}
	rep, err := eng.Run()
	if err != nil {
		return nil, 0, err
	}
	return eng, rep.Makespan, nil
}

// BenchScaling sweeps simulated core counts 1, 2, 4, … maxCores over the
// skewed power-law workload on the work-stealing degree-weighted executor.
// Each point's speedup is the 1-core makespan over its own: the executor
// divides edge work evenly, splitting a hub-heavy straggler's sweep into
// ranges that idle cores steal.
func BenchScaling(opt Options, maxCores int) (*Table, *BenchScalingResult, error) {
	o := opt.withDefaults()
	if maxCores <= 0 {
		maxCores = o.Workers
	}
	env := scalingEnv(maxCores, o.Scale)

	res := &BenchScalingResult{
		Dataset:  env.Dataset.Name,
		Vertices: env.G.N,
		Edges:    len(env.Edges),
		ZipfS:    scalingZipfS,
		Jobs:     4,
		Balance:  4,
		MaxCores: maxCores,
	}

	var cores []int
	for w := 1; w < maxCores; w *= 2 {
		cores = append(cores, w)
	}
	cores = append(cores, maxCores)

	t := &Table{
		ID:      "bench-scaling",
		Title:   fmt.Sprintf("Work-stealing scaling on %s (V=%d, E=%d, s=%.1f)", env.Dataset.Name, env.G.N, len(env.Edges), scalingZipfS),
		Columns: []string{"Cores", "Makespan µs", "Speedup", "Steals", "Skipped", "Tail skipped", "Imbalance"},
		Notes:   "simulated makespan of the 4-job workload; speedup = 1-core makespan / this point's; tail skipped = converged (job,partition) pairs excluded over the last traced rounds",
	}

	var oneCore float64
	for _, w := range cores {
		o.logf("bench-scaling: %d cores", w)
		eng, steal, err := env.scalingLeg(o, w)
		if err != nil {
			return nil, nil, err
		}
		if w == 1 {
			oneCore = steal
		}

		es := eng.ExecStats()
		var tail int64
		rounds := eng.RoundTraces(0)
		lo := len(rounds) - 32
		if lo < 0 {
			lo = 0
		}
		for _, r := range rounds[lo:] {
			tail += r.Skipped
		}

		p := BenchScalingPoint{
			Workers:           w,
			StealMakespanUS:   steal,
			Steals:            es.Steals,
			Stolen:            es.Stolen,
			Tasks:             es.Tasks,
			SkippedPartitions: es.SkippedPartitions,
			TailSkipped:       tail,
			Imbalance:         es.LastImbalance,
		}
		if steal > 0 {
			p.Speedup = oneCore / steal
		}
		if p.Speedup > res.MaxSpeedup {
			res.MaxSpeedup = p.Speedup
		}
		res.Points = append(res.Points, p)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w), f2(steal), fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%d", p.Steals), fmt.Sprintf("%d", p.SkippedPartitions),
			fmt.Sprintf("%d", p.TailSkipped), f2(p.Imbalance),
		})
	}
	return t, res, nil
}
