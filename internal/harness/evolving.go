package harness

import (
	"fmt"

	"cgraph/internal/baseline"
	"cgraph/internal/core"
	"cgraph/internal/gen"
	"cgraph/internal/metrics"
)

// evolvingDataset is the §4.4 workload graph. The paper uses hyperlink14;
// the snapshot series multiplies the structure footprint, so the stand-in
// keeps runs tractable while preserving the memory-pressure regime.
func evolvingDataset(opt Options) (gen.Dataset, error) {
	return gen.StandIn("hyperlink14-sim", opt.Scale)
}

// evolvingRun executes n jobs, job i bound to snapshot i of a series with
// the given change ratio, on one system.
func evolvingRun(opt Options, env *Env, sys string, njobs int, ratio float64) (*metrics.RunReport, error) {
	store, err := env.SnapshotSeries(njobs, ratio)
	if err != nil {
		return nil, err
	}
	w := workload{jobs: njobs, eps: opt.Epsilon, snapshots: true}
	if sys == "CGraph" {
		return env.runCGraph(store, w, core.Config{})
	}
	return env.runBaseline(baseline.System(sys), store, w, 0)
}

// evolvingSystems is the §4.4 comparison set.
var evolvingSystems = []string{"Seraph-VT", "Seraph", "CGraph"}

// Fig16 regenerates Figure 16: total execution time of eight jobs over
// snapshot series with change ratios 0.005%–5%, normalized to Seraph-VT at
// 0.005%.
func Fig16(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	d, err := evolvingDataset(opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig16",
		Title:   "Execution time of eight jobs on hyperlink14 with changes (normalized to Seraph-VT @0.005%)",
		Columns: []string{"Changed edges", "Seraph-VT", "Seraph", "CGraph"},
	}
	var base float64
	for _, ratio := range []float64{0.00005, 0.0005, 0.005, 0.05} {
		opt.logf("fig16: ratio %.3f%%", ratio*100)
		row := []string{fmt.Sprintf("%.3f%%", ratio*100)}
		for _, sys := range evolvingSystems {
			env := NewEnv(d, opt.Workers, opt.Scale)
			rep, err := evolvingRun(opt, env, sys, 8, ratio)
			if err != nil {
				return nil, err
			}
			if base == 0 {
				base = rep.Makespan
			}
			row = append(row, f2(rep.Makespan/base))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// evolvingGrid runs the 1/2/4/8-job snapshot workload (5% change between
// snapshots) for Figures 17–19 and returns reports keyed by system and job
// count, plus the sequential-Seraph reference per job count (Fig. 19's
// normalization base).
func evolvingGrid(opt Options) (map[string]map[int]*metrics.RunReport, map[int]*metrics.RunReport, error) {
	d, err := evolvingDataset(opt)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]map[int]*metrics.RunReport)
	seq := make(map[int]*metrics.RunReport)
	for _, njobs := range []int{1, 2, 4, 8} {
		opt.logf("fig17-19: %d jobs", njobs)
		for _, sys := range evolvingSystems {
			env := NewEnv(d, opt.Workers, opt.Scale)
			rep, err := evolvingRun(opt, env, sys, njobs, 0.05)
			if err != nil {
				return nil, nil, err
			}
			if out[sys] == nil {
				out[sys] = make(map[int]*metrics.RunReport)
			}
			out[sys][njobs] = rep
		}
		env := NewEnv(d, opt.Workers, opt.Scale)
		store, err := env.SnapshotSeries(njobs, 0.05)
		if err != nil {
			return nil, nil, err
		}
		rep, err := env.runBaseline(baseline.Sequential, store, workload{jobs: njobs, eps: opt.Epsilon, snapshots: true}, 0)
		if err != nil {
			return nil, nil, err
		}
		seq[njobs] = rep
	}
	return out, seq, nil
}

// Fig17 regenerates Figure 17: the average execution-time breakdown as the
// number of jobs grows, on snapshots with 5% change.
func Fig17(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	grid, _, err := evolvingGrid(opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig17",
		Title:   "Execution time breakdown on hyperlink14 snapshots (%)",
		Columns: []string{"Jobs", "System", "Data access %", "Vertex processing %"},
	}
	for _, njobs := range []int{1, 2, 4, 8} {
		for _, sys := range evolvingSystems {
			access, compute := grid[sys][njobs].AccessComputeBreakdown()
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", njobs), sys, f1(access), f1(compute),
			})
		}
	}
	return t, nil
}

// Fig18 regenerates Figure 18: LLC miss rate vs number of jobs on the
// snapshot workload.
func Fig18(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	grid, _, err := evolvingGrid(opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig18",
		Title:   "Last-level cache miss rate on hyperlink14 snapshots (%)",
		Columns: []string{"Jobs", "Seraph-VT", "Seraph", "CGraph"},
	}
	for _, njobs := range []int{1, 2, 4, 8} {
		row := []string{fmt.Sprintf("%d", njobs)}
		for _, sys := range evolvingSystems {
			row = append(row, f1(grid[sys][njobs].Counters.MissRate()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig19 regenerates Figure 19: the ratio of total accessed data (disk→memory
// plus memory→cache) spared versus executing the jobs sequentially over
// Seraph.
func Fig19(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	grid, seq, err := evolvingGrid(opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig19",
		Title:   "Ratio of spared accessed data vs sequential Seraph (%)",
		Columns: []string{"Jobs", "Seraph-VT", "Seraph", "CGraph"},
	}
	for _, njobs := range []int{1, 2, 4, 8} {
		base := float64(seq[njobs].Counters.TotalAccessedBytes())
		row := []string{fmt.Sprintf("%d", njobs)}
		for _, sys := range evolvingSystems {
			got := float64(grid[sys][njobs].Counters.TotalAccessedBytes())
			row = append(row, f1(100*(1-got/base)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
