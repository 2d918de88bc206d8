package harness

import (
	"fmt"

	"cgraph/internal/core"
	"cgraph/internal/gen"
	"cgraph/internal/sched"
)

// AblationStraggler measures the Fig. 6 straggler-splitting mechanism: the
// four-job workload with intra-partition work splitting on and off. Off is
// core.Config.Balance at 1/Workers, which leaves every sweep one whole task.
func AblationStraggler(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:      "ablation-straggler",
		Title:   "Straggler splitting ablation (makespan, split-off = 1.00)",
		Columns: []string{"Data set", "Split off", "Split on"},
		Notes:   "design choice of §3.2.3 / Fig. 6",
	}
	for _, d := range gen.StandIns(opt.Scale) {
		opt.logf("ablation-straggler: %s", d.Name)
		env := NewEnv(d, opt.Workers, opt.Scale)
		specs := benchmarks(4, opt.Epsilon, func(int) int64 { return 0 })
		run := func(balance float64) (float64, error) {
			store, err := env.Store(true)
			if err != nil {
				return 0, err
			}
			eng := core.New(core.Config{
				Workers:   opt.Workers,
				Hier:      env.Hier(),
				Scheduler: sched.Priority,
				Balance:   balance,
			}, store)
			for _, s := range specs {
				eng.Submit(s.Prog, s.Arrival)
			}
			rep, err := eng.Run()
			if err != nil {
				return 0, err
			}
			return rep.Makespan, nil
		}
		off, err := run(1 / float64(opt.Workers))
		if err != nil {
			return nil, err
		}
		on, err := run(0)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{d.Name, "1.00", f2(on / off)})
	}
	return t, nil
}

// AblationScheduler separates the two halves of §3.3: core-subgraph
// partitioning and Eq. 1 priority ordering, each toggled independently.
func AblationScheduler(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:      "ablation-scheduler",
		Title:   "Scheduler ablation (makespan, static+plain = 1.00)",
		Columns: []string{"Data set", "static+plain", "priority+plain", "static+core", "priority+core"},
		Notes:   "columns toggle Eq. 1 ordering and core-subgraph partitioning independently",
	}
	for _, d := range gen.StandIns(opt.Scale) {
		opt.logf("ablation-scheduler: %s", d.Name)
		env := NewEnv(d, opt.Workers, opt.Scale)
		specs := benchmarks(4, opt.Epsilon, func(int) int64 { return 0 })
		run := func(kind sched.Kind, coreSub bool) (float64, error) {
			store, err := env.Store(coreSub)
			if err != nil {
				return 0, err
			}
			rep, err := env.runCGraph(store, specs, kind, "CGraph", 0)
			if err != nil {
				return 0, err
			}
			return rep.Makespan, nil
		}
		base, err := run(sched.Static, false)
		if err != nil {
			return nil, err
		}
		row := []string{d.Name, "1.00"}
		for _, cfg := range []struct {
			kind sched.Kind
			core bool
		}{{sched.Priority, false}, {sched.Static, true}, {sched.Priority, true}} {
			m, err := run(cfg.kind, cfg.core)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(m/base))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationBatching sweeps the job count past the worker count to exercise
// the §3.2.3 batching path (|J| > N).
func AblationBatching(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	d, err := gen.StandIn("ukunion-sim", opt.Scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-batching",
		Title:   fmt.Sprintf("Jobs beyond workers (N=%d), makespan per job normalized to 4 jobs", opt.Workers),
		Columns: []string{"Jobs", "Makespan/job"},
	}
	env := NewEnv(d, opt.Workers, opt.Scale)
	var base float64
	for _, njobs := range []int{4, 8, 16, 32} {
		opt.logf("ablation-batching: %d jobs", njobs)
		store, err := env.Store(true)
		if err != nil {
			return nil, err
		}
		specs := benchmarks(njobs, opt.Epsilon, func(int) int64 { return 0 })
		rep, err := env.runCGraph(store, specs, sched.Priority, "CGraph", 0)
		if err != nil {
			return nil, err
		}
		perJob := rep.Makespan / float64(njobs)
		if base == 0 {
			base = perJob
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", njobs), f2(perJob / base)})
	}
	return t, nil
}

// AblationTwoLevel compares one-level scheduling (Eq. 1 over the union of
// every job's footprint) against the snapshot-aware two-level policy
// (correlation groups first, Eq. 1 within each group) on the §4.4
// multi-snapshot workload: job i binds to snapshot i of a series with 5%
// edge change between consecutive versions.
func AblationTwoLevel(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	d, err := evolvingDataset(opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-two-level",
		Title:   "Two-level scheduling on the multi-snapshot workload (makespan, one-level = 1.00)",
		Columns: []string{"Jobs", "one-level", "two-level"},
		Notes:   "job i bound to snapshot i (5% change per snapshot); two-level groups jobs by shared partition versions",
	}
	for _, njobs := range []int{2, 4, 8} {
		opt.logf("ablation-two-level: %d jobs", njobs)
		env := NewEnv(d, opt.Workers, opt.Scale)
		store, err := env.SnapshotSeries(njobs, 0.05)
		if err != nil {
			return nil, err
		}
		specs := benchmarks(njobs, opt.Epsilon, func(i int) int64 { return int64(i) })
		one, err := env.runCGraph(store, specs, sched.Priority, "CGraph", 0)
		if err != nil {
			return nil, err
		}
		two, err := env.runCGraph(store, specs, sched.TwoLevel, "CGraph-2L", 0)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", njobs), "1.00", f2(two.Makespan / one.Makespan),
		})
	}
	return t, nil
}
