package harness

import (
	"fmt"

	"cgraph/internal/baseline"
	"cgraph/internal/core"
	"cgraph/internal/gen"
	"cgraph/internal/metrics"
	"cgraph/internal/sched"
)

// Table1 regenerates Table 1: the dataset properties of the five stand-ins
// next to the paper's originals.
func Table1(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:      "table1",
		Title:   "Data set properties (stand-ins vs paper)",
		Columns: []string{"Data set", "Stands for", "Kind", "Vertices", "Edges", "Struct bytes", "Paper V", "Paper E"},
		Notes:   "stand-ins scaled ~1:40000 in edges with the paper's average degrees preserved",
	}
	paperV := map[string]string{"Twitter": "41.7 M", "Friendster": "65 M", "uk2007": "105.9 M", "uk-union": "133.6 M", "hyperlink14": "1.7 B"}
	paperE := map[string]string{"Twitter": "1.4 B", "Friendster": "1.8 B", "uk2007": "3.7 B", "uk-union": "5.5 B", "hyperlink14": "64.4 B"}
	for _, d := range gen.StandIns(opt.Scale) {
		env := NewEnv(d, opt.Workers, opt.Scale)
		pg, err := env.PG(false)
		if err != nil {
			return nil, err
		}
		kind := "social"
		if d.Kind == gen.WebGraph {
			kind = "web"
		}
		t.Rows = append(t.Rows, []string{
			d.Name, d.PaperName, kind,
			fmt.Sprintf("%d", d.NumVertices),
			fmt.Sprintf("%d", d.NumEdges),
			fmt.Sprintf("%d", pg.TotalStructBytes()),
			paperV[d.PaperName], paperE[d.PaperName],
		})
	}
	return t, nil
}

// Fig1 regenerates both panels of Figure 1 from the synthetic production
// trace: (a) concurrent CGP jobs per hour, (b) the ratio of active
// partitions shared by more than 1/2/4/8/16 jobs.
func Fig1(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	points, shares := gen.JobTrace(42, 160)
	a := &Table{
		ID:      "fig1a",
		Title:   "Number of CGP jobs over the trace",
		Columns: []string{"Hour", "Active jobs"},
	}
	for _, p := range points {
		a.Rows = append(a.Rows, []string{f1(p.Hour), fmt.Sprintf("%d", p.Active)})
	}
	b := &Table{
		ID:      "fig1b",
		Title:   "Ratio of the graph shared by # jobs (%)",
		Columns: []string{"Hour", ">1", ">2", ">4", ">8", ">16"},
	}
	for _, s := range shares {
		b.Rows = append(b.Rows, []string{
			f1(s.Hour), f1(s.MoreThan[1]), f1(s.MoreThan[2]), f1(s.MoreThan[4]), f1(s.MoreThan[8]), f1(s.MoreThan[16]),
		})
	}
	return []*Table{a, b}, nil
}

// Fig2 regenerates Figure 2: per-job average execution time (a) and data
// access time (b) on Seraph as the number of concurrent instances of each
// benchmark grows from 1 to 8, normalized against the single-instance run.
func Fig2(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	d, err := gen.StandIn("ukunion-sim", opt.Scale)
	if err != nil {
		return nil, err
	}
	env := NewEnv(d, opt.Workers, opt.Scale)
	a := &Table{
		ID:      "fig2a",
		Title:   "Normalized per-job execution time on Seraph vs #jobs (uk-union)",
		Columns: []string{"Benchmark", "1", "2", "4", "8"},
	}
	b := &Table{
		ID:      "fig2b",
		Title:   "Normalized per-job data access time on Seraph vs #jobs (uk-union)",
		Columns: []string{"Benchmark", "1", "2", "4", "8"},
	}
	for bench := 0; bench < 4; bench++ {
		name := [4]string{"PageRank", "SSSP", "SCC", "BFS"}[bench]
		opt.logf("fig2: %s", name)
		var base, baseAcc float64
		rowA := []string{name}
		rowB := []string{name}
		for _, k := range []int{1, 2, 4, 8} {
			store, err := env.Store(false)
			if err != nil {
				return nil, err
			}
			// k concurrent instances of this benchmark type.
			rep, err := env.runBaseline(baseline.Seraph, store, workload{jobs: k, eps: opt.Epsilon, mix: []int{bench}}, 0)
			if err != nil {
				return nil, err
			}
			avg, acc := rep.AvgExecTime(), rep.AvgAccessTime()
			if k == 1 {
				base, baseAcc = avg, acc
			}
			rowA = append(rowA, f2(avg/base))
			rowB = append(rowB, f2(acc/baseAcc))
		}
		a.Rows = append(a.Rows, rowA)
		b.Rows = append(b.Rows, rowB)
	}
	return []*Table{a, b}, nil
}

// Fig8 regenerates Figure 8: total execution time of the four jobs with and
// without the core-subgraph scheduler, as a percentage of CGraph-without.
func Fig8(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:      "fig8",
		Title:   "Execution time with/without the scheduler (% of CGraph-without)",
		Columns: []string{"Data set", "CGraph-without", "CGraph"},
	}
	for _, d := range gen.StandIns(opt.Scale) {
		opt.logf("fig8: %s", d.Name)
		env := NewEnv(d, opt.Workers, opt.Scale)
		plain, err := env.Store(false)
		if err != nil {
			return nil, err
		}
		without, err := env.runCGraph(plain, paperMix(4, opt.Epsilon), core.Config{Scheduler: sched.Static, Label: "CGraph-without"})
		if err != nil {
			return nil, err
		}
		coreStore, err := env.Store(true)
		if err != nil {
			return nil, err
		}
		with, err := env.runCGraph(coreStore, paperMix(4, opt.Epsilon), core.Config{})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			d.Name, "100.0", f1(100 * with.Makespan / without.Makespan),
		})
	}
	return t, nil
}

// Fig9 regenerates Figure 9: total execution time of the four jobs on each
// system, normalized to CLIP.
func Fig9(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:      "fig9",
		Title:   "Total execution time for the four jobs (normalized to CLIP)",
		Columns: []string{"Data set", "CLIP", "NXgraph", "Seraph", "CGraph"},
	}
	for _, d := range gen.StandIns(opt.Scale) {
		opt.logf("fig9: %s", d.Name)
		env := NewEnv(d, opt.Workers, opt.Scale)
		reps, err := env.fourJobRun(opt.Epsilon)
		if err != nil {
			return nil, err
		}
		base := reps["CLIP"].Makespan
		t.Rows = append(t.Rows, []string{
			d.Name,
			f2(reps["CLIP"].Makespan / base),
			f2(reps["NXgraph"].Makespan / base),
			f2(reps["Seraph"].Makespan / base),
			f2(reps["CGraph"].Makespan / base),
		})
	}
	return t, nil
}

// Fig10 regenerates Figure 10: the execution-time breakdown (data access vs
// vertex processing, %) of each job on hyperlink14 under each system.
func Fig10(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	d, err := gen.StandIn("hyperlink14-sim", opt.Scale)
	if err != nil {
		return nil, err
	}
	env := NewEnv(d, opt.Workers, opt.Scale)
	reps, err := env.fourJobRun(opt.Epsilon)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig10",
		Title:   "Execution time breakdown per job on hyperlink14 (%)",
		Columns: []string{"System", "Job", "Data access %", "Vertex processing %"},
	}
	for _, sys := range []string{"CLIP", "NXgraph", "Seraph", "CGraph"} {
		for _, j := range reps[sys].Jobs {
			ratio := j.AccessRatio()
			t.Rows = append(t.Rows, []string{
				sys, j.Name, f1(100 * ratio), f1(100 * (1 - ratio)),
			})
		}
	}
	return t, nil
}

// Fig11 regenerates Figure 11: last-level cache miss rate of the four jobs
// under each system and dataset.
func Fig11(opt Options) (*Table, error) {
	return cacheStat(opt, "fig11", "Last-level cache miss rate (%)", func(r *runSet) string {
		return f1(r.rep.Counters.MissRate())
	})
}

// Fig12 regenerates Figure 12: volume of data swapped into the cache,
// normalized to CLIP.
func Fig12(opt Options) (*Table, error) {
	return cacheStat(opt, "fig12", "Volume of data swapped into the cache (normalized to CLIP)", func(r *runSet) string {
		return f2(float64(r.rep.Counters.BytesIntoCache) / float64(r.clipVolume))
	})
}

// Fig13 regenerates Figure 13: disk I/O overhead, normalized to CLIP. For
// datasets that fit the simulated memory only the one-time cold load
// remains, which is why CGraph and Seraph report near-zero values on the
// first graphs, as in the paper.
func Fig13(opt Options) (*Table, error) {
	return cacheStat(opt, "fig13", "I/O overhead (normalized to CLIP)", func(r *runSet) string {
		if r.clipDisk == 0 {
			return "0.00"
		}
		return f2(float64(r.rep.Counters.BytesFromDisk) / float64(r.clipDisk))
	})
}

// Fig15 regenerates Figure 15: CPU utilization of the vertex processing.
func Fig15(opt Options) (*Table, error) {
	return cacheStat(opt, "fig15", "Utilization ratio of CPU (%)", func(r *runSet) string {
		return f1(r.rep.CPUUtilization())
	})
}

type runSet struct {
	rep        *metrics.RunReport
	clipVolume int64
	clipDisk   int64
}

// cacheStat runs the 4-system × 5-dataset grid once per figure and formats
// one counter per cell.
func cacheStat(opt Options, id, title string, cell func(*runSet) string) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"Data set", "CLIP", "NXgraph", "Seraph", "CGraph"},
	}
	for _, d := range gen.StandIns(opt.Scale) {
		opt.logf("%s: %s", id, d.Name)
		env := NewEnv(d, opt.Workers, opt.Scale)
		reps, err := env.fourJobRun(opt.Epsilon)
		if err != nil {
			return nil, err
		}
		clip := reps["CLIP"]
		row := []string{d.Name}
		for _, sys := range []string{"CLIP", "NXgraph", "Seraph", "CGraph"} {
			row = append(row, cell(&runSet{
				rep:        reps[sys],
				clipVolume: clip.Counters.BytesIntoCache,
				clipDisk:   clip.Counters.BytesFromDisk,
			}))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig14 regenerates Figure 14: scalability of the four jobs on hyperlink14
// as workers grow 1→32, normalized to CLIP at 1 worker.
func Fig14(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	d, err := gen.StandIn("hyperlink14-sim", opt.Scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig14",
		Title:   "Scalability on hyperlink14 (normalized to CLIP at 1 worker)",
		Columns: []string{"Workers", "CLIP", "NXgraph", "Seraph", "CGraph"},
	}
	// Partitioning is fixed at the default worker count; only the engines'
	// core counts vary, isolating compute scaling as the paper does.
	env := NewEnv(d, opt.Workers, opt.Scale)
	var base float64
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		opt.logf("fig14: %d workers", w)
		row := []string{fmt.Sprintf("%d", w)}
		for _, sys := range []baseline.System{baseline.CLIP, baseline.NXgraph, baseline.Seraph} {
			store, err := env.Store(false)
			if err != nil {
				return nil, err
			}
			rep, err := env.runBaseline(sys, store, paperMix(4, opt.Epsilon), w)
			if err != nil {
				return nil, err
			}
			if sys == baseline.CLIP && w == 1 {
				base = rep.Makespan
			}
			row = append(row, f2(rep.Makespan/base))
		}
		store, err := env.Store(true)
		if err != nil {
			return nil, err
		}
		rep, err := env.runCGraph(store, paperMix(4, opt.Epsilon), core.Config{Workers: w})
		if err != nil {
			return nil, err
		}
		row = append(row, f2(rep.Makespan/base))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
