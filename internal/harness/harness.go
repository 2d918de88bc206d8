// Package harness regenerates every table and figure of the paper's
// evaluation (§4) on the reproduction substrate: it sizes a simulated
// memory hierarchy per dataset, runs the CGraph engine and the baseline
// systems over the benchmark workloads, and renders the same rows and
// series the paper reports. Each FigNN function maps one-to-one to the
// paper's figure of that number; Experiments is the index.
package harness

import (
	"fmt"
	"io"
	"strings"

	"cgraph/algo"
	"cgraph/internal/baseline"
	"cgraph/internal/core"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/memsim"
	"cgraph/internal/metrics"
	"cgraph/internal/storage"
	"cgraph/model"
)

// Options size the experiments.
type Options struct {
	// Scale multiplies the stand-in dataset sizes (default 1.0).
	Scale float64
	// Workers is the simulated core count (default 8; Fig. 14 sweeps it).
	Workers int
	// Epsilon is the PageRank convergence threshold (default 1e-3).
	Epsilon float64
	// Verbose streams progress lines to Log.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-3
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Experiment is one entry of the evaluation index: the name cgraph-bench
// takes on its command line and the function regenerating its tables.
type Experiment struct {
	Name string
	Run  func(Options) ([]*Table, error)
}

// one adapts a single-table experiment to Experiment.Run.
func one(fn func(Options) (*Table, error)) func(Options) ([]*Table, error) {
	return func(opt Options) ([]*Table, error) {
		t, err := fn(opt)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// Experiments is the evaluation index, in paper order.
var Experiments = []Experiment{
	{"table1", one(Table1)}, {"fig1", Fig1}, {"fig2", Fig2},
	{"fig8", one(Fig8)}, {"fig9", one(Fig9)}, {"fig10", one(Fig10)},
	{"fig11", one(Fig11)}, {"fig12", one(Fig12)}, {"fig13", one(Fig13)},
	{"fig14", one(Fig14)}, {"fig15", one(Fig15)}, {"fig16", one(Fig16)},
	{"fig17", one(Fig17)}, {"fig18", one(Fig18)}, {"fig19", one(Fig19)},
	{"ablation-straggler", one(AblationStraggler)},
	{"ablation-scheduler", one(AblationScheduler)},
	{"ablation-batching", one(AblationBatching)},
}

// Lookup returns the experiment registered under name (case-insensitive);
// the error for an unknown name lists the valid ones.
func Lookup(name string) (Experiment, error) {
	names := make([]string, len(Experiments))
	for i, x := range Experiments {
		if strings.EqualFold(x.Name, name) {
			return x, nil
		}
		names[i] = x.Name
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(names, ", "))
}

// All runs every experiment at the given options, in paper order.
func All(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	var out []*Table
	for _, x := range Experiments {
		ts, err := x.Run(opt)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// ExperimentCost is the cost model calibrated for the reproduction's
// experiment regime: with the default scale and four concurrent jobs,
// baseline executions are access-dominated while CGraph's shared loading
// turns the balance toward vertex processing — the Fig. 10 regime.
func ExperimentCost() memsim.CostModel {
	return memsim.CostModel{
		MemBandwidth:   2000,
		MemLatency:     1,
		DiskBandwidth:  100,
		DiskLatency:    200,
		EdgeCost:       0.05,
		VertexCost:     0.02,
		SyncEntryCost:  0.05,
		ChannelStreams: 1.6,
	}
}

// Env is one dataset prepared for experiments: generated edges, the global
// CSR, and the memory-hierarchy sizing derived from the dataset the way the
// paper's testbed relates its LLC, DRAM and graphs.
type Env struct {
	Dataset       gen.Dataset
	Edges         []model.Edge
	G             *graph.Graph
	Workers       int
	CacheBytes    int64
	MemoryBytes   int64
	NumPartitions int
	Cost          memsim.CostModel
}

// envCacheBytes is the simulated LLC (the paper's 20 MB scaled to the
// stand-ins) and envMemFraction relates simulated DRAM to it (the paper's
// 64 GB holds all datasets except hyperlink14).
const (
	envCacheBytes = 256 << 10
	envMemBytes   = 3 << 20
)

// NewEnv prepares a dataset environment. The simulated cache and memory
// scale with the dataset scale factor, keeping the paper's pressure ratios
// (cache ≪ graph; memory holds every dataset except hyperlink14).
func NewEnv(d gen.Dataset, workers int, scale float64) *Env {
	if scale <= 0 {
		scale = 1
	}
	edges := d.Generate()
	g := graph.Build(d.NumVertices, edges)
	cache := int64(float64(envCacheBytes) * scale)
	if cache < 32<<10 {
		cache = 32 << 10
	}
	mem := int64(float64(envMemBytes) * scale)
	if mem < cache*8 {
		mem = cache * 8
	}
	cost := ExperimentCost()
	// Latencies scale with the stand-in scale so the access/compute regime
	// is scale-invariant.
	cost.MemLatency *= scale
	cost.DiskLatency *= scale
	e := &Env{
		Dataset:     d,
		Edges:       edges,
		G:           g,
		Workers:     workers,
		CacheBytes:  cache,
		MemoryBytes: mem,
		Cost:        cost,
	}
	// Size partitions from the §3.2.1 formula: structure-item bytes per
	// edge ≈ 16, private-state bytes per vertex = 16, reserve one
	// partition-sized buffer for the prefetch stream.
	totalStruct := int64(len(edges))*16 + int64(g.N)*9
	e.NumPartitions = graph.SuggestNumPartitions(totalStruct, e.CacheBytes, workers, 16, 16, e.CacheBytes/8)
	if e.NumPartitions < 4 {
		e.NumPartitions = 4
	}
	return e
}

// Hier returns a fresh simulated hierarchy for one run.
func (e *Env) Hier() *memsim.Hierarchy {
	return memsim.New(memsim.Config{
		CacheBytes:  e.CacheBytes,
		MemoryBytes: e.MemoryBytes,
		Cost:        e.Cost,
	})
}

// PG cuts the graph, optionally with core-subgraph grouping (§3.3).
func (e *Env) PG(coreSubgraph bool) (*graph.PGraph, error) {
	return graph.Cut(e.G, e.Edges, graph.Options{
		NumPartitions: e.NumPartitions,
		CoreSubgraph:  coreSubgraph,
		CoreFraction:  0.05,
	})
}

// Store wraps a single-snapshot store.
func (e *Env) Store(coreSubgraph bool) (*storage.SnapshotStore, error) {
	pg, err := e.PG(coreSubgraph)
	if err != nil {
		return nil, err
	}
	return storage.NewSnapshotStore(pg, 0), nil
}

// SnapshotSeries builds numSnaps-1 incremental snapshots on top of the base,
// each mutating ratio of the edges (§4.4), with snapshot i at timestamp i.
func (e *Env) SnapshotSeries(numSnaps int, ratio float64) (*storage.SnapshotStore, error) {
	pg, err := e.PG(false)
	if err != nil {
		return nil, err
	}
	store := storage.NewSnapshotStore(pg, 0)
	prev, prevEdges := pg, e.Edges
	runLen := prev.ChunkSize / 4
	for s := 1; s < numSnaps; s++ {
		mut, slots := gen.MutateClustered(prevEdges, ratio, e.G.N, e.Dataset.Seed+int64(s)*7919, runLen)
		changed := graph.ChangedPartitions(slots, prev.ChunkSize, len(prev.Parts))
		next, err := graph.Overlay(prev, mut, changed)
		if err != nil {
			return nil, err
		}
		if err := store.Add(next, int64(s)); err != nil {
			return nil, err
		}
		prev, prevEdges = next, mut
	}
	return store, nil
}

// workload is the recipe for one run's jobs. Runs take the recipe, not
// programs, and build their own instances from it: a program such as
// algo.SCC keeps job-private state, so no instance may serve two jobs.
type workload struct {
	jobs int
	eps  float64
	// mix lists the benchmarks cycled over the jobs (0 PageRank, 1 SSSP,
	// 2 SCC, 3 BFS); nil is the paper's four-job mix of §4.
	mix []int
	// snapshots binds job i to snapshot i (it arrives at timestamp i);
	// otherwise every job arrives at 0.
	snapshots bool
}

// paperMix is the four-job workload (§4) at threshold eps.
func paperMix(jobs int, eps float64) workload { return workload{jobs: jobs, eps: eps} }

// onRun, when set, sees the jobs of every run as they are submitted.
var onRun func([]baseline.JobSpec)

// build returns fresh program instances for one run.
func (w workload) build() []baseline.JobSpec {
	mix := w.mix
	if mix == nil {
		mix = []int{0, 1, 2, 3}
	}
	specs := make([]baseline.JobSpec, w.jobs)
	for i := range specs {
		var p model.Program
		switch mix[i%len(mix)] {
		case 0:
			p = &algo.PageRank{Damping: 0.85, Epsilon: w.eps}
		case 1:
			p = algo.NewSSSP(0)
		case 2:
			p = algo.NewSCC()
		case 3:
			p = algo.NewBFS(0)
		}
		specs[i] = baseline.JobSpec{Prog: p}
		if w.snapshots {
			specs[i].Arrival = int64(i)
		}
	}
	return specs
}

// runCGraph executes the workload on the CGraph engine configured by cfg,
// over a fresh hierarchy and with the environment's workers unless cfg
// sets its own.
func (e *Env) runCGraph(store *storage.SnapshotStore, w workload, cfg core.Config) (*metrics.RunReport, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = e.Workers
	}
	cfg.Hier = e.Hier()
	eng := core.New(cfg, store)
	specs := w.build()
	if onRun != nil {
		onRun(specs)
	}
	for _, s := range specs {
		eng.Submit(s.Prog, s.Arrival)
	}
	return eng.Run()
}

// runBaseline executes the workload on one comparator system.
func (e *Env) runBaseline(sys baseline.System, store *storage.SnapshotStore, w workload, workers int) (*metrics.RunReport, error) {
	if workers <= 0 {
		workers = e.Workers
	}
	specs := w.build()
	if onRun != nil {
		onRun(specs)
	}
	rep, _, err := baseline.Run(baseline.Config{
		System:  sys,
		Workers: workers,
		Hier:    e.Hier(),
	}, store, specs)
	return rep, err
}

// fourJobRun runs the standard 4-job workload on every system over a fresh
// environment per system, returning reports keyed by system name.
func (e *Env) fourJobRun(eps float64) (map[string]*metrics.RunReport, error) {
	out := make(map[string]*metrics.RunReport)
	for _, sys := range []baseline.System{baseline.CLIP, baseline.NXgraph, baseline.Seraph} {
		store, err := e.Store(false)
		if err != nil {
			return nil, err
		}
		rep, err := e.runBaseline(sys, store, paperMix(4, eps), 0)
		if err != nil {
			return nil, err
		}
		out[string(sys)] = rep
	}
	store, err := e.Store(true)
	if err != nil {
		return nil, err
	}
	rep, err := e.runCGraph(store, paperMix(4, eps), core.Config{})
	if err != nil {
		return nil, err
	}
	out["CGraph"] = rep
	return out, nil
}

// Table is one rendered experiment artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	fmt.Fprintln(w, line(t.Columns))
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
	return nil
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
