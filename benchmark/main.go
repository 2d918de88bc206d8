// Command benchmark is the repository's wall-clock benchmark: four workloads
// over the shipped configuration of cgraph, each run in a process of its
// own, every result checked against internal/refimpl. See README.md.
//
// The contract form, which BENCHMARK.json's command wraps, runs one
// workload once and prints one JSON object as its last line:
//
//	benchmark --workload batch_dense --seed 77 --seconds 20 --trace 0
//
// -all runs every workload in interleaved passes, untraced and traced, and
// writes one file that -compare reads:
//
//	benchmark -all -o a.json
//	benchmark -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"cgraph"
	"cgraph/client"
	"cgraph/internal/span"
)

const (
	// numPartitions, with the scheduler and trace depth set in newSystem, is
	// the configuration cgraph-serve ships.
	numPartitions = 32
	// opDeadline bounds every operation; one that exceeds it counts as
	// failed and in no latency figure.
	opDeadline = 30 * time.Second
	// setupSamples is how many set-ups the set-up median rests on at least.
	setupSamples = 41
	// deltaProbes is how many delta batches a batch repeat applies to its
	// idle system; serveDeltaProbes how many serve_http sends after its
	// window.
	deltaProbes      = 8
	serveDeltaProbes = 60
	// deltaRate is evolve_ingest's open-loop writer rate, batches a second.
	deltaRate = 5
	// passes is how many interleaved passes -all makes over the workloads.
	passes = 3
	// outDir receives trace-<workload>.json and -all's default result file;
	// the benchmark is run from the repository root.
	outDir = "benchmark/out"
	// mirrorCheckEvery: evolve_ingest checks every n-th job of its reader
	// against refimpl on the mirror.
	mirrorCheckEvery = 10
	topK             = 10
)

// workloadDef names a workload, says why it is in the benchmark, and holds
// its input generator and its end-to-end part.
type workloadDef struct {
	name   string
	why    string
	inputs func(seed int64, sz sizes) inputs
	run    func(e *env, in inputs) (*outcome, error)
}

var workloads = []workloadDef{
	{"batch_dense", "RMAT 8192 V/262144 E, PageRank+PPR+PageRank(d=.7)+HITS per batch: every vertex active every iteration, so the exec kernel (ApplyRange, Merge, Push) does the work",
		denseInputs, batchWorkload},
	{"batch_frontier", "200x200 lattice, 8 BFS/SSSP/SSWP per batch: ~400 rounds of tiny frontiers and skipped partitions, so per-round fixed costs (Push, slicing, sched.Plan, pool wake-ups) carry the cost, not edges",
		frontierInputs, batchWorkload},
	{"serve_http", "RMAT 4000 V/120000 E behind a loopback listener, 2 closed-loop clients cycling pagerank, sssp, scc, bfs: the whole stack from api JSON and SSE to core.Serve admission",
		serveInputs, func(e *env, in inputs) (*outcome, error) { return serviceWorkload(e, in, false) }},
	{"evolve_ingest", "serve_http's service with an open-loop writer (5 delta batches/s, flushed) beside one closed-loop reader bound to the newest snapshot: ingest, materializer and overlay next to running jobs",
		serveInputs, func(e *env, in inputs) (*outcome, error) { return serviceWorkload(e, in, true) }},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// env is one run's settings. rec is nil in an untraced run.
type env struct {
	procs   int
	seed    int64
	seconds time.Duration
	sizes   sizes
	rec     *recorder
	outDir  string
}

// warmup is the length of a service workload's discarded first stretch.
func (e *env) warmup() time.Duration { return min(3*time.Second, e.seconds/4) }

// window is the length of the timed window. A traced run spends half of
// --seconds on it (recorder on for every other operation) and the rest of
// its time in the legs, so that traced and untraced runs cost about the same.
func (e *env) window() time.Duration {
	if e.rec != nil {
		return e.seconds / 2
	}
	return e.seconds
}

// probeDeltas generates the first n batches of the run's delta stream: the
// batches a batch repeat applies to its idle system, and the ones the legs
// decode, coalesce and overlay.
func (e *env) probeDeltas(in inputs, n int) [][]mutation {
	mu := newMutator(e.seed, in.numV, in.edges)
	out := make([][]mutation, n)
	for i := range out {
		out[i] = mu.batch(e.sizes.deltaMutations)
	}
	return out
}

// setupTarget is how many set-up samples a run tops up to; a traced run does
// not report setup_s and performs no extra set-ups.
func (e *env) setupTarget() int {
	if e.rec != nil {
		return 0
	}
	return setupSamples
}

// outcome is what a workload's end-to-end part produced: the operation
// counts, the end-to-end metrics, and the raw material the traced run's
// legs turn into per-layer metrics.
type outcome struct {
	attempted int
	failures  []string
	e2e       map[string]float64

	// primary holds the untraced samples of the workload's headline figure
	// (batch walls as one class, or job latencies per algorithm) and
	// primaryTraced the traced ones; the difference of their means of
	// medians is the tracing overhead.
	primary, primaryTraced [][]float64
	deltaLat, late         []float64
	allocsPerOp            float64
	// counters are the read-outs of the last System the end-to-end part used
	// (the System itself is let go, so that its snapshots do not weigh on the
	// legs' heap); report is the last batch Run's report (batch workloads).
	counters counters
	report   *cgraph.Report
	server   map[string]float64
	clients  client.Stats
}

// counters are a System's public read-outs, taken when its work is done.
type counters struct {
	exec   cgraph.ExecStats
	ingest cgraph.IngestStats
	spans  span.Stats
}

func countersOf(sys *cgraph.System) counters {
	return counters{exec: sys.ExecStats(), ingest: sys.IngestStats(), spans: sys.SpanTracer().Stats()}
}

func newOutcome() *outcome { return &outcome{e2e: map[string]float64{}} }

func (o *outcome) fail(msgs ...string) { o.failures = append(o.failures, msgs...) }

// runWorkload runs one workload once and returns the contract's result: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func runWorkload(e *env, w workloadDef) (result, []metricSpec, error) {
	runtime.GOMAXPROCS(e.procs)
	in := w.inputs(e.seed, e.sizes)
	out, err := w.run(e, in)
	if err != nil {
		return result{}, nil, err
	}
	for i, f := range out.failures {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "... and %d more failed operations\n", len(out.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "failed operation:", f)
	}
	specs, vals := endToEnd, out.e2e
	// An end-to-end metric is a median or a rate of operations that
	// succeeded; 0 means it had no sample, and a 0 in a baseline would make
	// every later comparison against it read "no change".
	for _, s := range endToEnd {
		if !(out.e2e[s.Name] > 0) {
			return result{}, nil, fmt.Errorf("end-to-end metric %s has no sample (value %v)", s.Name, out.e2e[s.Name])
		}
	}
	if e.rec != nil {
		specs = perLayer
		if vals, err = legs(e, in, out); err != nil {
			return result{}, nil, err
		}
		if err := e.rec.dump(e.outDir, w.name); err != nil {
			return result{}, nil, err
		}
	}
	res, err := newResult(specs, vals, out.attempted, len(out.failures))
	return res, specs, err
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	procs    int
	all      bool
	outFile  string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run once: batch_dense, batch_frontier, serve_http or evolve_ingest")
	flag.Int64Var(&o.seed, "seed", 77, "seed of every input generator")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed window, seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	flag.IntVar(&o.procs, "procs", 2, "GOMAXPROCS = engine workers = load-generator clients")
	flag.BoolVar(&o.all, "all", false, "run every workload in interleaved passes, untraced then traced, and write -o")
	flag.StringVar(&o.outFile, "o", outDir+"/result.json", "with -all: result file")
	flag.BoolVar(&o.compare, "compare", false, "compare two -all result files given as arguments")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.seconds < 1 || o.procs < 1 {
		return fmt.Errorf("-seconds and -procs must be at least 1")
	}
	switch {
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	case o.all:
		return runAll(o)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	e := &env{procs: o.procs, seed: o.seed, seconds: time.Duration(o.seconds) * time.Second, sizes: fullSizes, outDir: outDir}
	if o.trace != 0 {
		e.rec = newRecorder()
	}
	fmt.Printf("workload %s  seed %d  seconds %d  trace %d  procs %d  %s %s/%s\n",
		w.name, o.seed, o.seconds, o.trace, o.procs, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	res, specs, err := runWorkload(e, w)
	if err != nil {
		return err
	}
	return res.print(os.Stdout, specs)
}
