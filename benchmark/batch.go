package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"cgraph"
	"cgraph/internal/graph"
	"cgraph/model"
)

// newSystem configures a System as cgraph-serve ships it; service workloads
// add snapshot retention.
func newSystem(workers int, service bool) *cgraph.System {
	opts := []cgraph.Option{
		cgraph.WithWorkers(workers),
		cgraph.WithPartitions(numPartitions),
		cgraph.WithScheduler(cgraph.TwoLevelScheduler),
		cgraph.WithCoreSubgraph(false), // delta ingest needs slot-stable partitions
		cgraph.WithTraceDepth(256),
	}
	if service {
		opts = append(opts, cgraph.WithRetainSnapshots(4))
	}
	return cgraph.NewSystem(opts...)
}

// oracleSet holds the reference values of a job list on one graph.
type oracleSet struct {
	want [][]float64
	tol  []float64
}

func oraclesFor(in inputs) oracleSet {
	g := graph.Build(in.numV, in.edges)
	var o oracleSet
	for _, j := range in.jobs {
		w, t := j.oracle(g)
		o.want = append(o.want, w)
		o.tol = append(o.tol, t)
	}
	return o
}

// batchSample is what one repeat of a batch workload measured.
type batchSample struct {
	traced   bool
	setup    time.Duration
	load     time.Duration   // the LoadEdges part of setup
	wall     time.Duration   // first Submit -> Run returned
	jobLat   []time.Duration // per job of the list; 0 for a job that failed
	submit   []time.Duration
	results  []time.Duration
	deltas   []time.Duration
	bytes    uint64 // TotalAlloc over the wall window
	mallocs  uint64
	report   *cgraph.Report
	ops      int
	failures []string
}

// runBatch performs one repeat: a fresh System, LoadEdges, one Submit per
// job, Run; then, outside the timed window, the correctness check and the
// delta-visibility probe (deltas applied in process to the idle system).
// It returns the system so that the caller can read its counters.
func runBatch(e *env, in inputs, o oracleSet, deltas [][]mutation, workers int, op int64) (batchSample, *cgraph.System) {
	s := batchSample{traced: e.rec.enabled(), jobLat: make([]time.Duration, len(in.jobs))}
	fail := func(format string, args ...any) { s.failures = append(s.failures, fmt.Sprintf(format, args...)) }
	root := e.rec.start("batch", noSpan, op)
	defer e.rec.end(root)

	t0 := time.Now()
	sp := e.rec.start("cgraph.NewSystem", root, op)
	sys := newSystem(workers, false)
	e.rec.end(sp)
	tl := time.Now()
	sp = e.rec.start("cgraph.LoadEdges", root, op)
	err := sys.LoadEdges(in.numV, in.edges)
	e.rec.end(sp)
	s.load = time.Since(tl)
	s.setup = time.Since(t0)
	if err != nil {
		s.ops = len(in.jobs)
		fail("LoadEdges: %v", err)
		return s, sys
	}

	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	jobs := make([]*cgraph.Job, len(in.jobs))
	submitted := make([]time.Time, len(in.jobs))
	doneAt := make([]time.Time, len(in.jobs))
	var watchers sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	tb := time.Now()
	for i, js := range in.jobs {
		submitted[i] = time.Now()
		sp = e.rec.start("cgraph.Submit", root, op)
		j, err := sys.Submit(js.program(), cgraph.WithContext(ctx))
		e.rec.end(sp)
		s.submit = append(s.submit, time.Since(submitted[i]))
		if err != nil {
			fail("Submit %s: %v", js.algo, err)
			continue
		}
		jobs[i] = j
		watchers.Add(1)
		//cgraph:spawn one watcher per job stamps its completion time; joined below
		go func() {
			defer watchers.Done()
			<-j.Done()
			doneAt[i] = time.Now()
		}()
	}
	sp = e.rec.start("cgraph.Run", root, op)
	rep, err := sys.Run()
	e.rec.end(sp)
	s.wall = time.Since(tb)
	runtime.ReadMemStats(&m1)
	watchers.Wait()
	s.bytes, s.mallocs, s.report = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs, rep
	if err != nil {
		fail("Run: %v", err)
	}

	s.ops = len(in.jobs)
	for i, j := range jobs {
		if j == nil {
			continue
		}
		if st := j.State(); st != cgraph.JobDone {
			fail("job %s ended %s: %v", in.jobs[i].algo, st, j.Err())
			continue
		}
		tr := time.Now()
		sp = e.rec.start("cgraph.Results", root, op)
		got, err := j.Results()
		e.rec.end(sp)
		s.results = append(s.results, time.Since(tr))
		if err == nil {
			err = checkValues(got, o.want[i], o.tol[i])
		}
		if err != nil {
			fail("job %s: %v", in.jobs[i].algo, err)
			continue
		}
		s.jobLat[i] = doneAt[i].Sub(submitted[i])
	}

	for _, muts := range deltas {
		s.ops++
		td := time.Now()
		sp = e.rec.start("cgraph.ApplyDelta", root, op)
		ack, err := sys.ApplyDelta(libraryDelta(muts))
		e.rec.end(sp)
		d := time.Since(td)
		switch {
		case err != nil:
			fail("ApplyDelta: %v", err)
		case !ack.Flushed:
			fail("ApplyDelta: batch was not materialized")
		default:
			s.deltas = append(s.deltas, d)
		}
	}
	if st := sys.IngestStats(); st.RemoveMisses != 0 {
		fail("%d removals missed their edge: the mirror and the system disagree", st.RemoveMisses)
	}
	return s, sys
}

// topUpSetups repeats a set-up back to back after a GC until there are at
// least want samples, so that the set-up median rests on enough of them even
// when the timed loop performed few.
func topUpSetups(have []time.Duration, want int, setup func() (time.Duration, error)) ([]time.Duration, error) {
	runtime.GC()
	for len(have) < want {
		d, err := setup()
		if err != nil {
			return have, err
		}
		have = append(have, d)
	}
	return have, nil
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// batchWorkload runs a batch workload's end-to-end part: a discarded warm-up
// repeat, then repeats until the window is used up. In a traced run the
// recorder is on for every other repeat.
func batchWorkload(e *env, in inputs) (*outcome, error) {
	o := oraclesFor(in)
	deltas := e.probeDeltas(in, deltaProbes)

	e.rec.enable(false)
	if warm, _ := runBatch(e, in, o, deltas, e.procs, 0); len(warm.failures) > 0 {
		return nil, fmt.Errorf("warm-up batch failed: %s", warm.failures[0])
	}

	out := newOutcome()
	var samples []batchSample
	var sys *cgraph.System
	runtime.GC()
	start := time.Now()
	// At least one repeat, and in a traced run one of each kind.
	minOps := int64(1)
	if e.rec != nil {
		minOps = 2
	}
	for op := int64(1); op <= minOps || time.Since(start) < e.window(); op++ {
		e.rec.enable(e.rec != nil && op%2 == 0)
		var s batchSample
		s, sys = runBatch(e, in, o, deltas, e.procs, op)
		fmt.Fprintf(os.Stderr, "repeat %d: set-up %.1f ms, batch %.1f ms, traced %v\n", op, ms(s.setup), ms(s.wall), s.traced)
		samples = append(samples, s)
		out.attempted += s.ops
		out.fail(s.failures...)
	}
	e.rec.enable(false)

	var setups []time.Duration
	var cycle time.Duration
	var walls, tracedWalls, deltaLat []float64
	jobLat := make([][]float64, len(in.jobs))
	var bytes, mallocs uint64
	jobsDone := 0
	for _, s := range samples {
		setups = append(setups, s.setup)
		cycle += s.setup + s.wall
		deltaLat = append(deltaLat, durationsMS(s.deltas)...)
		for i, d := range s.jobLat {
			if d > 0 {
				jobsDone++
				if !s.traced {
					jobLat[i] = append(jobLat[i], ms(d))
				}
			}
		}
		if s.traced {
			tracedWalls = append(tracedWalls, ms(s.wall))
			continue
		}
		walls = append(walls, ms(s.wall))
		bytes += s.bytes
		mallocs += s.mallocs
	}
	setups, err := topUpSetups(setups, e.setupTarget(), func() (time.Duration, error) {
		t0 := time.Now()
		err := newSystem(e.procs, false).LoadEdges(in.numV, in.edges)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}

	out.e2e["setup_s"] = median(durationsMS(setups)) / 1000
	out.e2e["batch_wall_ms"] = median(walls)
	out.e2e["job_latency_p50_ms"] = meanOfMedians(jobLat)
	out.e2e["jobs_per_s"] = ratio(float64(jobsDone), cycle.Seconds())
	out.e2e["delta_visible_p50_ms"] = median(deltaLat)
	out.e2e["alloc_mb_per_op"] = ratio(float64(bytes)/1e6, float64(len(walls)))

	out.primary, out.primaryTraced = [][]float64{walls}, [][]float64{tracedWalls}
	out.deltaLat = deltaLat
	out.allocsPerOp = ratio(float64(mallocs), float64(len(walls)))
	out.counters, out.report = countersOf(sys), samples[len(samples)-1].report
	return out, nil
}

// programsOf instantiates a fresh program per job of the list.
func programsOf(jobs []jobSpec) []model.Program {
	out := make([]model.Program, len(jobs))
	for i, j := range jobs {
		out[i] = j.program()
	}
	return out
}
