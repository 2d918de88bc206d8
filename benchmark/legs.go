package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"cgraph/api"
	"cgraph/client"
	"cgraph/internal/exec"
	"cgraph/internal/graph"
	"cgraph/internal/ingest"
	"cgraph/internal/memsim"
	"cgraph/internal/pool"
	"cgraph/internal/sched"
	"cgraph/internal/span"
	"cgraph/internal/storage"
	"cgraph/model"
)

// The legs are single-threaded drives of each layer's public functions on
// the workload's own graph, partitioning and job list. They run in the
// traced run only, with the recorder on: every call into a layer is a span
// (timed records it), and the per-layer metrics are sums and medians of
// those same durations. The entry points called here are the ones README.md
// pins.

// timed runs fn inside a span and returns how long it took.
func (e *env) timed(name string, parent int, fn func()) time.Duration {
	sp := e.rec.start(name, parent, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	e.rec.end(sp)
	return d
}

// medianOf runs fn reps times inside spans and returns the median, ms.
func (e *env) medianOf(name string, parent, reps int, fn func()) float64 {
	var ds []float64
	for i := 0; i < reps; i++ {
		ds = append(ds, ms(e.timed(name, parent, fn)))
	}
	return median(ds)
}

// heapAllocBytes reads the cumulative bytes allocated to the heap without
// stopping the world, so that it can bracket single calls.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// legs computes every per-layer metric of a traced run.
func legs(e *env, in inputs, out *outcome) (map[string]float64, error) {
	runtime.GC() // every workload's legs start from a collected heap
	e.rec.enable(true)
	defer e.rec.enable(false)
	root := e.rec.start("legs", noSpan, 0)
	defer e.rec.end(root)
	v := map[string]float64{}

	v["error_rate"] = ratio(float64(len(out.failures)), float64(out.attempted))
	if untraced, traced := meanOfMedians(out.primary), meanOfMedians(out.primaryTraced); traced > 0 {
		v["trace.overhead_pct"] = 100 * ratio(traced-untraced, untraced)
	} else {
		v["trace.overhead_pct"] = 0 // the window was too short for a traced operation
	}

	pg, err := graphLeg(e, root, in, v)
	if err != nil {
		return nil, err
	}
	storageLeg(e, root, in, pg, v)
	rp := execLeg(e, root, in, pg, v)
	poolLeg(e, root, rp, v)
	schedLeg(e, root, pg, rp, v)
	memsimLeg(e, root, pg, v)
	if err := coreLeg(e, root, in, out, rp, v); err != nil {
		return nil, err
	}
	if err := ingestLeg(e, root, in, v); err != nil {
		return nil, err
	}
	if err := apiLeg(e, root, in, v); err != nil {
		return nil, err
	}
	// A batch workload has no service: its server.* metrics read 0, as do the
	// algorithm classes a service mix lacks.
	for _, s := range perLayer {
		if strings.HasPrefix(s.Name, "server.") {
			v[s.Name] = out.server[s.Name]
		}
	}
	v["server.delta_visible_p95_ms"] = quantile(out.deltaLat, 0.95)
	v["server.delta_visible_samples"] = float64(len(out.deltaLat))
	v["client.retries"] = float64(out.clients.WatchReconnects)
	v["client.throttled"] = float64(out.clients.Throttled)

	// Counters of the system the end-to-end part ran on.
	es, is, ss := out.counters.exec, out.counters.ingest, out.counters.spans
	v["pool.tasks"], v["pool.steals"], v["pool.stolen"] = float64(es.Tasks), float64(es.Steals), float64(es.Stolen)
	v["pool.imbalance"] = es.LastImbalance
	v["core.skipped_partitions"] = float64(es.SkippedPartitions)
	v["storage.snapshots_live"], v["storage.snapshots_evicted"] = float64(is.SnapshotsLive), float64(is.SnapshotsEvicted)
	v["ingest.mutations"], v["ingest.coalesced"] = float64(is.Mutations), float64(is.Coalesced)
	v["ingest.shed"], v["ingest.remove_misses"] = float64(is.Shed), float64(is.RemoveMisses)
	v["ingest.shared_ratio"] = is.SharedRatio
	v["cgraph.allocs_per_op"] = out.allocsPerOp
	v["span.started"], v["span.evicted"] = float64(ss.Started), float64(ss.Evicted)

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	v["process.peak_rss_mb"] = peakRSSMB()
	v["process.gc_cycles"] = float64(m.NumGC)
	v["process.gc_pause_ms"] = float64(m.PauseTotalNs) / 1e6
	v["process.gen_late_p95_ms"] = quantile(out.late, 0.95)
	return v, nil
}

// graphLeg times Build and Cut of the workload's graph, and Overlay and
// Restructure of one generated delta batch each; it returns the partitioned
// graph the later legs run on.
func graphLeg(e *env, root int, in inputs, v map[string]float64) (*graph.PGraph, error) {
	const reps = 7
	var g *graph.Graph
	v["graph.build_ms"] = e.medianOf("graph.Build", root, reps, func() { g = graph.Build(in.numV, in.edges) })
	var pg *graph.PGraph
	var err error
	v["graph.cut_ms"] = e.medianOf("graph.Cut", root, reps, func() {
		pg, err = graph.Cut(g, in.edges, graph.Options{NumPartitions: numPartitions})
	})
	if err != nil {
		return nil, err
	}

	// One generated batch, applied to a copy of the edge list the way the
	// materializer does: rewrites in place for Overlay; for Restructure also
	// holes for the removals and appended slots for the additions.
	muts := e.probeDeltas(in, 1)[0]
	slotOf := map[uint64]int{}
	for slot, ed := range in.edges {
		slotOf[pairKey(ed)] = slot
	}
	rewritten := append([]model.Edge(nil), in.edges...)
	var rewriteSlots []int
	restructured := append([]model.Edge(nil), in.edges...)
	var changedSlots []int
	for _, m := range muts {
		switch m.op {
		case api.MutationRewrite:
			rewritten[m.slot], restructured[m.slot] = m.edge, m.edge
			rewriteSlots = append(rewriteSlots, m.slot)
			changedSlots = append(changedSlots, m.slot)
		case api.MutationRemove:
			restructured[slotOf[pairKey(m.edge)]] = model.HoleEdge()
			changedSlots = append(changedSlots, slotOf[pairKey(m.edge)])
		case api.MutationAdd:
			changedSlots = append(changedSlots, len(restructured))
			restructured = append(restructured, m.edge)
		}
	}
	sort.Ints(rewriteSlots)
	sort.Ints(changedSlots)
	v["graph.overlay_ms"] = e.medianOf("graph.Overlay", root, reps, func() {
		parts := graph.ChangedPartitions(rewriteSlots, pg.ChunkSize, len(pg.Parts))
		_, err = graph.Overlay(pg, rewritten, parts)
	})
	if err != nil {
		return nil, err
	}
	v["graph.restructure_ms"] = e.medianOf("graph.Restructure", root, reps, func() {
		_, _, err = graph.Restructure(pg, in.numV, restructured, changedSlots)
	})
	return pg, err
}

func storageLeg(e *env, root int, in inputs, pg *graph.PGraph, v map[string]float64) {
	var ds []float64
	for rep := 0; rep < 3; rep++ {
		for i, p := range programsOf(in.jobs) {
			ds = append(ds, ms(e.timed("storage.NewPrivateTable", root, func() { storage.NewPrivateTable(i, pg, p) })))
		}
	}
	v["storage.private_table_ms"] = median(ds)
}

// replay is what execLeg learned by running every job to convergence.
type replay struct {
	iterations int
	// groups holds the task weights of every partition sweep (one job, one
	// partition, one iteration), the shape the pool leg reproduces.
	groups [][]int64
	// active[j][it][p] is job j's active-vertex count in partition p at the
	// start of iteration it, the footprints the sched leg plans.
	active [][][]int
	serial time.Duration
}

// execLeg replays the job list to convergence on one goroutine with the calls
// the engine's round makes, in the order of its static schedule: a round
// walks the partitions once and sweeps every job that is active on one
// before moving on (so the jobs share the loaded partition, as in the
// engine), and a job's iteration closes after its last active partition. A
// sweep is SliceActive (twice: once for the total weight, once to the
// engine's target), ApplyRange per range into a fresh scratch, Merge; a
// close is FinishIteration.
func execLeg(e *env, root int, in inputs, pg *graph.PGraph, v map[string]float64) replay {
	var rp replay
	var slice, apply, merge, push time.Duration
	var applyB, pushB uint64
	var vertices, edges, entries int64
	var jobs []*exec.Job
	for id, prog := range programsOf(in.jobs) {
		jobs = append(jobs, exec.NewJob(id, prog, pg))
	}
	rp.active = make([][][]int, len(jobs))
	sp := e.rec.start("exec.replay", root, 0)
	for running := len(jobs); running > 0; {
		left := make([]int, len(jobs)) // active partitions a job has yet to sweep this round
		closeIteration := func(j *exec.Job) {
			b0 := heapAllocBytes()
			push += e.timed("exec.FinishIteration", sp, func() { entries += j.FinishIteration().Entries })
			pushB += heapAllocBytes() - b0
			if j.Done {
				running--
			}
		}
		for id, j := range jobs {
			if j.Done {
				continue
			}
			rp.active[id] = append(rp.active[id], append([]int(nil), j.PT.ActiveCount...))
			if left[id] = len(j.PT.ActiveParts()); left[id] == 0 {
				closeIteration(j) // nothing to sweep: the engine closes such an iteration too
			}
		}
		for pid := range pg.Parts {
			for id, j := range jobs {
				if j.Done || j.PT.ActiveCount[pid] == 0 || left[id] == 0 {
					continue
				}
				var ranges []exec.Range
				slice += e.timed("exec.SliceActive", sp, func() {
					var total int64
					for _, r := range j.SliceActive(pid, math.MaxInt64, nil) {
						total += r.Weight
					}
					target := int64(float64(total)/(float64(e.procs)*4)) + 1
					ranges = j.SliceActive(pid, target, nil)
				})
				scs := make([]*exec.Scratch, len(ranges))
				weights := make([]int64, len(ranges))
				b0 := heapAllocBytes()
				for i, r := range ranges {
					scs[i], weights[i] = &exec.Scratch{}, r.Weight
					apply += e.timed("exec.ApplyRange", sp, func() {
						st := j.ApplyRange(pid, r, scs[i])
						edges += st.Edges
						vertices += st.Vertices
					})
				}
				applyB += heapAllocBytes() - b0
				merge += e.timed("exec.Merge", sp, func() { j.Merge(pid, scs...) })
				rp.groups = append(rp.groups, weights)
				if left[id]--; left[id] == 0 {
					closeIteration(j)
				}
			}
		}
	}
	e.rec.end(sp)
	for _, j := range jobs {
		rp.iterations += j.Iterations
	}
	// The kernel calls alone: the replay's own bookkeeping and the recorder's
	// cost sit between the timed calls, not inside them.
	rp.serial = slice + apply + merge + push
	it := float64(rp.iterations)
	v["exec.slice_ns_per_vertex"] = ratio(float64(slice), float64(vertices))
	v["exec.apply_ns_per_edge"] = ratio(float64(apply), float64(edges))
	v["exec.apply_b_per_edge"] = ratio(float64(applyB), float64(edges))
	v["exec.merge_ns_per_edge"] = ratio(float64(merge), float64(edges))
	v["exec.push_ns_per_entry"] = ratio(float64(push), float64(entries))
	v["exec.push_ms_per_iter"] = ratio(ms(push), it)
	v["exec.push_kb_per_iter"] = ratio(float64(pushB)/1e3, it)
	v["exec.serial_ms"] = ms(rp.serial)
	v["exec.push_share"] = ratio(float64(push), float64(rp.serial))
	v["exec.iterations"], v["exec.edges_processed"], v["exec.sync_entries"] = it, float64(edges), float64(entries)
	return rp
}

// poolLeg runs no-op tasks shaped like the median partition sweep of the
// replay through a pool of the workload's worker count.
func poolLeg(e *env, root int, rp replay, v map[string]float64) {
	groups := append([][]int64(nil), rp.groups...)
	sort.Slice(groups, func(a, b int) bool { return len(groups[a]) < len(groups[b]) })
	weights := groups[len(groups)/2]
	tasks := make([]pool.Task, len(weights))
	for i, w := range weights {
		tasks[i] = pool.Task{Weight: w, Run: func(int) {}}
	}
	p := pool.New(e.procs)
	v["pool.run_us"] = 1000 * e.medianOf("pool.Run", root, 2000, func() { p.Run(tasks) })
	v["pool.dispatch_ns_per_task"] = ratio(1000*v["pool.run_us"], float64(len(tasks)))
}

// schedLeg plans the workload's median round: the footprints every job
// still running at half the longest job's iteration count had there.
func schedLeg(e *env, root int, pg *graph.PGraph, rp replay, v map[string]float64) {
	longest := 0
	for _, its := range rp.active {
		longest = max(longest, len(its))
	}
	var foot []sched.JobFootprint
	for id, its := range rp.active {
		if longest/2 >= len(its) {
			continue
		}
		jf := sched.JobFootprint{JobID: id}
		for pid, n := range its[longest/2] {
			if n > 0 {
				jf.Units = append(jf.Units, pg.Parts[pid])
				jf.Active = append(jf.Active, n)
			}
		}
		foot = append(foot, jf)
	}
	s := sched.New(sched.TwoLevel)
	s.ObserveSnapshot(pg)
	c := map[int64]float64{}
	var plan []sched.Group
	const reps = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v["sched.plan_us"] = 1000 * e.medianOf("sched.Plan", root, reps, func() { plan = s.Plan(foot, c) })
	runtime.ReadMemStats(&m1)
	v["sched.plan_allocs"] = float64(m1.Mallocs-m0.Mallocs) / reps
	v["sched.groups"] = float64(len(plan))
}

// memsimLeg times the hit path of Hierarchy.Load on a resident item.
func memsimLeg(e *env, root int, pg *graph.PGraph, v map[string]float64) {
	h := memsim.New(memsim.Config{CacheBytes: 1 << 40, Cost: memsim.DefaultCost()})
	id := memsim.ItemID{Kind: memsim.Struct, UID: pg.Parts[0].UID, Job: -1}
	bytes := pg.Parts[0].StructBytes
	h.Load(id, bytes, false)
	const n = 200000
	d := e.timed("memsim.Load", root, func() {
		for i := 0; i < n; i++ {
			h.Load(id, bytes, false)
		}
	})
	v["memsim.load_ns"] = float64(d) / n
}

// coreLeg runs the job list as one in-process batch on a single worker and,
// unless the workload's own end-to-end part already did, on the workload's
// worker count. What the single-worker wall holds beyond the replayed
// kernel calls and the round plans is the round loop's own time.
func coreLeg(e *env, root int, in inputs, out *outcome, rp replay, v map[string]float64) error {
	o := oraclesFor(in)
	one, sys := runBatch(e, in, o, e.probeDeltas(in, deltaProbes), 1, 0)
	if len(one.failures) > 0 {
		return fmt.Errorf("single-worker batch: %s", one.failures[0])
	}
	rounds := float64(sys.Stats().Rounds)
	var roundMS []float64
	for _, rt := range sys.RoundTraces(0) {
		roundMS = append(roundMS, ms(rt.Wall))
	}
	wall1 := ms(one.wall)
	v["core.wall_1w_ms"] = wall1
	v["core.rounds"] = rounds
	v["core.round_p50_ms"], v["core.round_p95_ms"] = median(roundMS), quantile(roundMS, 0.95)
	v["core.self_ms"] = wall1 - v["exec.serial_ms"] - v["sched.plan_us"]*rounds/1000
	v["core.self_share"] = ratio(v["core.self_ms"], wall1)
	v["cgraph.load_edges_ms"] = ms(one.load)
	v["cgraph.submit_us"] = 1000 * median(durationsMS(one.submit))
	v["cgraph.results_us"] = 1000 * median(durationsMS(one.results))
	v["cgraph.materialize_ms"] = median(durationsMS(one.deltas))

	wall2, rep := meanOfMedians(out.primary), out.report
	if rep == nil {
		two, _ := runBatch(e, in, o, nil, e.procs, 0)
		if len(two.failures) > 0 {
			return fmt.Errorf("%d-worker batch: %s", e.procs, two.failures[0])
		}
		wall2, rep = ms(two.wall), two.report
	}
	v["core.wall_2w_ms"] = wall2
	v["pool.speedup"] = ratio(wall1, wall2)
	v["memsim.virtual_ms"] = rep.SimulatedMakespanUS / 1000
	v["memsim.miss_rate"] = rep.CacheMissRate
	v["memsim.bytes_into_cache_mb"] = float64(rep.BytesIntoCache) / 1e6
	v["core.virtual_over_wall"] = ratio(v["memsim.virtual_ms"], wall2)
	return nil
}

// ingestLeg drives a Pipeline whose materializer does nothing: what is left
// is validation, coalescing and flush bookkeeping.
func ingestLeg(e *env, root int, in inputs, v map[string]float64) error {
	ts := int64(0)
	p, err := ingest.New(ingest.Config{
		Slots: func() int { return len(in.edges) },
		Materialize: func(muts []ingest.Mutation, minTS int64, _ span.Context) (ingest.Result, error) {
			ts++
			return ingest.Result{Built: true, Timestamp: ts, Applied: len(muts)}, nil
		},
	})
	if err != nil {
		return err
	}
	ops := map[api.MutationOp]ingest.Op{
		api.MutationRewrite: ingest.Rewrite, api.MutationAdd: ingest.AddEdge, api.MutationRemove: ingest.RemoveEdge,
	}
	var applies, flushes []float64
	for _, batch := range e.probeDeltas(in, 200) {
		muts := make([]ingest.Mutation, len(batch))
		for k, m := range batch {
			muts[k] = ingest.Mutation{Op: ops[m.op], Slot: m.slot, Edge: m.edge}
		}
		applies = append(applies, us(e.timed("ingest.Apply", root, func() { _, err = p.Apply(muts, 0, false) })))
		if err != nil {
			return err
		}
		flushes = append(flushes, us(e.timed("ingest.Flush", root, func() { _, err = p.Flush() })))
		if err != nil {
			return err
		}
	}
	v["ingest.apply_us"], v["ingest.flush_us"] = median(applies), median(flushes)
	return p.Close()
}

// apiLeg decodes a delta body the way the server's handler does and encodes
// a full result vector.
func apiLeg(e *env, root int, in inputs, v map[string]float64) error {
	body, err := json.Marshal(wireDelta(e.probeDeltas(in, 1)[0]))
	if err != nil {
		return err
	}
	v["api.delta_decode_us"] = 1000 * e.medianOf("api.Delta.decode", root, 200, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var d api.Delta
		err = dec.Decode(&d)
	})
	if err != nil {
		return err
	}
	res := api.Results{ID: "job-0", Algo: "PageRank", NumVertices: in.numV, Values: make([]api.Float, in.numV)}
	for i := range res.Values {
		res.Values[i] = api.Float(0.15 + float64(i)/float64(in.numV))
	}
	v["api.results_encode_us"] = 1000 * e.medianOf("api.Results.encode", root, 200, func() { _, err = json.Marshal(res) })
	return err
}

// measureServer turns a service's job samples into the server.* metrics and
// adds the loopback probes: healthz (the transport floor), the Prometheus
// scrape, and the queue wait the service itself recorded for the jobs it
// still retains.
func measureServer(e *env, s *service, c *client.Client, jobs []jobSample, in inputs) map[string]float64 {
	v := map[string]float64{}
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	var submit, first, results, lat, wait []float64
	byAlgo := map[string][]float64{}
	for _, js := range jobs {
		if js.err != nil {
			continue
		}
		submit, first = append(submit, ms(js.submit)), append(first, ms(js.firstEvent))
		results, lat = append(results, ms(js.results)), append(lat, ms(js.lat))
		byAlgo[in.jobs[js.idx].algo] = append(byAlgo[in.jobs[js.idx].algo], ms(js.lat))
	}
	for i := len(jobs) - 1; i >= 0 && len(wait) < 32; i-- {
		if tr, err := c.JobTrace(ctx, jobs[i].id); err == nil {
			wait = append(wait, tr.QueueWaitMS)
		}
	}
	var health []float64
	for i := 0; i < 200; i++ {
		health = append(health, us(e.timed("client.Healthz", noSpan, func() { c.Healthz(ctx) })))
	}
	v["server.healthz_us_p50"] = median(health)
	v["server.metrics_scrape_ms"] = e.medianOf("server.metrics", noSpan, 5, func() { s.get("/metrics") })
	v["server.submit_ms_p50"], v["server.first_event_ms_p50"] = median(submit), median(first)
	v["server.results_ms_p50"], v["server.queue_wait_ms_p50"] = median(results), median(wait)
	v["server.job_latency_p95_ms"], v["server.job_latency_samples"] = quantile(lat, 0.95), float64(len(lat))
	for _, a := range []string{"pagerank", "sssp", "scc", "bfs"} {
		v["server."+a+"_p50_ms"] = median(byAlgo[a])
	}
	return v
}

// peakRSSMB is the process's VmHWM, 0 where /proc does not say.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
