package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cgraph"
	"cgraph/api"
	"cgraph/client"
	"cgraph/internal/graph"
	"cgraph/server"
)

// service is an in-process cgraph-serve: a System, the job service over it,
// and its HTTP control plane on a real loopback listener.
type service struct {
	sys      *cgraph.System
	svc      *server.Service
	http     *http.Server
	base     string
	serveErr chan error
	// transport is shared by the run's clients and closed with the service,
	// so that no connection or reader goroutine outlives a run.
	transport *http.Transport
}

// startService performs the set-up a service workload times: NewSystem,
// LoadEdges, server.New, Start and a listener on 127.0.0.1:0.
func startService(e *env, in inputs) (*service, time.Duration, error) {
	t0 := time.Now()
	root := e.rec.start("service.setup", noSpan, 0)
	defer e.rec.end(root)
	sys := newSystem(e.procs, true)
	sp := e.rec.start("cgraph.LoadEdges", root, 0)
	err := sys.LoadEdges(in.numV, in.edges)
	e.rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = e.rec.start("server.New+Start", root, 0)
	svc := server.New(sys, server.Config{MaxInFlight: 8, RetainTerminal: 64})
	err = svc.Start()
	e.rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &service{
		sys:       sys,
		svc:       svc,
		http:      &http.Server{Handler: svc.Handler(registry)},
		base:      "http://" + ln.Addr().String(),
		serveErr:  make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: 16},
	}
	//cgraph:spawn one HTTP listener per service; stop waits for it
	go func() { s.serveErr <- s.http.Serve(ln) }()
	return s, time.Since(t0), nil
}

// stop shuts the listener and the round loop down and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.transport.CloseIdleConnections()
	err := s.http.Shutdown(ctx)
	if err != nil {
		err = s.http.Close() // an event stream still open past the grace period
	}
	if serr := <-s.serveErr; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if serr := s.svc.Stop(ctx); err == nil {
		err = serr
	}
	return err
}

func (s *service) newClient() *client.Client {
	return client.New(s.base, client.WithHTTPClient(&http.Client{Transport: s.transport}))
}

// get fetches a plain-text endpoint and discards the body.
func (s *service) get(path string) error {
	resp, err := (&http.Client{Transport: s.transport}).Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return nil
}

// jobSample is one closed-loop job cycle: Submit, Watch to the terminal
// event, Results(top=10). err is set when any step failed, timed out or was
// refused, and later when the result fails its correctness check; a sample
// with err counts as a failed operation and in no latency figure.
type jobSample struct {
	reader int
	idx    int // index into the workload's job list
	traced bool
	id     string
	start  time.Time
	end    time.Time
	// submit, firstEvent and results are the cycle's steps; lat the whole.
	submit, firstEvent, results, lat time.Duration
	top                              []api.VertexValue
	// ts is the snapshot timestamp an evolve_ingest job bound to; full its
	// whole result vector, fetched for the jobs checked against the mirror.
	ts   int64
	full []float64
	err  error
}

// deltaSample is one delta batch: how late it was sent and how long after
// its due time the flushed acknowledgement arrived.
type deltaSample struct {
	late    time.Duration
	visible time.Duration
	err     error
}

// loggedBatch is one acknowledged delta batch with its snapshot timestamp.
type loggedBatch struct {
	ts   int64
	muts []mutation
}

// deltaStream is the state of one run's delta traffic: the generator with
// its mirror, the log of acknowledged batches and the newest acknowledged
// timestamp, which evolve_ingest's reader binds its jobs to.
type deltaStream struct {
	mu        *mutator
	mutations int
	lastAcked atomic.Int64
	// broken is set when a batch failed: the mirror no longer knows what the
	// system holds, and every later mirror check counts as failed.
	broken atomic.Bool

	logMu sync.Mutex
	log   []loggedBatch
}

// send generates the next batch, waits for its due time, sends it and
// records the acknowledgement.
func (st *deltaStream) send(e *env, c *client.Client, op int64, due time.Time) deltaSample {
	muts := st.mu.batch(st.mutations)
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
	}
	d := deltaSample{late: time.Since(due)}
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	sp := e.rec.start("client.ApplyDelta", noSpan, op)
	ack, err := c.ApplyDelta(ctx, wireDelta(muts))
	e.rec.end(sp)
	d.visible = time.Since(due)
	if err == nil && !ack.Flushed {
		err = fmt.Errorf("delta batch was not materialized")
	}
	if err != nil {
		st.broken.Store(true)
		d.err = err
		return d
	}
	st.logMu.Lock()
	st.log = append(st.log, loggedBatch{ts: ack.Timestamp, muts: muts})
	st.logMu.Unlock()
	st.lastAcked.Store(ack.Timestamp)
	return d
}

// jobCycle runs one analyst cycle. With st set the job binds to the newest
// acknowledged snapshot, and wantFull also fetches the whole result vector
// after the latency sample is closed.
func jobCycle(e *env, c *client.Client, in inputs, idx int, op int64, st *deltaStream, wantFull bool) jobSample {
	s := jobSample{idx: idx, traced: e.rec.enabled(), start: time.Now()}
	spec := in.jobs[idx].wire()
	if st != nil {
		s.ts = st.lastAcked.Load()
		spec.AtTimestamp = &s.ts
	}
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	root := e.rec.start("job", noSpan, op)
	defer e.rec.end(root)

	sp := e.rec.start("client.Submit", root, op)
	status, err := c.Submit(ctx, spec)
	e.rec.end(sp)
	s.submit = time.Since(s.start)
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	s.id = status.ID

	sp = e.rec.start("client.Watch", root, op)
	events, err := c.Watch(ctx, status.ID)
	final := api.JobState("")
	if err == nil {
		for ev := range events {
			if s.firstEvent == 0 {
				s.firstEvent = time.Since(s.start)
			}
			if ev.Terminal() {
				final = ev.State
			}
		}
	}
	e.rec.end(sp)
	if err != nil {
		s.err = fmt.Errorf("watch: %w", err)
		return s
	}
	if final != api.JobDone {
		s.err = fmt.Errorf("job %s ended %q", status.ID, final)
		return s
	}

	tr := time.Now()
	sp = e.rec.start("client.Results", root, op)
	res, err := c.Results(ctx, status.ID, api.ResultsOptions{Top: topK})
	e.rec.end(sp)
	s.end = time.Now()
	s.results, s.lat = s.end.Sub(tr), s.end.Sub(s.start)
	if err != nil {
		s.err = fmt.Errorf("results: %w", err)
		return s
	}
	s.top = res.Top
	if wantFull {
		full, err := c.Results(ctx, status.ID, api.ResultsOptions{})
		if err != nil {
			s.err = fmt.Errorf("full results: %w", err)
			return s
		}
		s.full = make([]float64, len(full.Values))
		for i, v := range full.Values {
			s.full[i] = float64(v)
		}
	}
	return s
}

// load is what one stretch of service traffic produced.
type load struct {
	start   time.Time
	window  time.Duration
	jobs    []jobSample // ordered by reader, then by time
	deltas  []deltaSample
	bytes   uint64 // TotalAlloc over the stretch
	mallocs uint64
	clients client.Stats
}

// drive runs the workload's traffic for d: closed-loop analysts (each
// submits, watches, reads, then submits again) and, with writer set, an
// open-loop writer sending deltaRate batches a second, each timed from its
// due time. Readers bind to st's newest snapshot when a writer runs. In a
// traced stretch the recorder is switched every eighth of it.
func drive(e *env, s *service, in inputs, d time.Duration, readers int, st *deltaStream, writer, traced bool) load {
	out := load{start: time.Now(), window: d}
	end := out.start.Add(d)
	perReader := make([][]jobSample, readers)
	var clients []*client.Client
	var wg sync.WaitGroup
	var ops atomic.Int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	bind := st
	if !writer {
		bind = nil
	}
	for r := 0; r < readers; r++ {
		c := s.newClient()
		clients = append(clients, c)
		wg.Add(1)
		//cgraph:spawn one closed-loop analyst per reader; joined below
		go func() {
			defer wg.Done()
			// Readers start half a mix apart so that they do not run the
			// same algorithm at the same time. Each completes at least one
			// rotation of the mix, however short the stretch, so that every
			// figure of the stretch has a sample.
			for n := 0; n < len(in.jobs)/2 || time.Now().Before(end); n++ {
				idx := (n + r*len(in.jobs)/4) % len(in.jobs)
				js := jobCycle(e, c, in, idx, ops.Add(1), bind, writer && n%mirrorCheckEvery == 0)
				js.reader = r
				perReader[r] = append(perReader[r], js)
			}
		}()
	}
	if writer {
		c := s.newClient()
		clients = append(clients, c)
		wg.Add(1)
		//cgraph:spawn the open-loop delta writer; joined below
		go func() {
			defer wg.Done()
			period := time.Second / deltaRate
			for due := out.start; due.Before(end); due = due.Add(period) {
				out.deltas = append(out.deltas, st.send(e, c, ops.Add(1), due))
			}
		}()
	}
	if traced {
		for seg := 1; seg <= 8; seg++ {
			e.rec.enable(seg%2 == 0)
			time.Sleep(time.Until(out.start.Add(d * time.Duration(seg) / 8)))
		}
		e.rec.enable(false)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	out.bytes, out.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	for _, js := range perReader {
		out.jobs = append(out.jobs, js...)
	}
	for _, c := range clients {
		cs := c.Stats()
		out.clients.WatchReconnects += cs.WatchReconnects
		out.clients.Throttled += cs.Throttled
	}
	return out
}

// rotationWalls returns the wall time of every full rotation of the mix one
// analyst completed: n consecutive jobs of one reader, none failed.
func rotationWalls(jobs []jobSample, n int) []float64 {
	var walls []float64
	for lo := 0; lo+n <= len(jobs); {
		ok := true
		for _, js := range jobs[lo : lo+n] {
			ok = ok && js.reader == jobs[lo].reader && js.err == nil
		}
		if !ok {
			lo++
			continue
		}
		walls = append(walls, ms(jobs[lo+n-1].end.Sub(jobs[lo].start)))
		lo += n
	}
	return walls
}

// checkAgainstMirror verifies every job that fetched its whole result vector
// against refimpl on the mirror as of the job's bound timestamp, replaying
// the acknowledged batches in order. It sets err on the samples that fail.
func checkAgainstMirror(in inputs, st *deltaStream, jobs []*jobSample) {
	var checked []*jobSample
	for _, js := range jobs {
		if js.err == nil && js.full != nil {
			checked = append(checked, js)
		}
	}
	sort.SliceStable(checked, func(a, b int) bool { return checked[a].ts < checked[b].ts })
	m := newMirror(in.numV, in.edges)
	next := 0
	for _, js := range checked {
		if st.broken.Load() {
			js.err = fmt.Errorf("a delta batch failed earlier: the mirror cannot vouch for this result")
			continue
		}
		for next < len(st.log) && st.log[next].ts <= js.ts {
			for _, mu := range st.log[next].muts {
				m.apply(mu)
			}
			next++
		}
		want, tol := in.jobs[js.idx].oracle(graph.Build(in.numV, m.edges()))
		if err := checkValues(js.full, want, tol); err != nil {
			js.err = fmt.Errorf("at timestamp %d: %w", js.ts, err)
		}
	}
}

// serviceWorkload runs a service workload's end-to-end part: set-up, a
// discarded warm-up stretch, the timed stretch, and then, outside the timed
// window, the delta probe or final flush and every correctness check.
// evolve adds the delta writer and the mirror checks; without it the
// delta-visibility samples come from batches sent to the idle service.
func serviceWorkload(e *env, in inputs, evolve bool) (*outcome, error) {
	o := oraclesFor(in)
	e.rec.enable(false)
	s, setup, err := startService(e, in)
	if err != nil {
		return nil, err
	}
	defer func() {
		if s != nil {
			s.stop()
		}
	}()

	st := &deltaStream{mu: newMutator(e.seed, in.numV, in.edges), mutations: e.sizes.deltaMutations}
	readers := e.procs
	if evolve {
		readers = max(e.procs-1, 1) // the writer is the other load-generator client
	}
	for _, js := range drive(e, s, in, e.warmup(), readers, st, evolve, false).jobs {
		if js.err != nil {
			return nil, fmt.Errorf("warm-up job failed: %w", js.err)
		}
	}
	runtime.GC()
	ld := drive(e, s, in, e.window(), readers, st, evolve, e.rec != nil)

	// Outside the window: serve_http probes delta visibility on the idle
	// service; evolve_ingest flushes once more and runs one job per
	// algorithm against the final snapshot.
	c := s.newClient()
	deltas := ld.deltas
	var finals []jobSample
	if evolve {
		if d := st.send(e, c, 0, time.Now()); d.err != nil {
			deltas = append(deltas, d)
		}
		for idx := 0; idx < len(in.jobs)/2; idx++ {
			finals = append(finals, jobCycle(e, c, in, idx, 0, st, true))
		}
	} else {
		for k := 0; k < serveDeltaProbes; k++ {
			e.rec.enable(e.rec != nil && k%2 == 1)
			deltas = append(deltas, st.send(e, c, 0, time.Now()))
		}
		e.rec.enable(false)
	}

	var all []*jobSample
	for i := range ld.jobs {
		all = append(all, &ld.jobs[i])
	}
	for i := range finals {
		all = append(all, &finals[i])
	}
	if evolve {
		checkAgainstMirror(in, st, all)
	} else {
		for _, js := range all {
			if js.err == nil {
				js.err = checkTop(js.top, o.want[js.idx], o.tol[js.idx], topK)
			}
		}
	}

	out := newOutcome()
	out.attempted = len(all) + len(deltas)
	for _, js := range all {
		if js.err != nil {
			out.fail(fmt.Sprintf("%s %s: %v", in.jobs[js.idx].algo, js.id, js.err))
		}
	}
	var deltaLat, late []float64
	for _, d := range deltas {
		if d.err != nil {
			out.fail(fmt.Sprintf("delta: %v", d.err))
			continue
		}
		deltaLat = append(deltaLat, ms(d.visible))
		late = append(late, ms(d.late))
	}
	if ist := s.sys.IngestStats(); ist.RemoveMisses != 0 {
		out.fail(fmt.Sprintf("%d removals missed their edge: the mirror and the system disagree", ist.RemoveMisses))
	}

	// Throughput counts every correct job started inside the window, over
	// the time until the last of them completed (analysts finish the cycle
	// they are in when the window closes).
	// Latencies are kept per algorithm, in the order of the mix.
	classOf := map[string]int{}
	for _, j := range in.jobs {
		if _, ok := classOf[j.algo]; !ok {
			classOf[j.algo] = len(classOf)
		}
	}
	jobLat, tracedLat := make([][]float64, len(classOf)), make([][]float64, len(classOf))
	correct, busy := 0, ld.window
	for _, js := range ld.jobs {
		if js.err != nil {
			continue
		}
		correct++
		busy = max(busy, js.end.Sub(ld.start))
		into := jobLat
		if js.traced {
			into = tracedLat
		}
		c := classOf[in.jobs[js.idx].algo]
		into[c] = append(into[c], ms(js.lat))
	}

	if e.rec != nil {
		e.rec.enable(true)
		out.server = measureServer(e, s, c, ld.jobs, in)
		e.rec.enable(false)
	}
	out.clients, out.counters = ld.clients, countersOf(s.sys)
	// The service is let go before the extra set-ups, so that they are not
	// timed beside a heap that still holds its snapshots.
	err = s.stop()
	s = nil
	if err != nil {
		return nil, fmt.Errorf("stopping the service: %w", err)
	}

	setups, err := topUpSetups([]time.Duration{setup}, e.setupTarget(), func() (time.Duration, error) {
		extra, d, err := startService(e, in)
		if err != nil {
			return 0, err
		}
		return d, extra.stop()
	})
	if err != nil {
		return nil, err
	}

	out.e2e["setup_s"] = median(durationsMS(setups)) / 1000
	out.e2e["batch_wall_ms"] = median(rotationWalls(ld.jobs, len(in.jobs)/2))
	out.e2e["job_latency_p50_ms"] = meanOfMedians(jobLat)
	out.e2e["jobs_per_s"] = ratio(float64(correct), busy.Seconds())
	out.e2e["delta_visible_p50_ms"] = median(deltaLat)
	out.e2e["alloc_mb_per_op"] = ratio(float64(ld.bytes)/1e6, float64(len(ld.jobs)))

	out.primary, out.primaryTraced = jobLat, tracedLat
	out.deltaLat, out.late = deltaLat, late
	out.allocsPerOp = ratio(float64(ld.mallocs), float64(len(ld.jobs)))
	return out, nil
}
