package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"cgraph"
	"cgraph/api"
	"cgraph/internal/span"
	"cgraph/model"
)

// This file is the transport-neutral face of the Service: every operation
// of the cgraph.Client contract, speaking api types and returning
// *api.Error. The /v1 HTTP handlers (http.go) and the in-process client
// (local.go) are both thin shims over these methods, so the two transports
// cannot diverge in behaviour or error codes.

// SubmitSpec accepts one wire-form submission: the registry resolves the
// algorithm name, and the spec's labels, priority, deadline, and snapshot
// binding carry through to the service job. A span context and request ID
// carried by ctx (the HTTP middleware plants both) parent the job's span
// tree and join its log lines to the request.
func (s *Service) SubmitSpec(ctx context.Context, reg Registry, spec api.JobSpec) (api.JobStatus, *api.Error) {
	if reg == nil {
		reg = DefaultRegistry()
	}
	if spec.TimeoutMS < 0 {
		return api.JobStatus{}, api.Errorf(api.CodeBadRequest, "negative timeout_ms %d", spec.TimeoutMS)
	}
	prog, err := reg.Build(spec.Algo, ProgramParams{Source: model.VertexID(spec.Source), K: spec.K})
	if err != nil {
		return api.JobStatus{}, &api.Error{Code: api.CodeUnknownAlgorithm, Message: err.Error()}
	}
	sspec := Spec{
		Program:   prog,
		Arrival:   spec.AtTimestamp,
		Labels:    spec.Labels,
		Priority:  spec.Priority,
		Span:      span.FromContext(ctx),
		RequestID: requestIDFrom(ctx),
	}
	if spec.TimeoutMS > 0 {
		sspec.Timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	j, err := s.Submit(sspec)
	if err != nil {
		return api.JobStatus{}, &api.Error{Code: api.CodeUnavailable, Message: err.Error()}
	}
	return j.Status(), nil
}

// ListJobs is the transport-neutral filtered listing: it validates the
// filter — both clients must reject an unknown state with the same code —
// and returns one page of matching jobs.
func (s *Service) ListJobs(opts api.ListOptions) (api.JobList, *api.Error) {
	switch opts.State {
	case "", StateQueued, StateRunning, StateDone, StateCancelled, StateFailed:
	default:
		return api.JobList{}, api.Errorf(api.CodeBadRequest, "unknown state %q", opts.State)
	}
	return s.ListPage(opts), nil
}

// StatusOf reports one job's wire status, live or compacted.
func (s *Service) StatusOf(id string) (api.JobStatus, *api.Error) {
	if j, ok := s.Get(id); ok {
		return j.Status(), nil
	}
	if e, ok := s.historyEntry(id); ok {
		return e.st, nil
	}
	return api.JobStatus{}, api.Errorf(api.CodeNotFound, "unknown job %q", id)
}

// CancelJob retires the identified job and returns its status as of the
// cancel request (running jobs retire at the engine's next round
// boundary, so the returned state may still be "running").
func (s *Service) CancelJob(id string) (api.JobStatus, *api.Error) {
	j, ok := s.Get(id)
	if !ok {
		if e, ok := s.historyEntry(id); ok {
			return api.JobStatus{}, api.Errorf(api.CodeConflict, "job %s already %s (compacted)", id, e.st.State)
		}
		return api.JobStatus{}, api.Errorf(api.CodeNotFound, "unknown job %q", id)
	}
	if err := j.Cancel(); err != nil {
		return api.JobStatus{}, &api.Error{Code: api.CodeConflict, Message: err.Error()}
	}
	return j.Status(), nil
}

// ResultsOf returns a finished job's converged values, full or top-K.
func (s *Service) ResultsOf(id string, opts api.ResultsOptions) (api.Results, *api.Error) {
	j, ok := s.Get(id)
	if !ok {
		if _, ok := s.historyEntry(id); ok {
			return api.Results{}, api.Errorf(api.CodeReleased, "job %s was compacted to history; results dropped", id)
		}
		return api.Results{}, api.Errorf(api.CodeNotFound, "unknown job %q", id)
	}
	if opts.Top < 0 {
		return api.Results{}, api.Errorf(api.CodeBadRequest, "negative top %d", opts.Top)
	}
	values, err := j.Results()
	if err != nil {
		code := api.CodeConflict
		if st := j.State(); st == StateQueued || st == StateRunning {
			// Not an error, just not done yet.
			code = api.CodeNotReady
		}
		return api.Results{}, &api.Error{Code: code, Message: err.Error()}
	}
	res := api.Results{ID: j.ID(), Algo: j.Name(), NumVertices: len(values)}
	if opts.Top > 0 {
		res.Top = topK(values, opts.Top)
		return res, nil
	}
	res.Values = make([]api.Float, len(values))
	for i, x := range values {
		res.Values[i] = api.Float(x)
	}
	return res, nil
}

// topK returns the k highest-ranked vertices, best first (see rank). It
// keeps them in a k-sized heap whose root is the worst kept, so a request
// costs O(V log k) time and O(k) space instead of a sort of every vertex.
func topK(values []float64, k int) []api.VertexValue {
	h := make([]api.VertexValue, 0, min(k, len(values)))
	for v, x := range values {
		c := api.VertexValue{Vertex: v, Value: api.Float(x)}
		if len(h) < k {
			h = append(h, c)
			for i := len(h) - 1; i > 0 && rank(h[i], h[(i-1)/2]) > 0; i = (i - 1) / 2 {
				h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			}
			continue
		}
		if rank(c, h[0]) >= 0 {
			continue
		}
		h[0] = c
		for i := 0; ; {
			w, l, r := i, 2*i+1, 2*i+2
			if l < len(h) && rank(h[l], h[w]) > 0 {
				w = l
			}
			if r < len(h) && rank(h[r], h[w]) > 0 {
				w = r
			}
			if w == i {
				break
			}
			h[i], h[w] = h[w], h[i]
			i = w
		}
	}
	slices.SortFunc(h, rank)
	return h
}

// rank orders results for ?top=K: value descending, NaN below every
// number, ties by vertex ID ascending. It is negative when a ranks first.
func rank(a, b api.VertexValue) int {
	if c := cmp.Compare(b.Value, a.Value); c != 0 {
		return c
	}
	return cmp.Compare(a.Vertex, b.Vertex)
}

// wireVertexID converts a wire float to a vertex id, rejecting values an
// unchecked float→uint32 conversion would map to implementation-specific
// garbage (negatives, non-integers, NaN/Inf, ids at or past the NoVertex
// sentinel).
func wireVertexID(x float64) (model.VertexID, *api.Error) {
	if math.IsNaN(x) || x < 0 || x >= float64(model.NoVertex) || x != math.Trunc(x) {
		return 0, api.Errorf(api.CodeBadRequest, "bad vertex id %v (want an integer in [0,%d))", x, uint64(model.NoVertex))
	}
	return model.VertexID(x), nil
}

// wireEdge converts one wire [src, dst, weight] triple.
func wireEdge(e [3]float64) (model.Edge, *api.Error) {
	src, aerr := wireVertexID(e[0])
	if aerr != nil {
		return model.Edge{}, aerr
	}
	dst, aerr := wireVertexID(e[1])
	if aerr != nil {
		return model.Edge{}, aerr
	}
	return model.Edge{Src: src, Dst: dst, Weight: float32(e[2])}, nil
}

// IngestSnapshot applies one wire-form snapshot (a slot rewrite of the
// base edge list) at the given timestamp.
func (s *Service) IngestSnapshot(snap api.Snapshot) (api.SnapshotAck, *api.Error) {
	edges := make([]model.Edge, len(snap.Edges))
	for i, e := range snap.Edges {
		edge, aerr := wireEdge(e)
		if aerr != nil {
			return api.SnapshotAck{}, aerr
		}
		edges[i] = edge
	}
	if err := s.AddSnapshot(edges, snap.Timestamp); err != nil {
		return api.SnapshotAck{}, &api.Error{Code: api.CodeBadRequest, Message: err.Error()}
	}
	return api.SnapshotAck{Timestamp: snap.Timestamp, Edges: len(edges)}, nil
}

// IngestDelta streams one wire-form mutation batch into the system's delta
// pipeline. Unlike IngestSnapshot it ships only the changed slots — or,
// for the structural ops (add_edge, remove_edge, add_vertex), the changed
// topology; the pipeline coalesces batches and materializes incrementally
// re-chunked snapshots per its batching window. When the ingest admission
// cap is reached the batch is shed with ingest_saturated (HTTP 429). Each
// accepted batch is wrapped in an "ingest.accept" span parented under ctx's
// span (if any); the pipeline chains its flush and materialize spans off
// the first batch of each coalescing window.
func (s *Service) IngestDelta(ctx context.Context, delta api.Delta) (api.DeltaAck, *api.Error) {
	d := cgraph.Delta{Timestamp: delta.Timestamp, Flush: delta.Flush, RequestID: requestIDFrom(ctx)}
	d.Mutations = make([]cgraph.Mutation, len(delta.Mutations))
	for i, m := range delta.Mutations {
		var op cgraph.MutationOp
		switch m.Op {
		case "", api.MutationRewrite:
			op = cgraph.MutationRewrite
		case api.MutationAdd:
			op = cgraph.MutationAdd
		case api.MutationRemove:
			op = cgraph.MutationRemove
		case api.MutationAddVertex:
			op = cgraph.MutationAddVertex
		default:
			return api.DeltaAck{}, api.Errorf(api.CodeBadRequest, "unsupported mutation op %q", m.Op)
		}
		edge, aerr := wireEdge(m.Edge)
		if aerr != nil {
			return api.DeltaAck{}, aerr
		}
		d.Mutations[i] = cgraph.Mutation{
			Op:     op,
			Slot:   m.Slot,
			Vertex: model.VertexID(m.Vertex),
			Edge:   edge,
		}
	}
	accept := s.sys.SpanTracer().StartSpan(span.FromContext(ctx), "ingest.accept")
	defer accept.End()
	accept.Attr(span.Int("mutations", int64(len(delta.Mutations))), span.Bool("flush", delta.Flush))
	d.Span = accept.Context()
	ack, err := s.sys.ApplyDelta(d)
	if err != nil {
		accept.Attr(span.Str("error", err.Error()))
		if errors.Is(err, cgraph.ErrIngestSaturated) {
			s.log.Warn("delta batch shed",
				"trigger", "admission_cap",
				"mutations", len(delta.Mutations),
				"timestamp", delta.Timestamp,
				"request_id", d.RequestID)
			return api.DeltaAck{}, &api.Error{Code: api.CodeIngestSaturated, Message: err.Error()}
		}
		return api.DeltaAck{}, &api.Error{Code: api.CodeBadRequest, Message: err.Error()}
	}
	accept.Attr(span.Int("accepted", int64(ack.Accepted)), span.Int("pending", int64(ack.Pending)), span.Bool("flushed", ack.Flushed))
	return api.DeltaAck(ack), nil
}

// SpansOf returns one job's retained span tree plus its resource
// attribution. Only job-attributed spans appear — the tree is identical
// through the in-process and HTTP clients; transport spans of the same
// trace are served by TraceSpansOf.
func (s *Service) SpansOf(id string) (api.JobSpans, *api.Error) {
	var traceID string
	if j, ok := s.Get(id); ok {
		traceID = j.TraceID()
	} else if e, ok := s.historyEntry(id); ok {
		traceID = e.st.TraceID
	} else {
		return api.JobSpans{}, api.Errorf(api.CodeNotFound, "unknown job %q", id)
	}
	spans := s.sys.SpanTracer().JobSpans(id)
	out := api.JobSpans{ID: id, TraceID: traceID, Spans: wireSpans(spans)}
	if a, ok := attributionOf(id, traceID, spans); ok {
		out.Attribution = &a
	}
	return out, nil
}

// TraceSpansOf returns every retained span of one trace, oldest first —
// job spans plus the transport and ingest spans sharing the trace ID.
func (s *Service) TraceSpansOf(traceID string) (api.SpanList, *api.Error) {
	t, err := span.ParseTraceID(traceID)
	if err != nil {
		return api.SpanList{}, api.Errorf(api.CodeBadRequest, "bad trace_id %q: %v", traceID, err)
	}
	return api.SpanList{TraceID: traceID, Spans: wireSpans(s.sys.SpanTracer().Spans(t))}, nil
}

// wireSpans converts stored spans to their wire form, preserving order.
func wireSpans(ds []span.Data) []api.Span {
	out := make([]api.Span, len(ds))
	for i, d := range ds {
		out[i] = wireSpan(d)
	}
	return out
}

// wireSpan converts one stored span, rendering typed attributes to strings.
func wireSpan(d span.Data) api.Span {
	w := api.Span{
		TraceID:        d.Trace.String(),
		SpanID:         d.ID.String(),
		Name:           d.Name,
		Job:            d.Job,
		Start:          d.StartWall,
		End:            d.EndWall,
		StartVirtualUS: d.StartVirtualUS,
		EndVirtualUS:   d.EndVirtualUS,
	}
	if !d.EndWall.IsZero() {
		w.DurationMS = float64(d.EndWall.Sub(d.StartWall)) / float64(time.Millisecond)
	}
	if !d.Parent.IsZero() {
		w.Parent = d.Parent.String()
	}
	for _, a := range d.Attrs {
		w.Attrs = append(w.Attrs, api.SpanAttr{Key: a.Key, Value: a.Value()})
	}
	return w
}

// attributionOf folds a job's retained spans into its resource account:
// queue wait and exec from the lifecycle spans, task/steal/skip counts and
// simulated time summed over its round spans, and the job's share of its
// rounds' makespan. ok is false when no spans survive in the
// store (all evicted).
func attributionOf(id, traceID string, spans []span.Data) (api.JobAttribution, bool) {
	if len(spans) == 0 {
		return api.JobAttribution{}, false
	}
	a := api.JobAttribution{ID: id, TraceID: traceID}
	var totalMS, roundsUS float64
	for _, d := range spans {
		switch d.Name {
		case "job.submit":
			if !d.EndWall.IsZero() {
				totalMS = float64(d.EndWall.Sub(d.StartWall)) / float64(time.Millisecond)
			}
		case "job.queue_wait":
			if !d.EndWall.IsZero() {
				a.QueueWaitMS = float64(d.EndWall.Sub(d.StartWall)) / float64(time.Millisecond)
			}
		case "job.round":
			a.Rounds++
			a.Tasks += int64(spanNum(d, "tasks"))
			a.TasksStolen += int64(spanNum(d, "stolen"))
			a.SkippedPartitions += int64(spanNum(d, "skipped_parts"))
			a.AccessUS += spanNum(d, "access_us")
			a.ComputeUS += spanNum(d, "compute_us")
			roundsUS += d.EndVirtualUS - d.StartVirtualUS
		}
	}
	if totalMS > a.QueueWaitMS {
		a.ExecMS = totalMS - a.QueueWaitMS
	}
	if roundsUS > 0 {
		a.MakespanShare = min((a.AccessUS+a.ComputeUS)/roundsUS, 1)
	}
	return a, true
}

// Readyz evaluates the service's readiness checks: the engine's round loop
// is serving, the ingest pipeline is below its admission cap, and the
// snapshot store is within its retention bound. Liveness is weaker — a
// process able to answer /v1/healthz at all is alive.
func (s *Service) Readyz() api.Health {
	s.mu.Lock()
	started, stopped, runErr := s.started, s.stopped, s.runErr
	s.mu.Unlock()
	h := api.Health{Status: "ok"}
	add := func(name string, ok bool, detail string) {
		h.Checks = append(h.Checks, api.HealthCheck{Name: name, OK: ok, Detail: detail})
		if !ok {
			h.Status = "unavailable"
		}
	}
	switch {
	case runErr != nil:
		add("engine", false, "round loop failed: "+runErr.Error())
	case !started:
		add("engine", false, "service not started")
	case stopped:
		add("engine", false, "service stopped")
	default:
		add("engine", true, "round loop serving")
	}
	ing := s.sys.IngestStats()
	if limit := s.sys.IngestCap(); limit > 0 && ing.Pending >= limit {
		add("ingest", false, fmt.Sprintf("saturated: %d pending at cap %d", ing.Pending, limit))
	} else {
		add("ingest", true, fmt.Sprintf("%d pending", ing.Pending))
	}
	if ing.RetainSnapshots > 0 && ing.SnapshotsLive > ing.RetainSnapshots {
		add("snapshots", false, fmt.Sprintf("%d live over retention %d", ing.SnapshotsLive, ing.RetainSnapshots))
	} else {
		add("snapshots", true, fmt.Sprintf("%d live", ing.SnapshotsLive))
	}
	return h
}

// VersionInfo identifies the build: the wire-contract version, the module
// version or VCS revision baked in by the toolchain, and the Go version. It
// reads the build info on every call — cheap (ReadBuildInfo returns a
// cached parse) and dependency-free.
func (s *Service) VersionInfo() api.VersionInfo {
	v := api.VersionInfo{API: api.Version, Version: "devel"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	v.GoVersion = info.GoVersion
	if mv := info.Main.Version; mv != "" && mv != "(devel)" {
		v.Version = mv
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" && kv.Value != "" {
			v.Version = kv.Value
			if len(v.Version) > 12 {
				v.Version = v.Version[:12]
			}
		}
	}
	return v
}

// MetricsInfo reports job-state counts (compacted history included),
// round-loop progress, and the scheduler's last plan in wire form.
func (s *Service) MetricsInfo() api.Metrics {
	m, _ := s.metricsSnapshot()
	return m
}

// metricsSnapshot builds MetricsInfo and returns the live statuses it
// counted, so the Prometheus handler lists jobs once per scrape. History,
// live handles, and eviction counters are copied under one lock hold
// (snapshotJobs): a job compacted mid-scrape is counted in exactly one
// bucket, and jobs evicted off the bounded ring stay counted, so the
// per-state totals never run backwards.
func (s *Service) metricsSnapshot() (api.Metrics, []api.JobStatus) {
	m := api.Metrics{
		Jobs: map[api.JobState]int{
			StateQueued: 0, StateRunning: 0, StateDone: 0, StateCancelled: 0, StateFailed: 0,
		},
		Sched:  s.SchedInfo(),
		Ingest: s.sys.IngestStats(),
	}
	history, jobs, evicted := s.snapshotJobs()
	for state, n := range evicted {
		m.Jobs[state] += n
	}
	for _, st := range history {
		m.Jobs[st.State]++
	}
	live := make([]api.JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status()
		live = append(live, st)
		m.Jobs[st.State]++
	}
	stats := s.sys.Stats()
	m.Rounds = stats.Rounds
	m.VirtualTimeUS = stats.VirtualTimeUS
	m.Exec = api.ExecInfo(s.sys.ExecStats())
	m.Attribution = s.attributions()
	return m, live
}

// attributions computes the per-job resource account of every job with at
// least one retained span, ordered by job ID. The span store bounds the
// list, so a scrape stays O(store capacity) regardless of job history.
func (s *Service) attributions() []api.JobAttribution {
	tracer := s.sys.SpanTracer()
	ids := tracer.Jobs()
	sort.Strings(ids)
	out := make([]api.JobAttribution, 0, len(ids))
	for _, id := range ids {
		ds := tracer.JobSpans(id)
		if len(ds) == 0 {
			continue
		}
		if a, ok := attributionOf(id, ds[0].Trace.String(), ds); ok {
			out = append(out, a)
		}
	}
	return out
}

// WatchJobFrom streams the job's events: a replay of its lifecycle so far,
// then live progress and state events. The channel closes after a
// terminal state event or when ctx ends. Compacted jobs replay their
// terminal summary. The replay skips events with Seq ≤ after, so a
// reconnecting watcher (SSE Last-Event-ID) picks up where its dropped
// stream left off instead of re-reading the job's full history; after = 0
// replays everything.
func (s *Service) WatchJobFrom(ctx context.Context, id string, after int64) (<-chan api.Event, *api.Error) {
	if _, ok := s.Get(id); ok {
		if ch, ok := s.events.subscribe(ctx, id, after); ok {
			return ch, nil
		}
		// Compacted between the lookup and the subscription; fall through.
	}
	if e, ok := s.historyEntry(id); ok {
		return replayTerminal(e.st, after), nil
	}
	return nil, api.Errorf(api.CodeNotFound, "unknown job %q", id)
}

// historyEntry finds a compacted job's history entry — status summary plus
// the engine job ID it ran under.
func (s *Service) historyEntry(id string) (histEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.history) - 1; i >= 0; i-- {
		if s.history[i].st.ID == id {
			return s.history[i], true
		}
	}
	return histEntry{}, false
}

// TraceOf builds one job's trace: the lifecycle envelope (wait → admit →
// exec, derived from the service-side timestamps) plus its rounds, read
// from the job's retained "job.round" spans. It works at any trace depth,
// for live jobs and for jobs compacted to history.
func (s *Service) TraceOf(id string) (api.JobTrace, *api.Error) {
	if j, ok := s.Get(id); ok {
		return s.jobTraceOf(j.Status()), nil
	}
	if e, ok := s.historyEntry(id); ok {
		return s.jobTraceOf(e.st), nil
	}
	return api.JobTrace{}, api.Errorf(api.CodeNotFound, "unknown job %q", id)
}

// jobTraceOf assembles the wire trace from a status snapshot and the job's
// "job.round" spans — the records attributionOf folds, so the trace, the
// span tree and the attribution cannot disagree. Each round a job runs
// closes one of its iterations, so the rounds the span store evicted are
// its iterations less the spans retained.
func (s *Service) jobTraceOf(st api.JobStatus) api.JobTrace {
	tr := api.JobTrace{
		ID:        st.ID,
		Algo:      st.Algo,
		State:     st.State,
		Submitted: st.Submitted,
		Started:   st.Started,
		Finished:  st.Finished,
		Released:  st.Released,
		Error:     st.Error,
		Rounds:    []api.JobRoundTrace{},
	}
	if st.Started != nil {
		tr.QueueWaitMS = float64(st.Started.Sub(st.Submitted)) / float64(time.Millisecond)
		end := time.Now()
		if st.Finished != nil {
			end = *st.Finished
		}
		tr.ExecMS = float64(end.Sub(*st.Started)) / float64(time.Millisecond)
	}
	for _, d := range s.sys.SpanTracer().JobSpans(st.ID) {
		if d.Name != "job.round" {
			continue
		}
		tr.Rounds = append(tr.Rounds, api.JobRoundTrace{
			Round:         int64(spanNum(d, "round")),
			WallUS:        float64(d.EndWall.Sub(d.StartWall)) / float64(time.Microsecond),
			Parts:         int(spanNum(d, "parts")),
			Pushes:        int(spanNum(d, "pushes")),
			AccessUS:      spanNum(d, "access_us"),
			ComputeUS:     spanNum(d, "compute_us"),
			VirtualTimeUS: d.EndVirtualUS,
		})
	}
	// A running job's status, read first, may already count the iteration
	// of a round whose span is still to be recorded, or miss one recorded
	// since; a terminal job's count is final.
	tr.DroppedRounds = max(st.Iterations-len(tr.Rounds), 0)
	return tr
}

// spanNum reads a numeric span attribute (0 when absent).
func spanNum(d span.Data, key string) float64 {
	a, _ := d.Attr(key)
	return a.Num
}

// RoundTraces reports the engine's retained round-trace ring in wire form,
// oldest first, with engine job IDs resolved to service job IDs. limit
// caps the records returned, newest retained (0 = the whole ring).
func (s *Service) RoundTraces(limit int) api.RoundTraces {
	out := api.RoundTraces{TraceDepth: s.sys.TraceDepth(), Rounds: []api.RoundTrace{}}
	recs := s.sys.RoundTraces(limit)
	if len(recs) == 0 {
		return out
	}
	byEngine := s.engineNameMap()
	for _, r := range recs {
		rt := api.RoundTrace{
			Round:             r.Round,
			Start:             r.Start,
			WallUS:            float64(r.Wall) / float64(time.Microsecond),
			VirtualTimeUS:     r.VirtualTimeUS,
			Units:             r.Units,
			MakespanUS:        r.MakespanUS,
			Tasks:             r.Tasks,
			Steals:            r.Steals,
			SkippedPartitions: r.Skipped,
		}
		for _, jr := range r.Jobs {
			rt.Jobs = append(rt.Jobs, wireJobRound(jr, engineJobName(byEngine, jr.JobID)))
		}
		out.Rounds = append(out.Rounds, rt)
	}
	return out
}

// wireJobRound converts one engine job-round record to its wire form; job
// is the resolved service job ID.
func wireJobRound(jr cgraph.JobRoundTrace, job string) api.JobRoundTrace {
	return api.JobRoundTrace{
		Job:           job,
		Round:         jr.Round,
		WallUS:        float64(jr.Wall) / float64(time.Microsecond),
		Parts:         jr.Parts,
		Pushes:        jr.Pushes,
		AccessUS:      jr.AccessUS,
		ComputeUS:     jr.ComputeUS,
		VirtualTimeUS: jr.VirtualTimeUS,
	}
}
