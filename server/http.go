package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"cgraph/api"
	"cgraph/internal/metrics"
	"cgraph/internal/span"
)

// Handler returns the versioned HTTP/JSON control plane over the service.
// Every request and response body is a wire type of package api, mounted
// under the api.PathPrefix ("/v1") route prefix:
//
//	POST   /v1/jobs               submit (api.JobSpec → api.JobStatus)
//	GET    /v1/jobs               list, ?limit=N&offset=M paginates history,
//	                              ?state=S and repeated ?label=k=v filter
//	GET    /v1/jobs/{id}          one job's status
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/jobs/{id}/results  converged values (?top=K for the K largest)
//	GET    /v1/jobs/{id}/events   server-sent event stream (api.Event)
//	GET    /v1/jobs/{id}/trace    round-by-round timeline (api.JobTrace)
//	GET    /v1/jobs/{id}/spans    retained span tree + attribution (api.JobSpans)
//	GET    /v1/trace/rounds       retained round traces, ?limit=N newest
//	GET    /v1/trace/spans        one trace's spans, ?trace_id= (api.SpanList)
//	POST   /v1/snapshots          ingest a graph version (api.Snapshot)
//	POST   /v1/deltas             stream a mutation batch (api.Delta)
//	GET    /v1/sched              the scheduler's last plan
//	GET    /v1/metrics            structured metrics (api.Metrics)
//	GET    /v1/healthz            liveness probe (api.Health)
//	GET    /v1/readyz             readiness probe with checks (api.Health)
//	GET    /v1/version            build and wire-contract version (api.VersionInfo)
//	GET    /metrics               Prometheus text exposition (unversioned)
//
// Errors are api.ErrorBody envelopes with machine-readable codes and
// never ride a 2xx status (results of an unfinished job answer 409
// not_ready, where the pre-versioning API used a bare 202); known routes
// hit with a wrong method answer 405 with an Allow header; the
// pre-versioning routes (/jobs, /results/{id}, /snapshots, /sched) answer
// 308 permanent redirects to their /v1 successors.
//
// The registry resolves algorithm names; pass nil for DefaultRegistry.
func (s *Service) Handler(reg Registry) http.Handler {
	if reg == nil {
		reg = DefaultRegistry()
	}
	h := &httpAPI{svc: s, reg: reg}
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathPrefix+"/jobs", methods(map[string]http.HandlerFunc{
		http.MethodPost: h.submit,
		http.MethodGet:  h.list,
	}))
	mux.HandleFunc(api.PathPrefix+"/jobs/{id}", methods(map[string]http.HandlerFunc{
		http.MethodGet:    h.get,
		http.MethodDelete: h.cancel,
	}))
	mux.HandleFunc(api.PathPrefix+"/jobs/{id}/results", methods(map[string]http.HandlerFunc{
		http.MethodGet: h.results,
	}))
	mux.HandleFunc(api.PathPrefix+"/jobs/{id}/events", methods(map[string]http.HandlerFunc{
		http.MethodGet: h.events,
	}))
	mux.HandleFunc(api.PathPrefix+"/jobs/{id}/trace", methods(map[string]http.HandlerFunc{
		http.MethodGet: h.trace,
	}))
	mux.HandleFunc(api.PathPrefix+"/jobs/{id}/spans", methods(map[string]http.HandlerFunc{
		http.MethodGet: h.jobSpans,
	}))
	mux.HandleFunc(api.PathPrefix+"/trace/spans", methods(map[string]http.HandlerFunc{
		http.MethodGet: h.traceSpans,
	}))
	mux.HandleFunc(api.PathPrefix+"/trace/rounds", methods(map[string]http.HandlerFunc{
		http.MethodGet: h.roundTraces,
	}))
	mux.HandleFunc(api.PathPrefix+"/snapshots", methods(map[string]http.HandlerFunc{
		http.MethodPost: h.snapshot,
	}))
	mux.HandleFunc(api.PathPrefix+"/deltas", methods(map[string]http.HandlerFunc{
		http.MethodPost: h.delta,
	}))
	mux.HandleFunc(api.PathPrefix+"/sched", methods(map[string]http.HandlerFunc{
		http.MethodGet: h.sched,
	}))
	mux.HandleFunc(api.PathPrefix+"/metrics", methods(map[string]http.HandlerFunc{
		http.MethodGet: h.metricsJSON,
	}))
	mux.HandleFunc(api.PathPrefix+"/healthz", methods(map[string]http.HandlerFunc{
		http.MethodGet: h.healthz,
	}))
	mux.HandleFunc(api.PathPrefix+"/readyz", methods(map[string]http.HandlerFunc{
		http.MethodGet: h.readyz,
	}))
	mux.HandleFunc(api.PathPrefix+"/version", methods(map[string]http.HandlerFunc{
		http.MethodGet: h.version,
	}))
	mux.HandleFunc("/metrics", methods(map[string]http.HandlerFunc{
		http.MethodGet: h.metrics,
	}))

	// Pre-versioning routes redirect permanently to their /v1 successors;
	// 308 preserves the method and body, so old clients keep working.
	legacy := func(target func(r *http.Request) string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			http.Redirect(w, r, target(r), http.StatusPermanentRedirect)
		}
	}
	mux.HandleFunc("/jobs", legacy(func(r *http.Request) string { return api.PathPrefix + "/jobs" }))
	mux.HandleFunc("/jobs/{id}", legacy(func(r *http.Request) string {
		return api.PathPrefix + "/jobs/" + r.PathValue("id")
	}))
	mux.HandleFunc("/results/{id}", legacy(func(r *http.Request) string {
		u := api.PathPrefix + "/jobs/" + r.PathValue("id") + "/results"
		if q := r.URL.RawQuery; q != "" {
			u += "?" + q
		}
		return u
	}))
	mux.HandleFunc("/snapshots", legacy(func(r *http.Request) string { return api.PathPrefix + "/snapshots" }))
	mux.HandleFunc("/sched", legacy(func(r *http.Request) string { return api.PathPrefix + "/sched" }))

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, api.Errorf(api.CodeNotFound, "no route %s", r.URL.Path))
	})
	return s.instrument(mux)
}

// instrument wraps the route mux with the service's HTTP observability:
// every request gets a request ID (the caller's X-Request-ID, or a
// service-assigned one — echoed back in the response header either way), an
// "http.request" span continuing the caller's W3C traceparent (or rooting a
// fresh trace), a latency observation labelled by route pattern, method,
// and status, and one structured log line carrying both IDs. The span
// context and request ID ride r.Context() into the handlers, so job and
// ingest spans parent under the request. Probe and scrape endpoints are
// exempt from span creation — they fire on a tight external cadence and
// would otherwise evict real request spans from the bounded store.
func (s *Service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = fmt.Sprintf("req-%d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", reqID)
		w.Header().Set(api.VersionHeader, api.Version)
		sw := &statusWriter{ResponseWriter: w}
		traceID := ""
		if !untraced(r.URL.Path) {
			parent, _ := span.ParseTraceparent(r.Header.Get(span.Traceparent))
			sp := s.sys.SpanTracer().StartSpan(parent, "http.request")
			defer sp.End()
			sp.Attr(span.Str("method", r.Method), span.Str("path", r.URL.Path), span.Str("request_id", reqID))
			traceID = sp.TraceID().String()
			w.Header().Set(api.TraceIDHeader, traceID)
			ctx := span.NewContext(r.Context(), sp.Context())
			r = r.WithContext(withRequestID(ctx, reqID))
			defer func() {
				sp.Attr(span.Str("route", routeOf(r)), span.Int("status", int64(sw.statusOr200())))
			}()
		} else {
			r = r.WithContext(withRequestID(r.Context(), reqID))
		}
		next.ServeHTTP(sw, r)
		status := sw.statusOr200()
		route := routeOf(r)
		elapsed := time.Since(start)
		s.obs.httpLatency.With(route, r.Method, strconv.Itoa(status)).Observe(elapsed.Seconds())
		s.log.Info("http request",
			"request_id", reqID,
			"trace_id", traceID,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", status,
			"duration_ms", durationMS(elapsed))
	})
}

// untraced reports whether the path is exempt from span creation: probes
// and metric scrapes arrive on a fixed external cadence and would flood the
// bounded span store with noise.
func untraced(path string) bool {
	switch path {
	case "/metrics", api.PathPrefix + "/metrics", api.PathPrefix + "/healthz", api.PathPrefix + "/readyz":
		return true
	}
	return false
}

// routeOf returns the mux's matched pattern: the mux records it on the
// request during dispatch, so the label aggregates by template
// ("/v1/jobs/{id}") instead of exploding per job ID.
func routeOf(r *http.Request) string {
	if r.Pattern == "" {
		return "unmatched"
	}
	return r.Pattern
}

// reqIDKey carries the middleware-assigned request ID through
// context.Context into the transport-neutral service methods, which join
// engine and ingest log lines back to the request.
type reqIDKey struct{}

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// requestIDFrom extracts the request ID planted by the HTTP middleware
// (empty for in-process callers without one).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// statusWriter captures the response status for the middleware. It
// forwards Flush so SSE streaming through the wrapper keeps working.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// statusOr200 reports the captured status, defaulting to 200 when the
// handler never wrote one explicitly.
func (w *statusWriter) statusOr200() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

type httpAPI struct {
	svc *Service
	reg Registry
}

// methods dispatches by HTTP method and answers 405 (with an Allow header
// and an api.Error body) for known routes hit with the wrong method.
func methods(m map[string]http.HandlerFunc) http.HandlerFunc {
	allowed := make([]string, 0, len(m))
	for k := range m {
		allowed = append(allowed, k)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		if h, ok := m[r.Method]; ok {
			h(w, r)
			return
		}
		// HEAD rides the GET handler (net/http elides the body), matching
		// ServeMux's method-pattern semantics for probes like `curl -I`.
		if r.Method == http.MethodHead {
			if h, ok := m[http.MethodGet]; ok {
				h(w, r)
				return
			}
		}
		w.Header().Set("Allow", allow)
		writeError(w, api.Errorf(api.CodeMethodNotAllowed,
			"method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow))
	}
}

func (h *httpAPI) submit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec api.JobSpec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "bad request body: %v", err))
		return
	}
	st, aerr := h.svc.SubmitSpec(r.Context(), h.reg, spec)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (h *httpAPI) list(w http.ResponseWriter, r *http.Request) {
	var opts api.ListOptions
	var err error
	if opts.Limit, err = queryInt(r, "limit"); err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	if opts.Offset, err = queryInt(r, "offset"); err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	opts.State = api.JobState(r.URL.Query().Get("state"))
	for _, kv := range r.URL.Query()["label"] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			writeError(w, api.Errorf(api.CodeBadRequest, "bad label filter %q, want key=value", kv))
			return
		}
		// Filters AND together, and a job carries one value per key — a
		// repeated key with a different value can never match, so reject
		// it instead of silently letting the last one win.
		if prev, dup := opts.Labels[k]; dup && prev != v {
			writeError(w, api.Errorf(api.CodeBadRequest, "conflicting label filters for %q (%q vs %q)", k, prev, v))
			return
		}
		if opts.Labels == nil {
			opts.Labels = map[string]string{}
		}
		opts.Labels[k] = v
	}
	list, aerr := h.svc.ListJobs(opts)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, list)
}

func (h *httpAPI) sched(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.svc.SchedInfo())
}

func (h *httpAPI) trace(w http.ResponseWriter, r *http.Request) {
	tr, aerr := h.svc.TraceOf(r.PathValue("id"))
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

func (h *httpAPI) roundTraces(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit")
	if err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, h.svc.RoundTraces(limit))
}

func (h *httpAPI) jobSpans(w http.ResponseWriter, r *http.Request) {
	js, aerr := h.svc.SpansOf(r.PathValue("id"))
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, js)
}

func (h *httpAPI) traceSpans(w http.ResponseWriter, r *http.Request) {
	traceID := r.URL.Query().Get("trace_id")
	if traceID == "" {
		writeError(w, api.Errorf(api.CodeBadRequest, "missing trace_id query parameter"))
		return
	}
	sl, aerr := h.svc.TraceSpansOf(traceID)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, sl)
}

// healthz is the liveness probe: a process that can run this handler at
// all is alive, so it always answers 200 with no checks.
func (h *httpAPI) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.Health{Status: "ok"})
}

// readyz is the readiness probe: 200 when every check passes, 503 with the
// failing checks itemized otherwise, so orchestrators stop routing to a
// saturated or stopped service without killing it.
func (h *httpAPI) readyz(w http.ResponseWriter, r *http.Request) {
	health := h.svc.Readyz()
	status := http.StatusOK
	if health.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, health)
}

func (h *httpAPI) version(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.svc.VersionInfo())
}

func (h *httpAPI) get(w http.ResponseWriter, r *http.Request) {
	st, aerr := h.svc.StatusOf(r.PathValue("id"))
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *httpAPI) cancel(w http.ResponseWriter, r *http.Request) {
	st, aerr := h.svc.CancelJob(r.PathValue("id"))
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *httpAPI) results(w http.ResponseWriter, r *http.Request) {
	var opts api.ResultsOptions
	var err error
	if opts.Top, err = queryInt(r, "top"); err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	res, aerr := h.svc.ResultsOf(r.PathValue("id"), opts)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// events streams the job's event channel as server-sent events: the SSE
// "id" field carries Event.Seq, "event" the Event.Type, and "data" the
// api.Event JSON document. The stream ends after a terminal state event.
// A reconnecting client sends the standard Last-Event-ID header with the
// last Seq it saw; the replay resumes strictly after it instead of
// re-sending the job's full history.
func (h *httpAPI) events(w http.ResponseWriter, r *http.Request) {
	var after int64
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			writeError(w, api.Errorf(api.CodeBadRequest, "bad Last-Event-ID %q", raw))
			return
		}
		after = v
	}
	ch, aerr := h.svc.WatchJobFrom(r.Context(), r.PathValue("id"), after)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	for ev := range ch {
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
}

func (h *httpAPI) snapshot(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var snap api.Snapshot
	if err := dec.Decode(&snap); err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "bad request body: %v", err))
		return
	}
	ack, aerr := h.svc.IngestSnapshot(snap)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (h *httpAPI) delta(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var delta api.Delta
	if err := dec.Decode(&delta); err != nil {
		writeError(w, api.Errorf(api.CodeBadRequest, "bad request body: %v", err))
		return
	}
	ack, aerr := h.svc.IngestDelta(r.Context(), delta)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (h *httpAPI) metricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.svc.MetricsInfo())
}

func (h *httpAPI) metrics(w http.ResponseWriter, r *http.Request) {
	e := metrics.NewTextExposition()
	e.Declare("cgraph_jobs", "gauge", "Jobs by lifecycle state, compacted history included.")
	info, statuses := h.svc.metricsSnapshot()
	for _, state := range []State{StateQueued, StateRunning, StateDone, StateCancelled, StateFailed} {
		e.Add("cgraph_jobs", map[string]string{"state": string(state)}, float64(info.Jobs[state]))
	}
	e.Declare("cgraph_engine_rounds_total", "counter", "LTP rounds processed by the engine.")
	e.Add("cgraph_engine_rounds_total", nil, float64(info.Rounds))
	e.Declare("cgraph_engine_virtual_time_us", "gauge", "Engine virtual clock, simulated microseconds.")
	e.Add("cgraph_engine_virtual_time_us", nil, info.VirtualTimeUS)
	sched := info.Sched
	e.Declare("cgraph_sched_theta", "gauge", "Fitted Eq. 1 theta of the partition scheduler.")
	e.Add("cgraph_sched_theta", map[string]string{"policy": sched.Policy}, sched.Theta)
	e.Declare("cgraph_sched_theta_refits_total", "counter", "Times theta was (re)fitted after snapshot arrivals or C drift.")
	e.Add("cgraph_sched_theta_refits_total", nil, float64(sched.ThetaRefits))
	e.Declare("cgraph_sched_groups", "gauge", "Groups planned in the engine's last round (one: every job is planned together).")
	e.Add("cgraph_sched_groups", nil, float64(len(sched.Groups)))
	e.Declare("cgraph_sched_group_makespan_us", "gauge", "Virtual time the last round's group advanced the engine clock by.")
	e.Declare("cgraph_sched_group_jobs", "gauge", "Jobs in the last round's group.")
	for gi, g := range sched.Groups {
		labels := map[string]string{"group": strconv.Itoa(gi)}
		e.Add("cgraph_sched_group_makespan_us", labels, g.MakespanUS)
		e.Add("cgraph_sched_group_jobs", labels, float64(len(g.Jobs)))
	}
	ex := info.Exec
	e.Declare("cgraph_exec_workers", "gauge", "Effective worker count of the work-stealing execution pool.")
	e.Add("cgraph_exec_workers", nil, float64(ex.Workers))
	e.Declare("cgraph_exec_balance", "gauge", "Balance factor the virtual clock prices the Fig. 6 straggler split with.")
	e.Add("cgraph_exec_balance", nil, ex.Balance)
	e.Declare("cgraph_exec_tasks_total", "counter", "Tasks executed by the work-stealing pool.")
	e.Add("cgraph_exec_tasks_total", nil, float64(ex.Tasks))
	e.Declare("cgraph_exec_steals_total", "counter", "Successful steal operations between pool workers.")
	e.Add("cgraph_exec_steals_total", nil, float64(ex.Steals))
	e.Declare("cgraph_exec_stolen_tasks_total", "counter", "Tasks moved between workers by steals.")
	e.Add("cgraph_exec_stolen_tasks_total", nil, float64(ex.Stolen))
	e.Declare("cgraph_exec_skipped_partitions_total", "counter", "Converged (job, partition) pairs skipped before scheduling (empty frontier).")
	e.Add("cgraph_exec_skipped_partitions_total", nil, float64(ex.SkippedPartitions))
	e.Declare("cgraph_exec_imbalance", "gauge", "Work-weighted imbalance of last round's pool runs dispatched to more than one worker, x workers (1.0 = even or none dispatched).")
	e.Add("cgraph_exec_imbalance", nil, ex.LastImbalance)
	ing := info.Ingest
	e.Declare("cgraph_ingest_batches_total", "counter", "Delta batches accepted by the ingestion pipeline.")
	e.Add("cgraph_ingest_batches_total", nil, float64(ing.Batches))
	e.Declare("cgraph_ingest_mutations_total", "counter", "Edge mutations accepted by the ingestion pipeline.")
	e.Add("cgraph_ingest_mutations_total", nil, float64(ing.Mutations))
	e.Declare("cgraph_ingest_ops_total", "counter", "Accepted edge mutations by op.")
	e.Add("cgraph_ingest_ops_total", map[string]string{"op": "rewrite"}, float64(ing.Rewrites))
	e.Add("cgraph_ingest_ops_total", map[string]string{"op": "add_edge"}, float64(ing.EdgeAdds))
	e.Add("cgraph_ingest_ops_total", map[string]string{"op": "remove_edge"}, float64(ing.EdgeRemoves))
	e.Add("cgraph_ingest_ops_total", map[string]string{"op": "add_vertex"}, float64(ing.VertexAdds))
	e.Declare("cgraph_ingest_shed_total", "counter", "Delta batches shed by the ingest admission cap.")
	e.Add("cgraph_ingest_shed_total", nil, float64(ing.Shed))
	e.Declare("cgraph_ingest_flushes_total", "counter", "Pipeline flushes by trigger.")
	e.Add("cgraph_ingest_flushes_total", map[string]string{"trigger": "count"}, float64(ing.CountFlushes))
	e.Add("cgraph_ingest_flushes_total", map[string]string{"trigger": "age"}, float64(ing.AgeFlushes))
	e.Add("cgraph_ingest_flushes_total", map[string]string{"trigger": "manual"}, float64(ing.ManualFlushes))
	e.Declare("cgraph_ingest_pending", "gauge", "Mutations buffered awaiting a flush (distinct slots).")
	e.Add("cgraph_ingest_pending", nil, float64(ing.Pending))
	e.Declare("cgraph_ingest_shared_ratio", "gauge", "Partitions pointer-shared vs rebuilt across delta-built snapshots.")
	e.Add("cgraph_ingest_shared_ratio", nil, ing.SharedRatio)
	e.Declare("cgraph_ingest_compactions_total", "counter", "Hole-compaction passes: flushes that squeezed removal tombstones out of the edge list.")
	e.Add("cgraph_ingest_compactions_total", nil, float64(ing.Compactions))
	e.Declare("cgraph_snapshots_live", "gauge", "Snapshots retained in the global table.")
	e.Add("cgraph_snapshots_live", nil, float64(ing.SnapshotsLive))
	e.Declare("cgraph_snapshots_evicted_total", "counter", "Snapshots evicted by the retention policy.")
	e.Add("cgraph_snapshots_evicted_total", nil, float64(ing.SnapshotsEvicted))
	e.Declare("cgraph_snapshot_window_oldest_seq", "gauge", "Series index of the oldest retained snapshot; older bindings resolve here.")
	e.Add("cgraph_snapshot_window_oldest_seq", nil, float64(ing.OldestSeq))
	e.Declare("cgraph_snapshot_window_oldest_timestamp", "gauge", "Timestamp of the oldest retained snapshot.")
	e.Add("cgraph_snapshot_window_oldest_timestamp", nil, float64(ing.OldestTimestamp))
	e.Declare("cgraph_snapshot_window_newest_seq", "gauge", "Series index of the newest retained snapshot.")
	e.Add("cgraph_snapshot_window_newest_seq", nil, float64(ing.NewestSeq))
	e.Declare("cgraph_snapshot_window_newest_timestamp", "gauge", "Timestamp of the newest retained snapshot.")
	e.Add("cgraph_snapshot_window_newest_timestamp", nil, float64(ing.NewestTimestamp))
	e.Declare("cgraph_graph_vertices", "gauge", "Vertex space of the newest snapshot; structural deltas grow it.")
	e.Add("cgraph_graph_vertices", nil, float64(ing.NumVertices))
	e.Declare("cgraph_job_iterations", "gauge", "Iterations to convergence, per finished job.")
	e.Declare("cgraph_job_edges_processed", "counter", "Edges processed, per finished job.")
	e.Declare("cgraph_job_simulated_access_us", "gauge", "Simulated data-access time, per finished job.")
	e.Declare("cgraph_job_simulated_compute_us", "gauge", "Simulated compute time, per finished job.")
	for _, st := range statuses {
		if st.State != StateDone {
			continue
		}
		labels := map[string]string{"id": st.ID, "algo": st.Algo}
		e.Add("cgraph_job_iterations", labels, float64(st.Iterations))
		e.Add("cgraph_job_edges_processed", labels, float64(st.EdgesProcessed))
		e.Add("cgraph_job_simulated_access_us", labels, st.SimulatedAccessUS)
		e.Add("cgraph_job_simulated_compute_us", labels, st.SimulatedComputeUS)
	}
	obs := h.svc.obs
	e.Declare("cgraph_round_duration_seconds", "histogram", "Wall-clock LTP round duration, traced or not.")
	e.AddHistogram("cgraph_round_duration_seconds", nil, h.svc.sys.RoundDurationStats())
	e.Declare("cgraph_job_queue_wait_seconds", "histogram", "Job submission to engine admission.")
	e.AddHistogram("cgraph_job_queue_wait_seconds", nil, obs.queueWait.Snapshot())
	e.Declare("cgraph_job_exec_seconds", "histogram", "Job engine admission to terminal state, by algorithm.")
	addHistogramVec(e, "cgraph_job_exec_seconds", obs.exec)
	e.Declare("cgraph_ingest_flush_seconds", "histogram", "Delta-pipeline flush latency by trigger.")
	addHistogramVec(e, "cgraph_ingest_flush_seconds", obs.ingestFlush)
	e.Declare("cgraph_ingest_flush_batch_size", "histogram", "Coalesced mutations drained per flush.")
	e.AddHistogram("cgraph_ingest_flush_batch_size", nil, obs.ingestBatch.Snapshot())
	e.Declare("cgraph_delta_materialize_seconds", "histogram", "Snapshot materialization latency by path (overlay vs restructure).")
	addHistogramVec(e, "cgraph_delta_materialize_seconds", obs.materialize)
	e.Declare("cgraph_http_request_seconds", "histogram", "HTTP request latency by route pattern, method, and status.")
	addHistogramVec(e, "cgraph_http_request_seconds", obs.httpLatency)
	tr := h.svc.sys.SpanTracer().Stats()
	e.Declare("cgraph_span_started_total", "counter", "Spans opened since process start (retro-recorded spans count as started and ended).")
	e.Add("cgraph_span_started_total", nil, float64(tr.Started))
	e.Declare("cgraph_span_ended_total", "counter", "Spans ended and recorded into the bounded store.")
	e.Add("cgraph_span_ended_total", nil, float64(tr.Ended))
	e.Declare("cgraph_span_evicted_total", "counter", "Spans dropped FIFO from the full span store.")
	e.Add("cgraph_span_evicted_total", nil, float64(tr.Evicted))
	e.Declare("cgraph_span_store_spans", "gauge", "Spans currently retained in the bounded store.")
	e.Add("cgraph_span_store_spans", nil, float64(tr.StoreSpans))
	e.Declare("cgraph_span_store_traces", "gauge", "Distinct traces currently retained in the bounded store.")
	e.Add("cgraph_span_store_traces", nil, float64(tr.StoreTraces))
	e.Declare("cgraph_span_store_capacity", "gauge", "Capacity bound of the span store.")
	e.Add("cgraph_span_store_capacity", nil, float64(tr.Capacity))
	ready := 0.0
	if h.svc.Readyz().Status == "ok" {
		ready = 1
	}
	e.Declare("cgraph_ready", "gauge", "1 when every readiness check passes, 0 otherwise.")
	e.Add("cgraph_ready", nil, ready)
	v := buildVersion()
	e.Declare("cgraph_build_info", "gauge", "Build identity carried in the labels; the value is always 1.")
	e.Add("cgraph_build_info", map[string]string{"version": v.Version, "go_version": v.GoVersion, "api": v.API}, 1)
	e.Declare("cgraph_job_attrib_queue_wait_seconds", "gauge", "Queue wait per job, from the retained span tree.")
	e.Declare("cgraph_job_attrib_exec_seconds", "gauge", "Exec wall time per job, from the retained span tree.")
	e.Declare("cgraph_job_attrib_rounds", "gauge", "Rounds the job participated in, as retained by the span store.")
	e.Declare("cgraph_job_attrib_tasks", "gauge", "Executor tasks per job by kind (executed vs stolen to another worker).")
	e.Declare("cgraph_job_attrib_skipped_partitions", "gauge", "Converged partitions skipped before scheduling, per job.")
	e.Declare("cgraph_job_attrib_makespan_share", "gauge", "Job's simulated time as a share of its rounds' makespan.")
	for _, a := range info.Attribution {
		labels := map[string]string{"id": a.ID}
		e.Add("cgraph_job_attrib_queue_wait_seconds", labels, a.QueueWaitMS/1000)
		e.Add("cgraph_job_attrib_exec_seconds", labels, a.ExecMS/1000)
		e.Add("cgraph_job_attrib_rounds", labels, float64(a.Rounds))
		e.Add("cgraph_job_attrib_tasks", map[string]string{"id": a.ID, "kind": "executed"}, float64(a.Tasks))
		e.Add("cgraph_job_attrib_tasks", map[string]string{"id": a.ID, "kind": "stolen"}, float64(a.TasksStolen))
		e.Add("cgraph_job_attrib_skipped_partitions", labels, float64(a.SkippedPartitions))
		e.Add("cgraph_job_attrib_makespan_share", labels, a.MakespanShare)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.WriteTo(w)
}

// addHistogramVec renders every child of a labelled histogram into the
// exposition.
func addHistogramVec(e *metrics.TextExposition, name string, v *metrics.HistogramVec) {
	for _, ls := range v.Snapshots() {
		e.AddHistogram(name, ls.Labels, ls.HistogramSnapshot)
	}
}

// queryInt parses an optional non-negative integer query parameter.
func queryInt(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad %s %q", name, raw)
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, e *api.Error) {
	writeJSON(w, e.HTTPStatus(), api.ErrorBody{Error: e})
}
