package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cgraph"
	"cgraph/api"
	"cgraph/client"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/refimpl"
	"cgraph/model"
	"cgraph/server"
)

// spinProgram never converges; cancellation legs stay deterministic.
type spinProgram struct{}

func (spinProgram) Name() string                { return "Spin" }
func (spinProgram) Direction() model.Direction  { return model.Out }
func (spinProgram) Identity() float64           { return 0 }
func (spinProgram) Acc(a, c float64) float64    { return a + c }
func (spinProgram) IsActive(s model.State) bool { return true }
func (spinProgram) Init(v model.VertexID, g model.GraphInfo) (model.State, bool) {
	return model.State{}, true
}
func (spinProgram) Apply(v model.VertexID, s *model.State, deg int) (float64, bool) {
	s.Delta = 0
	return 1, true
}
func (spinProgram) Contribution(seed float64, w float32) float64 { return seed }

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// harness starts a service with its HTTP control plane and returns both
// Client implementations over it, plus the edge list for verification.
func harness(t *testing.T, cfg server.Config) (local, remote cgraph.Client, edges []model.Edge) {
	t.Helper()
	edges = gen.RMAT(41, 300, 5000, 0.57, 0.19, 0.19)
	sys := cgraph.NewSystem(cgraph.WithWorkers(2), cgraph.WithCoreSubgraph(false), cgraph.WithTraceDepth(64))
	if err := sys.LoadEdges(300, edges); err != nil {
		t.Fatal(err)
	}
	svc := server.New(sys, cfg)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Stop(ctx)
	})
	reg := server.DefaultRegistry()
	reg["spin"] = func(server.ProgramParams) model.Program { return spinProgram{} }
	ts := httptest.NewServer(svc.Handler(reg))
	t.Cleanup(ts.Close)
	return server.NewLocalClient(svc, reg), client.New(ts.URL, client.WithHTTPClient(ts.Client())), edges
}

// lifecycle drives one submit→watch→results cycle through a Client and
// returns the observed event sequence (type/state pairs) and final status.
func lifecycle(t *testing.T, ctx context.Context, c cgraph.Client, spec api.JobSpec) (seq []string, st api.JobStatus, res api.Results) {
	t.Helper()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	events, err := c.Watch(ctx, st.ID)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	sawProgress := false
	var lastSeq int64
	for ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("events out of order: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case api.EventState:
			seq = append(seq, "state:"+string(ev.State))
		case api.EventProgress:
			// Coalesce for comparison: progress cadence is timing-dependent.
			if !sawProgress {
				seq = append(seq, "progress")
				sawProgress = true
			}
			if ev.Iteration <= 0 {
				t.Fatalf("progress event without iteration: %+v", ev)
			}
		}
	}
	st, err = c.Get(ctx, st.ID)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if st.State == api.JobDone {
		res, err = c.Results(ctx, st.ID, api.ResultsOptions{})
		if err != nil {
			t.Fatalf("results: %v", err)
		}
	}
	return seq, st, res
}

// TestEndToEndHTTP drives submit→watch→results through a live HTTP server
// and verifies the result values against the reference implementation.
func TestEndToEndHTTP(t *testing.T) {
	_, remote, edges := harness(t, server.Config{})
	ctx := testCtx(t)

	seq, st, res := lifecycle(t, ctx, remote, api.JobSpec{
		Algo:   "pagerank",
		Labels: map[string]string{"tenant": "e2e"},
	})
	if st.State != api.JobDone || st.Iterations == 0 || st.Labels["tenant"] != "e2e" {
		t.Fatalf("final status = %+v", st)
	}
	if len(seq) < 2 || seq[len(seq)-1] != "state:done" {
		t.Fatalf("event sequence = %v, want …state:done", seq)
	}
	want := refimpl.PageRank(graph.Build(300, edges), 0.85, 1e-12, 3000)
	if len(res.Values) != len(want) {
		t.Fatalf("%d values, want %d", len(res.Values), len(want))
	}
	for v := range want {
		if math.Abs(float64(res.Values[v])-want[v]) > 1e-2*math.Max(1, want[v]) {
			t.Fatalf("vertex %d: got %v want %v", v, res.Values[v], want[v])
		}
	}

	// Top-K through the client.
	top, err := remote.Results(ctx, st.ID, api.ResultsOptions{Top: 7})
	if err != nil || len(top.Top) != 7 {
		t.Fatalf("top results: %v %+v", err, top)
	}

	// Typed errors round-trip: unknown job, unknown algorithm, not-ready.
	if _, err := remote.Get(ctx, "job-404"); !api.IsCode(err, api.CodeNotFound) {
		t.Fatalf("get unknown = %v, want not_found", err)
	}
	if _, err := remote.Submit(ctx, api.JobSpec{Algo: "nope"}); !api.IsCode(err, api.CodeUnknownAlgorithm) {
		t.Fatalf("unknown algo = %v, want unknown_algorithm", err)
	}
	spin, err := remote.Submit(ctx, api.JobSpec{Algo: "spin"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Results(ctx, spin.ID, api.ResultsOptions{}); !api.IsCode(err, api.CodeNotReady) {
		t.Fatalf("results of running job = %v, want not_ready", err)
	}
	if _, err := remote.Cancel(ctx, spin.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}

	// Snapshot ingestion and a snapshot-bound job through the client.
	mut, _ := gen.Mutate(edges, 0.05, 300, 7)
	snapEdges := make([][3]float64, len(mut))
	for i, e := range mut {
		snapEdges[i] = [3]float64{float64(e.Src), float64(e.Dst), float64(e.Weight)}
	}
	ack, err := remote.AddSnapshot(ctx, api.Snapshot{Timestamp: 20, Edges: snapEdges})
	if err != nil || ack.Edges != len(mut) {
		t.Fatalf("snapshot: %v %+v", err, ack)
	}
	ts := int64(20)
	seq2, st2, res2 := lifecycle(t, ctx, remote, api.JobSpec{Algo: "sssp", Source: 0, AtTimestamp: &ts})
	if st2.State != api.JobDone || seq2[len(seq2)-1] != "state:done" {
		t.Fatalf("snapshot job: %+v %v", st2, seq2)
	}
	wantSS := refimpl.SSSP(graph.Build(300, mut), 0)
	for v := range wantSS {
		got := float64(res2.Values[v])
		if got != wantSS[v] && !(math.IsInf(got, 1) && math.IsInf(wantSS[v], 1)) {
			t.Fatalf("post-snapshot sssp vertex %d: got %v want %v", v, got, wantSS[v])
		}
	}

	// Sched and metrics are reachable through the client.
	if si, err := remote.SchedInfo(ctx); err != nil || si.Policy == "" {
		t.Fatalf("sched: %v %+v", err, si)
	}
	if m, err := remote.Metrics(ctx); err != nil || m.Jobs[api.JobDone] < 2 {
		t.Fatalf("metrics: %v %+v", err, m)
	}
}

// TestClientParity is the acceptance check for the unified Client
// contract: the in-process and HTTP implementations observe identical job
// lifecycles — same event sequences, same terminal states, same values,
// same error codes — for a converging, a cancelled, and an erroneous flow.
func TestClientParity(t *testing.T) {
	local, remote, edges := harness(t, server.Config{})
	ctx := testCtx(t)
	want := refimpl.SSSP(graph.Build(300, edges), 2)

	type outcome struct {
		seq    []string
		state  api.JobState
		values []api.Float
	}
	run := func(c cgraph.Client) outcome {
		seq, st, res := lifecycle(t, ctx, c, api.JobSpec{Algo: "sssp", Source: 2})
		return outcome{seq: seq, state: st.State, values: res.Values}
	}
	a, b := run(local), run(remote)

	if a.state != api.JobDone || b.state != api.JobDone {
		t.Fatalf("states: local %v, http %v", a.state, b.state)
	}
	if len(a.seq) != len(b.seq) {
		t.Fatalf("event sequences differ: local %v, http %v", a.seq, b.seq)
	}
	for i := range a.seq {
		if a.seq[i] != b.seq[i] {
			t.Fatalf("event sequences differ at %d: local %v, http %v", i, a.seq, b.seq)
		}
	}
	for _, o := range []outcome{a, b} {
		if o.seq[0] != "state:queued" || o.seq[len(o.seq)-1] != "state:done" {
			t.Fatalf("lifecycle replay wrong: %v", o.seq)
		}
	}
	for v := range want {
		av, bv := float64(a.values[v]), float64(b.values[v])
		if av != bv && !(math.IsInf(av, 1) && math.IsInf(bv, 1)) {
			t.Fatalf("vertex %d: local %v, http %v", v, av, bv)
		}
		if av != want[v] && !(math.IsInf(av, 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("vertex %d: got %v want %v", v, av, want[v])
		}
	}

	// Cancelled flow: identical terminal events and error codes.
	cancelSeq := func(c cgraph.Client) (string, api.ErrorCode) {
		st, err := c.Submit(ctx, api.JobSpec{Algo: "spin"})
		if err != nil {
			t.Fatal(err)
		}
		events, err := c.Watch(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Cancel(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		var last api.Event
		for ev := range events {
			last = ev
		}
		if !last.Terminal() || last.Error == nil {
			t.Fatalf("cancel watch ended on %+v", last)
		}
		// Double cancel: both transports answer conflict.
		if _, err := c.Cancel(ctx, st.ID); !api.IsCode(err, api.CodeConflict) {
			t.Fatalf("double cancel = %v, want conflict", err)
		}
		return string(last.State), last.Error.Code
	}
	ls, lc := cancelSeq(local)
	rs, rc := cancelSeq(remote)
	if ls != rs || lc != rc {
		t.Fatalf("cancel parity: local (%s, %s) vs http (%s, %s)", ls, lc, rs, rc)
	}
	if ls != string(api.JobCancelled) || lc != api.CodeCancelled {
		t.Fatalf("cancel outcome = (%s, %s)", ls, lc)
	}

	// Bad-input parity: both transports reject a negative top identically.
	for name, c := range map[string]cgraph.Client{"local": local, "http": remote} {
		if _, err := c.Results(ctx, "job-0", api.ResultsOptions{Top: -1}); !api.IsCode(err, api.CodeBadRequest) {
			t.Fatalf("%s: negative top = %v, want bad_request", name, err)
		}
	}
}

// TestClientParityHistoryCompaction: both transports agree on compacted
// jobs too — listable history, released statuses, 410-coded results.
func TestClientParityHistoryCompaction(t *testing.T) {
	local, remote, _ := harness(t, server.Config{RetainTerminal: 1})
	ctx := testCtx(t)

	var first string
	for i := 0; i < 3; i++ {
		seq, st, _ := lifecycle(t, ctx, local, api.JobSpec{Algo: "bfs", Source: uint32(i)})
		if st.State != api.JobDone {
			t.Fatalf("job %d: %+v %v", i, st, seq)
		}
		if i == 0 {
			first = st.ID
		}
	}
	for name, c := range map[string]cgraph.Client{"local": local, "http": remote} {
		st, err := c.Get(ctx, first)
		if err != nil || !st.Released || st.State != api.JobDone {
			t.Fatalf("%s: compacted status = %+v, %v", name, st, err)
		}
		if _, err := c.Results(ctx, first, api.ResultsOptions{}); !api.IsCode(err, api.CodeReleased) {
			t.Fatalf("%s: compacted results = %v, want released", name, err)
		}
		list, err := c.List(ctx, api.ListOptions{Limit: 2})
		if err != nil || list.Total != 3 || len(list.Jobs) != 2 || list.Jobs[0].ID != first {
			t.Fatalf("%s: list = %+v, %v", name, list, err)
		}
		events, err := c.Watch(ctx, first)
		if err != nil {
			t.Fatalf("%s: watch compacted: %v", name, err)
		}
		var evs []api.Event
		for ev := range events {
			evs = append(evs, ev)
		}
		if len(evs) != 1 || !evs[0].Terminal() || evs[0].State != api.JobDone {
			t.Fatalf("%s: compacted replay = %+v", name, evs)
		}
	}
}

// TestClientRetriesIdempotent: GETs retry through transient 5xx failures;
// mutating requests do not.
func TestClientRetriesIdempotent(t *testing.T) {
	var gets, posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			if gets.Add(1) < 3 {
				http.Error(w, "boom", http.StatusBadGateway)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"id":"job-0","algo":"pagerank","state":"done","submitted_at":"2026-01-01T00:00:00Z"}`))
		case http.MethodPost:
			posts.Add(1)
			http.Error(w, "boom", http.StatusBadGateway)
		}
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(3, time.Millisecond))
	st, err := c.Get(testCtx(t), "job-0")
	if err != nil || st.State != api.JobDone {
		t.Fatalf("get after retries = %+v, %v", st, err)
	}
	if got := gets.Load(); got != 3 {
		t.Fatalf("gets = %d, want 3", got)
	}
	if _, err := c.Submit(testCtx(t), api.JobSpec{Algo: "pagerank"}); err == nil {
		t.Fatal("submit through 502 must fail")
	}
	if got := posts.Load(); got != 1 {
		t.Fatalf("posts = %d, want 1 (no retry on mutation)", got)
	}
	// The fallback error code is derived from the status when the body
	// carries no structured error.
	if _, err := c.Submit(testCtx(t), api.JobSpec{Algo: "x"}); !api.IsCode(err, api.CodeInternal) {
		t.Fatalf("unstructured 502 = %v, want internal", err)
	}
}

// TestClientDeltaAndFilterParity: ApplyDelta and the filtered List behave
// identically through the in-process and HTTP clients — same acks, same
// error codes, same filtered listings, same ingest metrics.
func TestClientDeltaAndFilterParity(t *testing.T) {
	ctx := testCtx(t)
	local, remote, _ := harness(t, server.Config{})
	clients := []struct {
		name string
		c    cgraph.Client
	}{{"local", local}, {"remote", remote}}

	// Validation errors carry the same machine-readable code on both
	// transports.
	for _, tc := range clients {
		_, err := tc.c.ApplyDelta(ctx, api.Delta{
			Mutations: []api.Mutation{{Slot: 1 << 30, Edge: [3]float64{1, 2, 1}}},
		})
		if !api.IsCode(err, api.CodeBadRequest) {
			t.Fatalf("%s: out-of-range slot = %v, want bad_request", tc.name, err)
		}
		_, err = tc.c.ApplyDelta(ctx, api.Delta{
			Mutations: []api.Mutation{{Op: "drop", Slot: 0, Edge: [3]float64{1, 2, 1}}},
		})
		if !api.IsCode(err, api.CodeBadRequest) {
			t.Fatalf("%s: unknown op = %v, want bad_request", tc.name, err)
		}
	}

	// Each client streams one flushed batch into the shared service; the
	// second snapshot must stamp after the first.
	ack1, err := remote.ApplyDelta(ctx, api.Delta{
		Mutations: []api.Mutation{{Slot: 0, Edge: [3]float64{5, 7, 2.25}}},
		Flush:     true,
	})
	if err != nil || !ack1.Flushed {
		t.Fatalf("remote delta = %+v, %v", ack1, err)
	}
	ack2, err := local.ApplyDelta(ctx, api.Delta{
		Mutations: []api.Mutation{{Slot: 1, Edge: [3]float64{8, 2, 1.75}}},
		Flush:     true,
	})
	if err != nil || !ack2.Flushed || ack2.Timestamp <= ack1.Timestamp {
		t.Fatalf("local delta = %+v, %v (after %+v)", ack2, err, ack1)
	}

	// Labelled jobs against the rolling series; drain them via Watch.
	var ids []string
	for _, spec := range []api.JobSpec{
		{Algo: "pagerank", Labels: map[string]string{"team": "growth"}},
		{Algo: "degree", Labels: map[string]string{"team": "infra"}},
	} {
		st, err := remote.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		events, err := remote.Watch(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		for range events {
		}
	}

	for _, tc := range clients {
		// An invalid state filter is rejected with the same code on both
		// transports.
		if _, err := tc.c.List(ctx, api.ListOptions{State: "bogus"}); !api.IsCode(err, api.CodeBadRequest) {
			t.Fatalf("%s: bogus state filter = %v, want bad_request", tc.name, err)
		}
		list, err := tc.c.List(ctx, api.ListOptions{State: api.JobDone, Labels: map[string]string{"team": "growth"}})
		if err != nil {
			t.Fatalf("%s: list: %v", tc.name, err)
		}
		if list.Total != 1 || len(list.Jobs) != 1 || list.Jobs[0].ID != ids[0] {
			t.Fatalf("%s: filtered list = %+v, want only %s", tc.name, list, ids[0])
		}
		empty, err := tc.c.List(ctx, api.ListOptions{State: api.JobFailed})
		if err != nil || empty.Total != 0 {
			t.Fatalf("%s: empty filter = %+v, %v", tc.name, empty, err)
		}
		m, err := tc.c.Metrics(ctx)
		if err != nil {
			t.Fatalf("%s: metrics: %v", tc.name, err)
		}
		ing := m.Ingest
		if ing.Batches != 2 || ing.SnapshotsBuilt != 2 || ing.SnapshotsLive != 3 || ing.PartsShared <= 0 {
			t.Fatalf("%s: ingest metrics = %+v", tc.name, ing)
		}
	}
}

// TestClientWatchReconnects: a dropped SSE stream is reconnected with the
// Last-Event-ID header, the server-side resume is honoured, and no event
// is delivered twice.
func TestClientWatchReconnects(t *testing.T) {
	writeEvent := func(w http.ResponseWriter, ev api.Event) {
		b, _ := json.Marshal(ev)
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, b)
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
	}
	var calls atomic.Int32
	var gotResume atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		switch calls.Add(1) {
		case 1:
			if r.Header.Get("Last-Event-ID") != "" {
				t.Error("first connection sent Last-Event-ID")
			}
			writeEvent(w, api.Event{Type: api.EventState, JobID: "job-0", Seq: 1, State: api.JobRunning})
			writeEvent(w, api.Event{Type: api.EventProgress, JobID: "job-0", Seq: 2, Iteration: 3})
			// Drop the connection mid-stream.
		case 2:
			gotResume.Store(r.Header.Get("Last-Event-ID"))
			// An overlapping replay: the client must dedup seq 2.
			writeEvent(w, api.Event{Type: api.EventProgress, JobID: "job-0", Seq: 2, Iteration: 3})
			writeEvent(w, api.Event{Type: api.EventProgress, JobID: "job-0", Seq: 3, Iteration: 7})
			writeEvent(w, api.Event{Type: api.EventState, JobID: "job-0", Seq: 4, State: api.JobDone})
		default:
			t.Error("unexpected third connection")
		}
	}))
	defer ts.Close()

	var logBuf syncBuffer
	c := client.New(ts.URL,
		client.WithRetries(2, 5*time.Millisecond),
		client.WithLogger(slog.New(slog.NewTextHandler(&logBuf, nil))))
	events, err := c.Watch(testCtx(t), "job-0")
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int64
	for ev := range events {
		seqs = append(seqs, ev.Seq)
	}
	want := []int64{1, 2, 3, 4}
	if len(seqs) != len(want) {
		t.Fatalf("delivered seqs %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("delivered seqs %v, want %v", seqs, want)
		}
	}
	if got := gotResume.Load(); got != "2" {
		t.Fatalf("reconnect Last-Event-ID = %v, want 2", got)
	}
	if calls.Load() != 2 {
		t.Fatalf("connections = %d, want 2", calls.Load())
	}
	// The recovery is no longer silent: it is counted and logged.
	if got := c.Stats().WatchReconnects; got != 1 {
		t.Fatalf("WatchReconnects = %d, want 1", got)
	}
	if logged := logBuf.String(); !strings.Contains(logged, "watch stream dropped") || !strings.Contains(logged, "job-0") {
		t.Fatalf("reconnect warning not logged; log output:\n%s", logged)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output
// written from the watch goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestClientWatchNoReconnectBudget: WithRetries(0) disables reconnection —
// the channel just closes when the stream drops.
func TestClientWatchNoReconnectBudget(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		b, _ := json.Marshal(api.Event{Type: api.EventState, JobID: "job-0", Seq: 1, State: api.JobRunning})
		fmt.Fprintf(w, "data: %s\n\n", b)
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(0, time.Millisecond))
	events, err := c.Watch(testCtx(t), "job-0")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range events {
		n++
	}
	if n != 1 || calls.Load() != 1 {
		t.Fatalf("events = %d, connections = %d; want 1 and 1", n, calls.Load())
	}
	if got := c.Stats().WatchReconnects; got != 0 {
		t.Fatalf("WatchReconnects = %d, want 0", got)
	}
}

// TestClientTraceParity: JobTrace and RoundTrace return byte-identical
// wire payloads through the in-process and HTTP clients, for live and
// terminal jobs alike.
func TestClientTraceParity(t *testing.T) {
	ctx := testCtx(t)
	local, remote, _ := harness(t, server.Config{})

	// Unknown job: same error code on both transports.
	for name, c := range map[string]cgraph.Client{"local": local, "http": remote} {
		if _, err := c.JobTrace(ctx, "nope"); !api.IsCode(err, api.CodeNotFound) {
			t.Fatalf("%s: unknown trace = %v, want not_found", name, err)
		}
	}

	st, err := local.Submit(ctx, api.JobSpec{Algo: "pagerank"})
	if err != nil {
		t.Fatal(err)
	}
	events, err := local.Watch(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for range events {
	}

	// With every job terminal the trace surfaces are static; the two
	// transports must agree byte for byte after JSON round-tripping.
	ltr, err := local.JobTrace(ctx, st.ID)
	if err != nil {
		t.Fatalf("local trace: %v", err)
	}
	rtr, err := remote.JobTrace(ctx, st.ID)
	if err != nil {
		t.Fatalf("remote trace: %v", err)
	}
	if ltr.State != api.JobDone || len(ltr.Rounds) == 0 || ltr.ExecMS <= 0 {
		t.Fatalf("local trace = %+v", ltr)
	}
	lb, _ := json.Marshal(ltr)
	rb, _ := json.Marshal(rtr)
	if string(lb) != string(rb) {
		t.Fatalf("job trace parity:\nlocal:  %s\nremote: %s", lb, rb)
	}

	for _, opts := range []api.TraceOptions{{}, {Limit: 3}} {
		lrt, err := local.RoundTrace(ctx, opts)
		if err != nil {
			t.Fatalf("local rounds: %v", err)
		}
		rrt, err := remote.RoundTrace(ctx, opts)
		if err != nil {
			t.Fatalf("remote rounds: %v", err)
		}
		if lrt.TraceDepth != 64 || len(lrt.Rounds) == 0 {
			t.Fatalf("local rounds (%+v) = depth %d, %d rounds", opts, lrt.TraceDepth, len(lrt.Rounds))
		}
		if opts.Limit > 0 && len(lrt.Rounds) > opts.Limit {
			t.Fatalf("limit %d returned %d rounds", opts.Limit, len(lrt.Rounds))
		}
		lb, _ := json.Marshal(lrt)
		rb, _ := json.Marshal(rrt)
		if string(lb) != string(rb) {
			t.Fatalf("round trace parity (%+v):\nlocal:  %s\nremote: %s", opts, lb, rb)
		}
	}
}

// TestClientWatchLiveReconnectParity: against a real service, a watcher
// whose first connection dies mid-run still observes a gap-free ordered
// stream ending in the terminal event, via Last-Event-ID resume.
func TestClientWatchLiveReconnectParity(t *testing.T) {
	sys := cgraph.NewSystem(cgraph.WithWorkers(2), cgraph.WithCoreSubgraph(false), cgraph.WithTraceDepth(64))
	if err := sys.LoadEdges(300, gen.RMAT(41, 300, 5000, 0.57, 0.19, 0.19)); err != nil {
		t.Fatal(err)
	}
	svc := server.New(sys, server.Config{})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Stop(ctx)
	})
	real := svc.Handler(nil)
	var dropped atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") && !dropped.Swap(true) {
			// Kill the first watch attempt after a short taste of the
			// stream, mid-flight.
			ctx, cancel := context.WithTimeout(r.Context(), 30*time.Millisecond)
			defer cancel()
			real.ServeHTTP(w, r.WithContext(ctx))
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(3, 5*time.Millisecond))
	ctx := testCtx(t)
	st, err := c.Submit(ctx, api.JobSpec{Algo: "pagerank"})
	if err != nil {
		t.Fatal(err)
	}
	events, err := c.Watch(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var last api.Event
	var prevSeq int64
	for ev := range events {
		if ev.Seq <= prevSeq {
			t.Fatalf("event %d after %d: duplicates across reconnect", ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		last = ev
	}
	if !last.Terminal() || last.State != api.JobDone {
		t.Fatalf("stream ended on %+v, want terminal done", last)
	}
	if !dropped.Load() {
		t.Fatal("the drop leg never ran")
	}
}

// TestClientRateLimit pins the WithRateLimit token bucket: the burst passes
// immediately, sustained calls are paced to the configured rate (elapsed
// time has a hard lower bound — tokens cannot accrue faster), reads are
// never paced, and a blocked call honors context cancellation.
func TestClientRateLimit(t *testing.T) {
	var posts, gets atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		} else {
			gets.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"accepted":1,"pending":1}`))
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRateLimit(100, 2))
	ctx := testCtx(t)
	start := time.Now()
	const calls = 6
	for i := 0; i < calls; i++ {
		if _, err := c.ApplyDelta(ctx, api.Delta{Mutations: []api.Mutation{{Op: api.MutationAdd}}}); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// The bucket holds at most 2 tokens at start and refills at 100/s, so
	// the other 4 writes cannot pass before (calls-burst)/rps = 40ms. How
	// many of them had to sleep depends on how long each call took; only
	// the full burst is sure to pass without one.
	if want := (calls - 2) * time.Second / 100; elapsed < want {
		t.Fatalf("6 writes at rps=100 burst=2 took %v, want >= %v", elapsed, want)
	}
	if got := posts.Load(); got != calls {
		t.Fatalf("posts = %d, want %d", got, calls)
	}
	if thr := c.Stats().Throttled; thr > calls-2 {
		t.Fatalf("throttled = %d, want <= %d: the first 2 writes spend the burst", thr, calls-2)
	}

	// Reads bypass the limiter entirely: with an empty bucket, a burst of
	// GETs completes without pacing delays.
	start = time.Now()
	for i := 0; i < 20; i++ {
		if _, err := c.Metrics(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("20 reads took %v — reads must not be paced", elapsed)
	}
	if got := gets.Load(); got != 20 {
		t.Fatalf("gets = %d, want 20", got)
	}

	// A blocked writer unblocks with its context's error.
	slow := client.New(ts.URL, client.WithRateLimit(0.01, 1))
	if _, err := slow.ApplyDelta(ctx, api.Delta{}); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := slow.Submit(cctx, api.JobSpec{Algo: "pagerank"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked submit = %v, want context.DeadlineExceeded", err)
	}

	// rps <= 0 turns the limiter off.
	off := client.New(ts.URL, client.WithRateLimit(0, 5))
	if _, err := off.ApplyDelta(ctx, api.Delta{}); err != nil {
		t.Fatal(err)
	}
	if thr := off.Stats().Throttled; thr != 0 {
		t.Fatalf("unlimited client throttled = %d, want 0", thr)
	}
}
