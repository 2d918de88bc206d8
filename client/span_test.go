package client_test

import (
	"context"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"cgraph"
	"cgraph/api"
	"cgraph/client"
	"cgraph/internal/gen"
	"cgraph/internal/span"
	"cgraph/internal/testutil"
	"cgraph/server"
)

// spanHarness is harness with the concrete HTTP client exposed for the
// endpoints that live outside the cgraph.Client contract (probes, version).
func spanHarness(t *testing.T) (local cgraph.Client, remote *client.Client) {
	t.Helper()
	edges := gen.RMAT(41, 300, 5000, 0.57, 0.19, 0.19)
	sys := cgraph.NewSystem(cgraph.WithWorkers(2), cgraph.WithCoreSubgraph(false))
	if err := sys.LoadEdges(300, edges); err != nil {
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
	reg := server.DefaultRegistry()
	ts := httptest.NewServer(svc.Handler(reg))
	t.Cleanup(ts.Close)
	return server.NewLocalClient(svc, reg), client.New(ts.URL, client.WithHTTPClient(ts.Client()))
}

// spanShape renders a span set as a canonical tree string: roots are spans
// whose parent is absent from the set, children sort by their own rendering.
// Two span sets with the same shape are structurally identical trees.
// "pool.task" spans are left out: the engine samples one in every 64 tasks
// by an engine-wide counter, so two identical jobs need not record the same
// number of them.
func spanShape(all []api.Span) string {
	var spans []api.Span
	for _, s := range all {
		if s.Name != "pool.task" {
			spans = append(spans, s)
		}
	}
	ids := map[string]bool{}
	for _, s := range spans {
		ids[s.SpanID] = true
	}
	children := map[string][]api.Span{}
	var roots []api.Span
	for _, s := range spans {
		if s.Parent != "" && ids[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var render func(s api.Span) string
	render = func(s api.Span) string {
		kids := children[s.SpanID]
		parts := make([]string, len(kids))
		for i, k := range kids {
			parts[i] = render(k)
		}
		sort.Strings(parts)
		if len(parts) == 0 {
			return s.Name
		}
		return s.Name + "(" + strings.Join(parts, ",") + ")"
	}
	parts := make([]string, len(roots))
	for i, r := range roots {
		parts[i] = render(r)
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// TestClientSpanTreeParity is the dual-transport acceptance check for the
// span surface: an identical job submitted through the in-process and the
// HTTP client yields structurally identical span trees from the job-spans
// endpoint, with the same trace ID plumbing and a populated attribution.
func TestClientSpanTreeParity(t *testing.T) {
	local, remote := spanHarness(t)
	ctx := testCtx(t)

	run := func(c cgraph.Client) (api.JobStatus, api.JobSpans) {
		_, st, _ := lifecycle(t, ctx, c, api.JobSpec{Algo: "sssp", Source: 2})
		if st.State != api.JobDone {
			t.Fatalf("job state = %v", st.State)
		}
		if st.TraceID == "" {
			t.Fatal("done job has no trace ID on its status")
		}
		// The retire span lands as the job leaves the engine; poll briefly.
		var js api.JobSpans
		testutil.WaitFor(t, 30*time.Second, func() bool {
			var err error
			js, err = c.JobSpans(ctx, st.ID)
			if err != nil {
				t.Fatalf("job spans: %v", err)
			}
			return strings.Contains(spanShape(js.Spans), "job.retire")
		}, "job %s never recorded its retire span", st.ID)
		return st, js
	}
	lst, ljs := run(local)
	rst, rjs := run(remote)

	if lst.Iterations != rst.Iterations {
		t.Fatalf("jobs diverged: local ran %d iterations, http %d", lst.Iterations, rst.Iterations)
	}
	ls, rs := spanShape(ljs.Spans), spanShape(rjs.Spans)
	if ls != rs {
		t.Fatalf("span trees differ:\nlocal: %s\nhttp:  %s", ls, rs)
	}
	if !strings.HasPrefix(ls, "job.submit(") || !strings.Contains(ls, "job.queue_wait") ||
		!strings.Contains(ls, "job.round") || !strings.Contains(ls, "job.retire") {
		t.Fatalf("span tree missing lifecycle spans: %s", ls)
	}
	if ljs.TraceID != lst.TraceID || rjs.TraceID != rst.TraceID {
		t.Fatalf("trace IDs disagree: spans (%s, %s) vs statuses (%s, %s)",
			ljs.TraceID, rjs.TraceID, lst.TraceID, rst.TraceID)
	}
	if ljs.TraceID == rjs.TraceID {
		t.Fatalf("distinct jobs share trace %s", ljs.TraceID)
	}
	rounds := strings.Count(ls, "job.round")
	for name, js := range map[string]api.JobSpans{"local": ljs, "http": rjs} {
		a := js.Attribution
		if a == nil {
			t.Fatalf("%s: job spans carry no attribution", name)
		}
		if a.ID != js.ID || a.Rounds != rounds || a.Tasks < 1 || a.QueueWaitMS < 0 || a.ExecMS <= 0 {
			t.Fatalf("%s: attribution = %+v (want %d rounds)", name, a, rounds)
		}
		if a.MakespanShare < 0 || a.MakespanShare > 1 {
			t.Fatalf("%s: makespan share %v outside [0, 1]", name, a.MakespanShare)
		}
	}
}

// TestClientTraceparentPropagation is the end-to-end context-propagation
// check: a caller-minted span context rides the traceparent header into the
// service, every server-side span of the interaction lands in the caller's
// trace, and the trace endpoint returns one connected tree covering the
// job lifecycle and the ingest pipeline.
func TestClientTraceparentPropagation(t *testing.T) {
	_, remote := spanHarness(t)
	sc := span.Context{Trace: span.NewTraceID(), Span: span.NewSpanID()}
	ctx := span.NewContext(testCtx(t), sc)

	st, err := remote.Submit(ctx, api.JobSpec{Algo: "pagerank"})
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != sc.Trace.String() {
		t.Fatalf("job joined trace %s, want the caller's %s", st.TraceID, sc.Trace)
	}
	testutil.WaitFor(t, 60*time.Second, func() bool {
		st, err = remote.Get(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st.State == api.JobDone
	}, "job %s never finished", st.ID)

	// A flushed delta from the same context extends the same trace through
	// the ingest pipeline.
	ack, err := remote.ApplyDelta(ctx, api.Delta{
		Mutations: []api.Mutation{{Slot: 0, Edge: [3]float64{5, 7, 2.25}}},
		Flush:     true,
	})
	if err != nil || !ack.Flushed {
		t.Fatalf("delta = %+v, %v", ack, err)
	}

	want := []string{
		"http.request", "job.submit", "job.queue_wait", "job.round", "job.retire",
		"ingest.accept", "ingest.flush", "ingest.materialize",
	}
	var spans []api.Span
	testutil.WaitFor(t, 30*time.Second, func() bool {
		sl, err := remote.TraceSpans(ctx, st.TraceID)
		if err != nil {
			t.Fatalf("trace spans: %v", err)
		}
		spans = sl.Spans
		have := map[string]bool{}
		for _, s := range spans {
			have[s.Name] = true
		}
		for _, n := range want {
			if !have[n] {
				return false
			}
		}
		return true
	}, "trace %s never assembled the full tree", st.TraceID)

	// Connectivity: every retained span hangs off the caller's span, either
	// directly (the per-request http.request spans) or through a retained
	// ancestor — no orphans, no foreign traces.
	caller := sc.Span.String()
	byID := map[string]api.Span{}
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	for _, s := range spans {
		if s.TraceID != st.TraceID {
			t.Fatalf("span %s carries foreign trace %s", s.Name, s.TraceID)
		}
		if s.Parent == "" {
			t.Fatalf("span %s is an orphan; every span must descend from the caller's", s.Name)
		}
		if s.Parent != caller {
			if _, ok := byID[s.Parent]; !ok {
				t.Fatalf("span %s has dangling parent %s", s.Name, s.Parent)
			}
		}
	}
	parentName := func(s api.Span) string { return byID[s.Parent].Name }
	for _, s := range spans {
		switch s.Name {
		case "http.request":
			if s.Parent != caller {
				t.Fatalf("http.request parented to %q, want the caller's span", parentName(s))
			}
		case "job.submit", "ingest.accept":
			if parentName(s) != "http.request" {
				t.Fatalf("%s parented to %q, want http.request", s.Name, parentName(s))
			}
		case "job.queue_wait", "job.round", "job.retire", "pool.task":
			if parentName(s) != "job.submit" {
				t.Fatalf("%s parented to %q, want job.submit", s.Name, parentName(s))
			}
		case "ingest.flush":
			if parentName(s) != "ingest.accept" {
				t.Fatalf("ingest.flush parented to %q, want ingest.accept", parentName(s))
			}
		case "ingest.materialize":
			if parentName(s) != "ingest.flush" {
				t.Fatalf("ingest.materialize parented to %q, want ingest.flush", parentName(s))
			}
		}
	}
}

// TestClientProbesAndVersion covers the endpoints outside the Client
// contract: liveness, itemized readiness, and build identity.
func TestClientProbesAndVersion(t *testing.T) {
	_, remote := spanHarness(t)
	ctx := testCtx(t)

	if h, err := remote.Healthz(ctx); err != nil || h.Status != "ok" || len(h.Checks) != 0 {
		t.Fatalf("healthz = %+v, %v", h, err)
	}
	h, err := remote.Readyz(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("readyz = %+v, %v", h, err)
	}
	names := map[string]bool{}
	for _, c := range h.Checks {
		if !c.OK {
			t.Fatalf("readiness check %s failed on a serving engine: %+v", c.Name, c)
		}
		names[c.Name] = true
	}
	for _, wantName := range []string{"engine", "ingest", "snapshots"} {
		if !names[wantName] {
			t.Fatalf("readiness checks %v missing %q", names, wantName)
		}
	}
	v, err := remote.Version(ctx)
	if err != nil || v.API != api.Version || v.Version == "" || !strings.HasPrefix(v.GoVersion, "go") {
		t.Fatalf("version = %+v, %v", v, err)
	}
}
