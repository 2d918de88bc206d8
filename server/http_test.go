package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cgraph"
	"cgraph/api"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/refimpl"
	"cgraph/internal/testutil"
	"cgraph/model"
	"cgraph/server"
)

func httpJSON(t *testing.T, client *http.Client, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("%s %s: bad JSON: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// errCode digs the machine-readable code out of an api.ErrorBody envelope.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response has no error envelope: %v", body)
	}
	code, _ := e["code"].(string)
	return code
}

func pollState(t *testing.T, client *http.Client, base, id string, want server.State) map[string]any {
	t.Helper()
	var last map[string]any
	testutil.WaitFor(t, 60*time.Second, func() bool {
		code, st := httpJSON(t, client, "GET", base+"/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d (%v)", id, code, st)
		}
		last = st
		if s, _ := st["state"].(string); s != string(want) && server.State(s).Terminal() {
			t.Fatalf("job %s reached %s, want %s", id, s, want)
		}
		return st["state"] == string(want)
	}, "job %s never reached %s", id, want)
	return last
}

// TestHTTPControlPlaneDemo is the acceptance demo: start Serve, submit
// PageRank, submit SSSP mid-flight, cancel one job, expire another via its
// context deadline, ingest a snapshot, and retrieve results for the
// surviving jobs — all without restarting the engine, with every lifecycle
// transition observable over the versioned /v1 API.
func TestHTTPControlPlaneDemo(t *testing.T) {
	edges := gen.RMAT(42, 400, 8000, 0.57, 0.19, 0.19)
	sys := cgraph.NewSystem(cgraph.WithWorkers(2), cgraph.WithCoreSubgraph(false))
	if err := sys.LoadEdges(400, edges); err != nil {
		t.Fatal(err)
	}
	svc := server.New(sys, server.Config{})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := contextWithTimeout(t)
		defer cancel()
		svc.Stop(ctx)
	}()

	// Expose the bundled algorithms plus a never-converging one so the
	// cancellation legs are deterministic.
	reg := server.DefaultRegistry()
	reg["spin"] = func(server.ProgramParams) model.Program { return spinProgram{} }
	ts := httptest.NewServer(svc.Handler(reg))
	defer ts.Close()
	c := ts.Client()

	// Submit PageRank with labels; the resident loop starts iterating it.
	code, pr := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{
		"algo": "pagerank", "labels": map[string]string{"tenant": "demo"},
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs pagerank = %d (%v)", code, pr)
	}
	prID := pr["id"].(string)
	if lbl, _ := pr["labels"].(map[string]any); lbl["tenant"] != "demo" {
		t.Fatalf("labels not echoed: %v", pr)
	}

	// Submit SSSP mid-flight.
	code, ss := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "sssp", "source": 1})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs sssp = %d (%v)", code, ss)
	}
	ssID := ss["id"].(string)

	// A spin job, cancelled over the control plane.
	_, spin := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "spin"})
	spinID := spin["id"].(string)
	pollState(t, c, ts.URL, spinID, server.StateRunning)
	if code, st := httpJSON(t, c, "DELETE", ts.URL+"/v1/jobs/"+spinID, nil); code != http.StatusOK {
		t.Fatalf("DELETE /v1/jobs/%s = %d (%v)", spinID, code, st)
	}
	cancelled := pollState(t, c, ts.URL, spinID, server.StateCancelled)
	if e, _ := cancelled["error"].(map[string]any); e["code"] != string(api.CodeCancelled) {
		t.Fatalf("cancelled job error = %v, want code %q", cancelled["error"], api.CodeCancelled)
	}

	// Another spin job, retired by its context deadline.
	_, dl := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "spin", "timeout_ms": 40})
	dlID := dl["id"].(string)
	dlSt := pollState(t, c, ts.URL, dlID, server.StateFailed)
	if e, _ := dlSt["error"].(map[string]any); e["code"] != string(api.CodeDeadlineExceeded) {
		t.Fatalf("deadline job error = %v, want code %q", dlSt["error"], api.CodeDeadlineExceeded)
	}

	// Ingest a snapshot while serving, and bind a new job to it.
	mut, _ := gen.Mutate(edges, 0.05, 400, 7)
	snapEdges := make([][3]float64, len(mut))
	for i, e := range mut {
		snapEdges[i] = [3]float64{float64(e.Src), float64(e.Dst), float64(e.Weight)}
	}
	code, snap := httpJSON(t, c, "POST", ts.URL+"/v1/snapshots", map[string]any{"timestamp": 20, "edges": snapEdges})
	if code != http.StatusOK {
		t.Fatalf("POST /v1/snapshots = %d (%v)", code, snap)
	}
	code, ss2 := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "sssp", "source": 1, "at_timestamp": 20})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs post-snapshot sssp = %d (%v)", code, ss2)
	}
	ss2ID := ss2["id"].(string)

	// The surviving jobs converge; pull and verify their results.
	pollState(t, c, ts.URL, prID, server.StateDone)
	pollState(t, c, ts.URL, ssID, server.StateDone)
	pollState(t, c, ts.URL, ss2ID, server.StateDone)

	g := graph.Build(400, edges)
	verify := func(id string, want []float64, tol float64) {
		t.Helper()
		code, res := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/"+id+"/results", nil)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s/results = %d (%v)", id, code, res)
		}
		values := res["values"].([]any)
		if len(values) != len(want) {
			t.Fatalf("job %s: %d values, want %d", id, len(values), len(want))
		}
		for v, raw := range values {
			if math.IsInf(want[v], 1) {
				if s, ok := raw.(string); !ok || s != "+Inf" {
					t.Fatalf("job %s vertex %d: got %v want +Inf", id, v, raw)
				}
				continue
			}
			got, ok := raw.(float64)
			if !ok || math.Abs(got-want[v]) > tol*math.Max(1, math.Abs(want[v])) {
				t.Fatalf("job %s vertex %d: got %v want %v", id, v, raw, want[v])
			}
		}
	}
	// The registry's PageRank runs at its default epsilon (1e-3), so
	// compare with a matching relative tolerance; tight-epsilon numeric
	// fidelity is covered by the core engine tests.
	verify(prID, refimpl.PageRank(g, 0.85, 1e-12, 3000), 1e-2)

	// Top-k results for the pre-snapshot SSSP.
	code, topRes := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/"+ssID+"/results?top=5", nil)
	if code != http.StatusOK || len(topRes["top"].([]any)) != 5 {
		t.Fatalf("GET results top=5 failed: %d %v", code, topRes)
	}

	// The cancelled job has no results.
	if code, body := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/"+spinID+"/results", nil); code != http.StatusConflict || errCode(t, body) != string(api.CodeConflict) {
		t.Fatalf("GET results of cancelled job = %d (%v), want 409 conflict", code, body)
	}

	// Job list shows every lifecycle outcome side by side, plus the
	// scheduler's last plan and a total for pagination.
	_, list := httpJSON(t, c, "GET", ts.URL+"/v1/jobs", nil)
	states := map[string]int{}
	for _, item := range list["jobs"].([]any) {
		states[item.(map[string]any)["state"].(string)]++
	}
	if states["done"] != 3 || states["cancelled"] != 1 || states["failed"] != 1 {
		t.Fatalf("lifecycle mix wrong: %v", states)
	}
	if _, ok := list["sched"].(map[string]any); !ok {
		t.Fatalf("/v1/jobs response missing sched summary: %v", list)
	}
	if total, _ := list["total"].(float64); int(total) != 5 {
		t.Fatalf("list total = %v, want 5", list["total"])
	}

	// The scheduler's decision is directly observable: policy, and the
	// jobs and load order of the last round.
	code, schedInfo := httpJSON(t, c, "GET", ts.URL+"/v1/sched", nil)
	if code != http.StatusOK || schedInfo["policy"] != "priority" {
		t.Fatalf("GET /v1/sched = %d (%v)", code, schedInfo)
	}
	if jobs, ok := schedInfo["jobs"].([]any); !ok || len(jobs) == 0 {
		t.Fatalf("sched jobs not reported: %v", schedInfo)
	}
	parts, _ := schedInfo["parts"].([]any)
	if uids, _ := schedInfo["part_uids"].([]any); len(parts) != len(uids) {
		t.Fatalf("sched parts and part_uids differ in length: %v", schedInfo)
	}

	// Structured metrics mirror the Prometheus exposition.
	code, jm := httpJSON(t, c, "GET", ts.URL+"/v1/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", code)
	}
	if jobs, _ := jm["jobs"].(map[string]any); jobs["done"].(float64) != 3 {
		t.Fatalf("metrics job counts wrong: %v", jm)
	}

	// Metrics expose the same picture in Prometheus text format.
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`cgraph_jobs{state="done"} 3`,
		`cgraph_jobs{state="cancelled"} 1`,
		`cgraph_jobs{state="failed"} 1`,
		"cgraph_engine_rounds_total",
		"cgraph_sched_round_makespan_us",
		"cgraph_sched_round_jobs",
		fmt.Sprintf(`cgraph_job_iterations{algo="PageRank",id="%s"}`, prID),
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestHTTPErrorPaths pins the machine-readable error contract: malformed
// bodies, unknown fields, unknown algorithms, wrong methods, double
// cancels, and results in every unavailable flavour.
func TestHTTPErrorPaths(t *testing.T) {
	svc := startService(t, server.Config{}, testEdges(), 300)
	reg := server.DefaultRegistry()
	reg["spin"] = func(server.ProgramParams) model.Program { return spinProgram{} }
	ts := httptest.NewServer(svc.Handler(reg))
	defer ts.Close()
	c := ts.Client()

	// Malformed JSON body.
	resp, err := c.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	var eb map[string]any
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errCode(t, eb) != string(api.CodeBadRequest) {
		t.Fatalf("malformed JSON = %d (%v), want 400 bad_request", resp.StatusCode, eb)
	}

	// Unknown fields are rejected, not silently dropped.
	if code, body := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "pagerank", "sourcee": 3}); code != http.StatusBadRequest || errCode(t, body) != string(api.CodeBadRequest) {
		t.Fatalf("unknown field = %d (%v), want 400 bad_request", code, body)
	}

	// Unknown algorithm name has its own code.
	if code, body := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "nope"}); code != http.StatusBadRequest || errCode(t, body) != string(api.CodeUnknownAlgorithm) {
		t.Fatalf("unknown algo = %d (%v), want 400 unknown_algorithm", code, body)
	}

	// Unknown jobs.
	if code, body := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/job-404", nil); code != http.StatusNotFound || errCode(t, body) != string(api.CodeNotFound) {
		t.Fatalf("unknown job = %d (%v), want 404 not_found", code, body)
	}
	if code, _ := httpJSON(t, c, "DELETE", ts.URL+"/v1/jobs/job-404", nil); code != http.StatusNotFound {
		t.Fatalf("cancel unknown job = %d, want 404", code)
	}
	if code, body := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/job-404/events", nil); code != http.StatusNotFound || errCode(t, body) != string(api.CodeNotFound) {
		t.Fatalf("events of unknown job = %d (%v), want 404", code, body)
	}

	// Unknown routes are JSON errors too.
	if code, body := httpJSON(t, c, "GET", ts.URL+"/v1/nope", nil); code != http.StatusNotFound || errCode(t, body) != string(api.CodeNotFound) {
		t.Fatalf("unknown route = %d (%v), want 404 not_found", code, body)
	}

	// Wrong method on a known route: 405 with Allow and an api.Error body.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs", nil)
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	eb = nil
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || errCode(t, eb) != string(api.CodeMethodNotAllowed) {
		t.Fatalf("PUT /v1/jobs = %d (%v), want 405 method_not_allowed", resp.StatusCode, eb)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, POST" {
		t.Fatalf("Allow = %q, want \"GET, POST\"", allow)
	}

	// HEAD rides GET (health probes, curl -I) instead of 405ing.
	headReq, _ := http.NewRequest(http.MethodHead, ts.URL+"/metrics", nil)
	resp, err = c.Do(headReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD /metrics = %d, want 200", resp.StatusCode)
	}

	// Bad snapshot: a short edge list violates the slot-rewrite contract.
	if code, body := httpJSON(t, c, "POST", ts.URL+"/v1/snapshots", map[string]any{"timestamp": 5, "edges": [][3]float64{{0, 1, 1}}}); code != http.StatusBadRequest || errCode(t, body) != string(api.CodeBadRequest) {
		t.Fatalf("short snapshot = %d (%v), want 400", code, body)
	}

	// Results of a live-but-unfinished job: 409 with the not_ready code
	// (distinct from terminal-state conflicts), then a double cancel:
	// first OK, second 409 conflict.
	_, spin := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "spin"})
	spinID := spin["id"].(string)
	pollState(t, c, ts.URL, spinID, server.StateRunning)
	if code, body := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/"+spinID+"/results", nil); code != http.StatusConflict || errCode(t, body) != string(api.CodeNotReady) {
		t.Fatalf("results of running job = %d (%v), want 409 not_ready", code, body)
	}
	if code, _ := httpJSON(t, c, "DELETE", ts.URL+"/v1/jobs/"+spinID, nil); code != http.StatusOK {
		t.Fatalf("first cancel = %d, want 200", code)
	}
	pollState(t, c, ts.URL, spinID, server.StateCancelled)
	if code, body := httpJSON(t, c, "DELETE", ts.URL+"/v1/jobs/"+spinID, nil); code != http.StatusConflict || errCode(t, body) != string(api.CodeConflict) {
		t.Fatalf("double cancel = %d (%v), want 409 conflict", code, body)
	}
}

// TestHTTPLegacyRoutesRedirect pins the compat contract: the
// pre-versioning routes answer 308 to their /v1 successors, and a client
// that follows redirects (the default) keeps working end to end.
func TestHTTPLegacyRoutesRedirect(t *testing.T) {
	svc := startService(t, server.Config{}, testEdges(), 300)
	ts := httptest.NewServer(svc.Handler(nil))
	defer ts.Close()

	// Raw redirect: method and target preserved.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	for _, tc := range []struct{ method, path, want string }{
		{"POST", "/jobs", "/v1/jobs"},
		{"GET", "/jobs", "/v1/jobs"},
		{"GET", "/jobs/job-0", "/v1/jobs/job-0"},
		{"DELETE", "/jobs/job-0", "/v1/jobs/job-0"},
		{"GET", "/results/job-0?top=3", "/v1/jobs/job-0/results?top=3"},
		{"POST", "/snapshots", "/v1/snapshots"},
		{"GET", "/sched", "/v1/sched"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := noFollow.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusPermanentRedirect {
			t.Fatalf("%s %s = %d, want 308", tc.method, tc.path, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != tc.want {
			t.Fatalf("%s %s redirects to %q, want %q", tc.method, tc.path, loc, tc.want)
		}
	}

	// A legacy client that follows redirects completes a full submit →
	// poll → results cycle: 308 replays the POST body.
	c := ts.Client()
	code, st := httpJSON(t, c, "POST", ts.URL+"/jobs", map[string]any{"algo": "bfs", "source": 0})
	if code != http.StatusAccepted {
		t.Fatalf("legacy POST /jobs = %d (%v)", code, st)
	}
	id := st["id"].(string)
	pollState(t, c, ts.URL, id, server.StateDone)
	code, res := httpJSON(t, c, "GET", ts.URL+"/results/"+id, nil)
	if code != http.StatusOK || res["num_vertices"].(float64) != 300 {
		t.Fatalf("legacy GET /results = %d (%v)", code, res)
	}
}

// TestHTTPHistoryCompaction exercises the terminal-job ring: beyond
// RetainTerminal the oldest terminal jobs lose their results but stay
// listable (and paginable) as history, with results answering 410
// released.
func TestHTTPHistoryCompaction(t *testing.T) {
	svc := startService(t, server.Config{RetainTerminal: 1, HistoryLimit: 2}, testEdges(), 300)
	ts := httptest.NewServer(svc.Handler(nil))
	defer ts.Close()
	c := ts.Client()

	var ids []string
	for i := 0; i < 4; i++ {
		code, st := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "bfs", "source": i})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		id := st["id"].(string)
		ids = append(ids, id)
		pollState(t, c, ts.URL, id, server.StateDone)
	}

	// The oldest job fell off the history ring entirely (HistoryLimit 2,
	// three jobs compacted): 404. The next two are history: listable,
	// marked released, results 410.
	if code, _ := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Fatalf("evicted job = %d, want 404", code)
	}
	for _, id := range ids[1:3] {
		code, st := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/"+id, nil)
		if code != http.StatusOK || st["released"] != true || st["state"] != "done" {
			t.Fatalf("history job %s = %d (%v), want released done", id, code, st)
		}
		code, body := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/"+id+"/results", nil)
		if code != http.StatusGone || errCode(t, body) != string(api.CodeReleased) {
			t.Fatalf("history results %s = %d (%v), want 410 released", id, code, body)
		}
	}
	// The newest job keeps full state and results.
	code, res := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/"+ids[3]+"/results", nil)
	if code != http.StatusOK || res["num_vertices"].(float64) != 300 {
		t.Fatalf("retained job results = %d (%v)", code, res)
	}

	// Listing paginates over history + live: total 3, pages of 2.
	_, page1 := httpJSON(t, c, "GET", ts.URL+"/v1/jobs?limit=2", nil)
	_, page2 := httpJSON(t, c, "GET", ts.URL+"/v1/jobs?limit=2&offset=2", nil)
	if page1["total"].(float64) != 3 || len(page1["jobs"].([]any)) != 2 || len(page2["jobs"].([]any)) != 1 {
		t.Fatalf("pagination wrong: page1=%v page2=%v", page1, page2)
	}
	first := page1["jobs"].([]any)[0].(map[string]any)
	if first["id"] != ids[1] || first["released"] != true {
		t.Fatalf("history must lead the listing: %v", first)
	}
	last := page2["jobs"].([]any)[0].(map[string]any)
	if last["id"] != ids[3] {
		t.Fatalf("live job must close the listing: %v", last)
	}

	// Job counts include the evicted summary: metrics never run backwards.
	code, jm := httpJSON(t, c, "GET", ts.URL+"/v1/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", code)
	}
	if jobs, _ := jm["jobs"].(map[string]any); jobs["done"].(float64) != 4 {
		t.Fatalf("metrics must count evicted history: %v", jm["jobs"])
	}

	// Watching a compacted job replays its terminal summary.
	resp, err := c.Get(ts.URL + "/v1/jobs/" + ids[1] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	ev := readSSE(t, resp.Body, 1)
	if len(ev) != 1 || ev[0].State != server.StateDone || !ev[0].Terminal() {
		t.Fatalf("compacted watch replay = %+v, want terminal done", ev)
	}
}

// TestHTTPEventStream checks the raw SSE wire format: replayed and live
// events arrive ordered, progress precedes the terminal state, and the
// stream ends after it.
func TestHTTPEventStream(t *testing.T) {
	svc := startService(t, server.Config{}, testEdges(), 300)
	ts := httptest.NewServer(svc.Handler(nil))
	defer ts.Close()
	c := ts.Client()

	_, st := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "pagerank"})
	id := st["id"].(string)
	resp, err := c.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, 0) // 0: read until the stream closes
	if len(events) < 3 {
		t.Fatalf("only %d events: %+v", len(events), events)
	}
	var lastSeq int64
	sawProgress := false
	for i, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d out of order: %+v", i, events)
		}
		lastSeq = ev.Seq
		if ev.JobID != id {
			t.Fatalf("event for wrong job: %+v", ev)
		}
		if ev.Type == api.EventProgress {
			sawProgress = true
		}
		if ev.Terminal() && i != len(events)-1 {
			t.Fatalf("terminal event not last: %+v", events)
		}
	}
	if !sawProgress {
		t.Fatalf("no progress events in %+v", events)
	}
	final := events[len(events)-1]
	if !final.Terminal() || final.State != server.StateDone || final.Iteration == 0 {
		t.Fatalf("final event = %+v, want terminal done with iterations", final)
	}
}

// readSSE parses api.Events off an SSE stream; n > 0 stops after n events,
// n == 0 reads until the stream ends.
func readSSE(t *testing.T, r io.Reader, n int) []api.Event {
	t.Helper()
	var out []api.Event
	sc := bufio.NewScanner(r)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var ev api.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			out = append(out, ev)
			data = ""
			if n > 0 && len(out) == n {
				return out
			}
		}
	}
	return out
}

func contextWithTimeout(t *testing.T) (ctx context.Context, cancel context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// TestHTTPDeltasAndListFilters covers the streaming-ingestion endpoint and
// the filtered job listing: POST /v1/deltas validation and flushing, state
// and label query filters on GET /v1/jobs, and the ingest counters in both
// metrics surfaces.
func TestHTTPDeltasAndListFilters(t *testing.T) {
	svc := startService(t, server.Config{}, testEdges(), 300)
	ts := httptest.NewServer(svc.Handler(nil))
	defer ts.Close()
	c := ts.Client()

	// Unknown fields and bad mutations are rejected with bad_request.
	if code, body := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{"mutationss": []any{}}); code != http.StatusBadRequest || errCode(t, body) != string(api.CodeBadRequest) {
		t.Fatalf("unknown field = %d (%v)", code, body)
	}
	if code, body := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{
		"mutations": []any{map[string]any{"slot": 1 << 30, "edge": []float64{1, 2, 1}}},
	}); code != http.StatusBadRequest || errCode(t, body) != string(api.CodeBadRequest) {
		t.Fatalf("out-of-range slot = %d (%v)", code, body)
	}
	if code, body := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{
		"mutations": []any{map[string]any{"op": "add", "slot": 0, "edge": []float64{1, 2, 1}}},
	}); code != http.StatusBadRequest || errCode(t, body) != string(api.CodeBadRequest) {
		t.Fatalf("unknown op = %d (%v)", code, body)
	}

	// A valid flushed batch materializes a snapshot.
	code, ack := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{
		"mutations": []any{
			map[string]any{"slot": 0, "edge": []float64{7, 9, 2.5}},
			map[string]any{"op": "rewrite", "slot": 1, "edge": []float64{3, 4, 1.5}},
		},
		"flush": true,
	})
	if code != http.StatusOK || ack["flushed"] != true || ack["accepted"] != float64(2) {
		t.Fatalf("POST /v1/deltas = %d (%v)", code, ack)
	}

	// Two labelled jobs; wait for both, then filter the listing.
	code, a := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{
		"algo": "pagerank", "labels": map[string]string{"team": "growth"},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit a = %d", code)
	}
	code, b := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{
		"algo": "degree", "labels": map[string]string{"team": "infra"},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit b = %d", code)
	}
	aID, bID := a["id"].(string), b["id"].(string)
	pollState(t, c, ts.URL, aID, server.StateDone)
	pollState(t, c, ts.URL, bID, server.StateDone)

	if code, body := httpJSON(t, c, "GET", ts.URL+"/v1/jobs?state=bogus", nil); code != http.StatusBadRequest || errCode(t, body) != string(api.CodeBadRequest) {
		t.Fatalf("bogus state filter = %d (%v)", code, body)
	}
	if code, body := httpJSON(t, c, "GET", ts.URL+"/v1/jobs?label=noequals", nil); code != http.StatusBadRequest || errCode(t, body) != string(api.CodeBadRequest) {
		t.Fatalf("bad label filter = %d (%v)", code, body)
	}
	// A repeated label key with a different value can never match; it is
	// rejected rather than silently last-wins.
	if code, body := httpJSON(t, c, "GET", ts.URL+"/v1/jobs?label=team%3Dgrowth&label=team%3Dinfra", nil); code != http.StatusBadRequest || errCode(t, body) != string(api.CodeBadRequest) {
		t.Fatalf("conflicting label filters = %d (%v)", code, body)
	}
	code, list := httpJSON(t, c, "GET", ts.URL+"/v1/jobs?state=done&label=team%3Dgrowth", nil)
	if code != http.StatusOK || list["total"] != float64(1) {
		t.Fatalf("filtered list = %d (%v), want exactly the growth job", code, list)
	}
	jobs := list["jobs"].([]any)
	if got := jobs[0].(map[string]any)["id"]; got != aID {
		t.Fatalf("filtered list returned %v, want %s", got, aID)
	}
	if code, list := httpJSON(t, c, "GET", ts.URL+"/v1/jobs?state=cancelled", nil); code != http.StatusOK || list["total"] != float64(0) {
		t.Fatalf("empty filter = %d (%v)", code, list)
	}

	// Ingest counters surface in the structured metrics…
	code, m := httpJSON(t, c, "GET", ts.URL+"/v1/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", code)
	}
	ing, ok := m["ingest"].(map[string]any)
	if !ok || ing["batches"] != float64(1) || ing["snapshots_built"] != float64(1) || ing["snapshots_live"] != float64(2) {
		t.Fatalf("ingest metrics = %v", m["ingest"])
	}
	// …and in the Prometheus exposition, along with the round makespan.
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"cgraph_ingest_batches_total 1",
		"cgraph_ingest_flushes_total{trigger=\"manual\"} 1",
		"cgraph_snapshots_live 2",
		"cgraph_sched_round_makespan_us",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("Prometheus exposition missing %q:\n%s", want, text)
		}
	}
}

// TestHTTPStructuralDeltasAndAdmission covers the structural mutation ops
// end-to-end over HTTP — add_edge/remove_edge/add_vertex grow the graph,
// the per-op counters and retained-window bounds surface in both metrics
// exposures — and the ingest admission cap shedding with 429
// ingest_saturated.
func TestHTTPStructuralDeltasAndAdmission(t *testing.T) {
	sys := cgraph.NewSystem(cgraph.WithWorkers(2), cgraph.WithCoreSubgraph(false), cgraph.WithIngestCap(64))
	if err := sys.LoadEdges(300, testEdges()); err != nil {
		t.Fatal(err)
	}
	svc := server.New(sys, server.Config{})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := contextWithTimeout(t)
		defer cancel()
		svc.Stop(ctx)
	}()
	ts := httptest.NewServer(svc.Handler(nil))
	defer ts.Close()
	c := ts.Client()

	// A structural batch: two users join, follow each other and an
	// existing account, and one old follow is dropped.
	code, ack := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{
		"mutations": []any{
			map[string]any{"op": "add_vertex", "vertex": 300},
			map[string]any{"op": "add_vertex", "vertex": 301},
			map[string]any{"op": "add_edge", "edge": []float64{300, 301, 1}},
			map[string]any{"op": "add_edge", "edge": []float64{301, 5, 1}},
			map[string]any{"op": "remove_edge", "edge": []float64{999, 999}},
		},
		"flush": true,
	})
	if code != http.StatusOK || ack["flushed"] != true || ack["accepted"] != float64(5) {
		t.Fatalf("structural delta = %d (%v)", code, ack)
	}

	code, m := httpJSON(t, c, "GET", ts.URL+"/v1/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", code)
	}
	ing := m["ingest"].(map[string]any)
	if ing["edge_adds"] != float64(2) || ing["vertex_adds"] != float64(2) || ing["edge_removes"] != float64(1) {
		t.Fatalf("per-op counters = %v", ing)
	}
	if ing["remove_misses"] != float64(1) {
		t.Fatalf("remove_misses = %v, want 1", ing["remove_misses"])
	}
	if ing["num_vertices"] != float64(302) {
		t.Fatalf("num_vertices = %v, want 302", ing["num_vertices"])
	}
	// Retained-window bounds: base seq 0 through the delta-built seq 1.
	if ing["oldest_seq"] != float64(0) || ing["newest_seq"] != float64(1) || ing["newest_timestamp"] != float64(1) {
		t.Fatalf("window bounds = %v", ing)
	}

	// A job sees the grown graph.
	_, st := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "degree"})
	id := st["id"].(string)
	pollState(t, c, ts.URL, id, server.StateDone)
	code, res := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/"+id+"/results", nil)
	if code != http.StatusOK || res["num_vertices"] != float64(302) {
		t.Fatalf("results over grown graph = %d (%v)", code, res)
	}

	// Unknown structural op strings are still rejected.
	if code, body := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{
		"mutations": []any{map[string]any{"op": "drop_vertex", "vertex": 3}},
	}); code != http.StatusBadRequest || errCode(t, body) != string(api.CodeBadRequest) {
		t.Fatalf("unknown op = %d (%v)", code, body)
	}
	// Garbage wire endpoints (negative, fractional, absurd) never reach
	// the lossy float->uint32 conversion.
	for _, edge := range [][]float64{{-1, 5, 1}, {1.5, 5, 1}, {1e300, 5, 1}} {
		if code, body := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{
			"mutations": []any{map[string]any{"op": "add_edge", "edge": edge}},
		}); code != http.StatusBadRequest || errCode(t, body) != string(api.CodeBadRequest) {
			t.Fatalf("garbage endpoint %v = %d (%v)", edge, code, body)
		}
	}
	// A single batch larger than the cap is shed outright, not admitted.
	huge := make([]any, 65)
	for i := range huge {
		huge[i] = map[string]any{"op": "add_edge", "edge": []float64{float64(i), float64(i + 1), 1}}
	}
	if code, body := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{"mutations": huge}); code != http.StatusTooManyRequests || errCode(t, body) != string(api.CodeIngestSaturated) {
		t.Fatalf("oversized batch = %d (%v), want 429", code, body)
	}

	// Saturate the buffer (cap 64): one oversized unflushed batch fills
	// it, the next batch sheds with 429 ingest_saturated.
	fill := make([]any, 64)
	for i := range fill {
		fill[i] = map[string]any{"op": "add_edge", "edge": []float64{float64(i), float64(i + 1), 1}}
	}
	if code, ack := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{"mutations": fill}); code != http.StatusOK {
		t.Fatalf("fill batch = %d (%v)", code, ack)
	}
	code, body := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{
		"mutations": []any{map[string]any{"op": "add_edge", "edge": []float64{1, 2, 1}}},
	})
	if code != http.StatusTooManyRequests || errCode(t, body) != string(api.CodeIngestSaturated) {
		t.Fatalf("saturated delta = %d (%v), want 429 ingest_saturated", code, body)
	}
	if code, m := httpJSON(t, c, "GET", ts.URL+"/v1/metrics", nil); code != http.StatusOK {
		t.Fatal("metrics after shed")
	} else if ing := m["ingest"].(map[string]any); ing["shed"] != float64(2) {
		// The oversized batch above and the saturated batch each shed once.
		t.Fatalf("shed counter = %v, want 2", ing["shed"])
	}
	// A flush drains the buffer and admission reopens.
	if code, _ := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{"mutations": []any{}, "flush": true}); code != http.StatusOK {
		t.Fatalf("drain flush = %d", code)
	}
	if code, _ := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{
		"mutations": []any{map[string]any{"op": "add_edge", "edge": []float64{1, 2, 1}}},
	}); code != http.StatusOK {
		t.Fatalf("delta after drain = %d", code)
	}

	// The new gauges ride the Prometheus exposition.
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"cgraph_ingest_ops_total{op=\"add_edge\"}",
		"cgraph_ingest_ops_total{op=\"remove_edge\"} 1",
		"cgraph_ingest_ops_total{op=\"add_vertex\"} 2",
		"cgraph_ingest_shed_total 2",
		"cgraph_snapshot_window_oldest_seq 0",
		"cgraph_snapshot_window_newest_seq",
		"cgraph_graph_vertices 302",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("Prometheus exposition missing %q:\n%s", want, text)
		}
	}
}

// TestHTTPEventStreamResume: a watcher reconnecting with Last-Event-ID
// resumes strictly after the last event it saw instead of replaying the
// job's full history.
func TestHTTPEventStreamResume(t *testing.T) {
	svc := startService(t, server.Config{}, testEdges(), 300)
	ts := httptest.NewServer(svc.Handler(nil))
	defer ts.Close()
	c := ts.Client()

	_, st := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "pagerank"})
	id := st["id"].(string)
	pollState(t, c, ts.URL, id, server.StateDone)

	// First connection: full replay.
	resp, err := c.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	full := readSSE(t, resp.Body, 0)
	resp.Body.Close()
	if len(full) < 3 || !full[len(full)-1].Terminal() {
		t.Fatalf("full replay = %+v", full)
	}

	// Resume after the first event: the replay must start strictly later
	// and still end with the same terminal event.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(full[0].Seq))
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed := readSSE(t, resp.Body, 0)
	resp.Body.Close()
	if len(resumed) == 0 || resumed[0].Seq <= full[0].Seq {
		t.Fatalf("resumed replay did not skip: %+v", resumed)
	}
	if last := resumed[len(resumed)-1]; !last.Terminal() || last.Seq != full[len(full)-1].Seq {
		t.Fatalf("resumed replay terminal = %+v, want %+v", last, full[len(full)-1])
	}

	// Resume after the terminal event: nothing remains, the stream just
	// closes.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(full[len(full)-1].Seq))
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if events := readSSE(t, resp.Body, 0); len(events) != 0 {
		t.Fatalf("post-terminal resume replayed %+v", events)
	}
	resp.Body.Close()

	// A malformed Last-Event-ID is rejected.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", "bogus")
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus Last-Event-ID = %d, want 400", resp.StatusCode)
	}
}

// TestHTTPResumeCompactedJob: a watcher reconnecting after its job was
// compacted into the history ring still receives the synthesized terminal
// event — with a Seq above its Last-Event-ID, so seq-deduplicating clients
// do not drop it.
func TestHTTPResumeCompactedJob(t *testing.T) {
	svc := startService(t, server.Config{RetainTerminal: 1}, testEdges(), 300)
	ts := httptest.NewServer(svc.Handler(nil))
	defer ts.Close()
	c := ts.Client()

	_, a := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "pagerank"})
	aID := a["id"].(string)
	pollState(t, c, ts.URL, aID, server.StateDone)
	_, b := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "degree"})
	pollState(t, c, ts.URL, b["id"].(string), server.StateDone)

	// Job a is now compacted (retain cap 1). A reconnect that saw up to
	// seq 5 must still get the terminal event, with a higher seq.
	if code, st := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/"+aID, nil); code != http.StatusOK || st["released"] != true {
		t.Fatalf("job %s not compacted: %d %v", aID, code, st)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+aID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "5")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body, 0)
	resp.Body.Close()
	if len(events) != 1 || !events[0].Terminal() || events[0].Seq <= 5 {
		t.Fatalf("compacted resume = %+v, want one terminal event with seq > 5", events)
	}
}

// TestHTTPExecModeWire pins the exec-mode wire contract: the job spec has no
// execution-mode fields — every job runs bulk-synchronously — so strict
// decoding refuses a body that carries exec_mode or staleness, naming the
// field, and creates no job.
func TestHTTPExecModeWire(t *testing.T) {
	svc := startService(t, server.Config{}, testEdges(), 300)
	ts := httptest.NewServer(svc.Handler(nil))
	defer ts.Close()
	c := ts.Client()

	for field, v := range map[string]any{"exec_mode": "async", "staleness": 2} {
		code, body := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "pagerank", field: v})
		if code != http.StatusBadRequest || errCode(t, body) != string(api.CodeBadRequest) {
			t.Fatalf("%s = %d (%v), want 400 bad_request", field, code, body)
		}
		msg, _ := body["error"].(map[string]any)["message"].(string)
		if !strings.Contains(msg, `unknown field "`+field+`"`) {
			t.Fatalf("%s: error message %q does not name the unknown field", field, msg)
		}
	}
	if code, list := httpJSON(t, c, "GET", ts.URL+"/v1/jobs", nil); code != http.StatusOK || list["total"] != float64(0) {
		t.Fatalf("GET /v1/jobs = %d (%v), want an empty listing", code, list)
	}
}
