package server_test

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"cgraph"
	"cgraph/api"
	"cgraph/internal/span"
	"cgraph/internal/testutil"
	"cgraph/model"
	"cgraph/server"
)

// startTracedService is startService with round tracing enabled at the
// given ring depth. It returns the system too, for its span tracer.
func startTracedService(t *testing.T, cfg server.Config, depth int) (*server.Service, *cgraph.System) {
	t.Helper()
	sys := cgraph.NewSystem(cgraph.WithWorkers(2), cgraph.WithCoreSubgraph(false), cgraph.WithTraceDepth(depth))
	if err := sys.LoadEdges(300, testEdges()); err != nil {
		t.Fatal(err)
	}
	svc := server.New(sys, cfg)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(t)
		defer cancel()
		svc.Stop(ctx)
	})
	return svc, sys
}

func getTrace(t *testing.T, c *http.Client, url string) (int, api.JobTrace) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr api.JobTrace
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatalf("decode trace: %v", err)
		}
	}
	return resp.StatusCode, tr
}

// TestHTTPJobAndRoundTraces drives the trace surfaces end to end: a running
// job's timeline is retrievable mid-flight, a compacted job's timeline
// survives result release, and the round ring reports scheduler-level
// records with service job names.
func TestHTTPJobAndRoundTraces(t *testing.T) {
	svc, _ := startTracedService(t, server.Config{RetainTerminal: 1}, 128)
	reg := server.DefaultRegistry()
	reg["spin"] = func(server.ProgramParams) model.Program { return spinProgram{} }
	ts := httptest.NewServer(svc.Handler(reg))
	defer ts.Close()
	c := ts.Client()

	// A running job serves its trace while still iterating.
	_, spin := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "spin"})
	spinID := spin["id"].(string)
	pollState(t, c, ts.URL, spinID, server.StateRunning)
	var running api.JobTrace
	testutil.WaitFor(t, 60*time.Second, func() bool {
		code, tr := getTrace(t, c, ts.URL+"/v1/jobs/"+spinID+"/trace")
		if code != http.StatusOK {
			t.Fatalf("GET trace = %d", code)
		}
		running = tr
		return len(tr.Rounds) > 0
	}, "running job never produced a traced round")
	if running.ID != spinID || running.Algo == "" || running.State != api.JobRunning {
		t.Fatalf("running trace envelope = %+v", running)
	}
	if running.Started == nil || running.Finished != nil || running.ExecMS <= 0 {
		t.Fatalf("running trace lifecycle = %+v", running)
	}
	for i, r := range running.Rounds {
		if r.Round < 1 || r.WallUS <= 0 || r.Parts < 1 {
			t.Fatalf("round %d = %+v", i, r)
		}
		if i > 0 && r.Round <= running.Rounds[i-1].Round {
			t.Fatalf("rounds out of order: %+v", running.Rounds)
		}
	}
	if code, _ := httpJSON(t, c, "DELETE", ts.URL+"/v1/jobs/"+spinID, nil); code != http.StatusOK {
		t.Fatalf("cancel spin = %d", code)
	}
	pollState(t, c, ts.URL, spinID, server.StateCancelled)

	// Two terminal PageRank jobs with RetainTerminal=1: the first gets its
	// results compacted, but its trace must still serve the full timeline.
	_, pr1 := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "pagerank"})
	pr1ID := pr1["id"].(string)
	pollState(t, c, ts.URL, pr1ID, server.StateDone)
	_, pr2 := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "pagerank"})
	pr2ID := pr2["id"].(string)
	pollState(t, c, ts.URL, pr2ID, server.StateDone)

	// Cancelling the spin job above makes it terminal too, so pr1's results
	// are released by now; poll briefly for the async compaction.
	var compacted api.JobTrace
	testutil.WaitFor(t, 60*time.Second, func() bool {
		code, tr := getTrace(t, c, ts.URL+"/v1/jobs/"+pr1ID+"/trace")
		if code != http.StatusOK {
			t.Fatalf("GET compacted trace = %d", code)
		}
		compacted = tr
		return tr.Released
	}, "job %s never compacted", pr1ID)
	if compacted.State != api.JobDone || compacted.Finished == nil || compacted.ExecMS <= 0 {
		t.Fatalf("compacted trace envelope = %+v", compacted)
	}
	// A converged PageRank ran many rounds, and the span store still holds
	// them after the results were released.
	if len(compacted.Rounds) < 2 {
		t.Fatalf("compacted job lost its round timeline: %+v", compacted.Rounds)
	}

	// The round ring reports scheduler records labeled with service job IDs.
	resp, err := c.Get(ts.URL + "/v1/trace/rounds")
	if err != nil {
		t.Fatal(err)
	}
	var rt api.RoundTraces
	if err := json.NewDecoder(resp.Body).Decode(&rt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rt.TraceDepth != 128 || len(rt.Rounds) == 0 {
		t.Fatalf("round traces = depth %d, %d rounds", rt.TraceDepth, len(rt.Rounds))
	}
	jobNames := map[string]bool{}
	for i, r := range rt.Rounds {
		if r.WallUS <= 0 || r.Start.IsZero() {
			t.Fatalf("round record %d = %+v", i, r)
		}
		if i > 0 && r.Round <= rt.Rounds[i-1].Round {
			t.Fatalf("round ring out of order at %d", i)
		}
		for _, jr := range r.Jobs {
			if jr.Job == "" {
				t.Fatalf("round %d job entry missing service name: %+v", r.Round, jr)
			}
			jobNames[jr.Job] = true
		}
	}
	for _, id := range []string{spinID, pr1ID} {
		if !jobNames[id] {
			t.Fatalf("job %s absent from round traces (saw %v)", id, jobNames)
		}
	}

	// Limit keeps only the newest records.
	resp, err = c.Get(ts.URL + "/v1/trace/rounds?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	var lim api.RoundTraces
	if err := json.NewDecoder(resp.Body).Decode(&lim); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(lim.Rounds) != 2 || lim.Rounds[1].Round != rt.Rounds[len(rt.Rounds)-1].Round {
		t.Fatalf("limit=2 returned %d rounds", len(lim.Rounds))
	}

	// Unknown jobs 404 with the wire error code.
	if code, body := httpJSON(t, c, "GET", ts.URL+"/v1/jobs/nope/trace", nil); code != http.StatusNotFound || errCode(t, body) != string(api.CodeNotFound) {
		t.Fatalf("unknown trace = %d (%v)", code, body)
	}
}

// TestJobTraceMatchesRoundRing: a job's trace is read from its job.round
// spans, and the round ring is built from the same per-round record, so
// every round of /v1/jobs/{id}/trace equals, field by field, that job's
// entry in /v1/trace/rounds; and since each round a job runs closes one of
// its iterations, the rounds retained plus dropped_rounds are the job's
// iterations. Checked for a converged job, a cancelled one, and a converged
// one whose earliest round spans the span store evicted.
func TestJobTraceMatchesRoundRing(t *testing.T) {
	svc, sys := startTracedService(t, server.Config{}, 1<<12)
	reg := server.DefaultRegistry()
	reg["spin"] = func(server.ProgramParams) model.Program { return spinProgram{} }
	ts := httptest.NewServer(svc.Handler(reg))
	defer ts.Close()
	c := ts.Client()

	submit := func(algo string) string {
		t.Helper()
		code, st := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": algo})
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d (%v)", algo, code, st)
		}
		return st["id"].(string)
	}
	check := func(id string) api.JobTrace {
		t.Helper()
		code, tr := getTrace(t, c, ts.URL+"/v1/jobs/"+id+"/trace")
		if code != http.StatusOK {
			t.Fatalf("GET trace %s = %d", id, code)
		}
		var st api.JobStatus
		if code := getJSON(t, c, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET status %s = %d", id, code)
		}
		if !st.State.Terminal() || st.Iterations == 0 || len(tr.Rounds) == 0 {
			t.Fatalf("job %s: state %s, %d iterations, %d traced rounds", id, st.State, st.Iterations, len(tr.Rounds))
		}
		if got := len(tr.Rounds) + tr.DroppedRounds; got != st.Iterations {
			t.Fatalf("job %s: %d rounds + %d dropped = %d, want its %d iterations",
				id, len(tr.Rounds), tr.DroppedRounds, got, st.Iterations)
		}
		var ring api.RoundTraces
		if code := getJSON(t, c, ts.URL+"/v1/trace/rounds", &ring); code != http.StatusOK {
			t.Fatalf("GET round ring = %d", code)
		}
		inRing := map[int64]api.JobRoundTrace{}
		for _, rd := range ring.Rounds {
			for _, jr := range rd.Jobs {
				if jr.Job == id {
					jr.Job = ""
					inRing[rd.Round] = jr
				}
			}
		}
		for _, r := range tr.Rounds {
			if want, ok := inRing[r.Round]; !ok || r != want {
				t.Fatalf("job %s round %d: trace %+v, ring %+v (in ring %v)", id, r.Round, r, want, ok)
			}
		}
		return tr
	}

	done := submit("pagerank")
	pollState(t, c, ts.URL, done, server.StateDone)
	if tr := check(done); tr.DroppedRounds != 0 {
		t.Fatalf("converged job dropped %d rounds with nothing evicted", tr.DroppedRounds)
	}

	spin := submit("spin")
	testutil.WaitFor(t, 60*time.Second, func() bool {
		_, tr := getTrace(t, c, ts.URL+"/v1/jobs/"+spin+"/trace")
		return len(tr.Rounds) >= 3
	}, "spin job never ran 3 rounds")
	if code, _ := httpJSON(t, c, "DELETE", ts.URL+"/v1/jobs/"+spin, nil); code != http.StatusOK {
		t.Fatalf("cancel spin = %d", code)
	}
	pollState(t, c, ts.URL, spin, server.StateCancelled)
	check(spin)

	// Unrelated spans push the converged job's earliest job.round spans out
	// of the FIFO store; the rounds left still match the ring, and the
	// evicted ones are counted as dropped.
	rounds := func() int {
		n := 0
		for _, d := range sys.SpanTracer().JobSpans(done) {
			if d.Name == "job.round" {
				n++
			}
		}
		return n
	}
	full := rounds()
	for rounds() > full-2 {
		sys.SpanTracer().Record(span.Data{Name: "filler"})
	}
	if tr := check(done); tr.DroppedRounds != 2 {
		t.Fatalf("after evicting 2 round spans: %d dropped, %d retained of %d", tr.DroppedRounds, len(tr.Rounds), full)
	}
}

// TestJobTraceWithoutRoundRing: trace depth bounds only the round ring; at
// depth 0 a job's trace still carries every round from its spans.
func TestJobTraceWithoutRoundRing(t *testing.T) {
	svc, _ := startTracedService(t, server.Config{}, 0)
	ts := httptest.NewServer(svc.Handler(nil))
	defer ts.Close()
	c := ts.Client()
	_, pr := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "pagerank"})
	id := pr["id"].(string)
	st := pollState(t, c, ts.URL, id, server.StateDone)
	_, tr := getTrace(t, c, ts.URL+"/v1/jobs/"+id+"/trace")
	if iters := int(st["iterations"].(float64)); len(tr.Rounds) != iters || tr.DroppedRounds != 0 {
		t.Fatalf("depth 0: %d rounds, %d dropped, want all %d iterations", len(tr.Rounds), tr.DroppedRounds, iters)
	}
	var ring api.RoundTraces
	if code := getJSON(t, c, ts.URL+"/v1/trace/rounds", &ring); code != http.StatusOK || ring.TraceDepth != 0 || len(ring.Rounds) != 0 {
		t.Fatalf("depth 0 round ring = %d, %+v", code, ring)
	}
}

// getJSON decodes a 200 body into out and returns the status code.
func getJSON(t *testing.T, c *http.Client, url string, out any) int {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPRequestIDHeader checks the instrumentation middleware assigns a
// request ID and echoes a caller-provided one.
func TestHTTPRequestIDHeader(t *testing.T) {
	svc := startService(t, server.Config{}, testEdges(), 300)
	ts := httptest.NewServer(svc.Handler(nil))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/sched")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID assigned")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/sched", nil)
	req.Header.Set("X-Request-ID", "caller-7")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-7" {
		t.Fatalf("X-Request-ID = %q, want caller-7", got)
	}
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

func parsePromLine(t *testing.T, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		s.name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			t.Fatalf("unbalanced braces: %q", line)
		}
		for _, pair := range strings.Split(line[i+1:j], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("bad label pair %q in %q", pair, line)
			}
			s.labels[k] = v[1 : len(v)-1]
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		var ok bool
		s.name, rest, ok = strings.Cut(line, " ")
		if !ok {
			t.Fatalf("no value on line %q", line)
		}
	}
	var err error
	s.value, err = parsePromValue(rest)
	if err != nil {
		t.Fatalf("bad value on %q: %v", line, err)
	}
	return s
}

func parsePromValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(v, 64)
}

// labelsKey renders labels minus `le`, for grouping histogram buckets.
func labelsKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "=" + labels[k] + ";")
	}
	return b.String()
}

// TestMetricsExpositionWellFormed fetches /metrics after real traffic and
// validates the whole payload: every cgraph_* family carries # HELP and
// # TYPE exactly once, histogram buckets are cumulative with the +Inf
// bucket equal to _count, and all expected histogram families exist.
func TestMetricsExpositionWellFormed(t *testing.T) {
	svc, _ := startTracedService(t, server.Config{}, 64)
	ts := httptest.NewServer(svc.Handler(nil))
	defer ts.Close()
	c := ts.Client()

	_, pr := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", map[string]any{"algo": "pagerank"})
	prID := pr["id"].(string)
	pollState(t, c, ts.URL, prID, server.StateDone)

	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, %v", resp.StatusCode, err)
	}

	help := map[string]bool{}
	typ := map[string]string{}
	var samples []promSample
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			f := strings.Fields(line)
			if help[f[2]] {
				t.Fatalf("duplicate HELP for %s", f[2])
			}
			help[f[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if _, dup := typ[f[2]]; dup {
				t.Fatalf("duplicate TYPE for %s", f[2])
			}
			typ[f[2]] = f[3]
		default:
			samples = append(samples, parsePromLine(t, line))
		}
	}

	// Resolve each sample to its family and require headers on cgraph_*.
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && typ[base] == "histogram" {
				return base
			}
		}
		return name
	}
	for _, s := range samples {
		fam := family(s.name)
		if !strings.HasPrefix(fam, "cgraph_") {
			continue
		}
		if !help[fam] {
			t.Fatalf("family %s has no # HELP", fam)
		}
		if typ[fam] == "" {
			t.Fatalf("family %s has no # TYPE", fam)
		}
	}

	// All new histogram families must be declared, and the ones a finished
	// PageRank job inevitably touches must carry observations.
	wantFamilies := []string{
		"cgraph_round_duration_seconds",
		"cgraph_job_queue_wait_seconds",
		"cgraph_job_exec_seconds",
		"cgraph_ingest_flush_seconds",
		"cgraph_ingest_flush_batch_size",
		"cgraph_delta_materialize_seconds",
		"cgraph_http_request_seconds",
	}
	for _, fam := range wantFamilies {
		if typ[fam] != "histogram" {
			t.Fatalf("family %s: TYPE %q, want histogram", fam, typ[fam])
		}
	}

	// PR 9 tracing, probe, and attribution families: present with the right
	// types, the readiness gauge reads 1 on a serving engine, build info
	// carries its identity labels, and the finished job shows up in the
	// per-job attribution block.
	wantTyped := map[string]string{
		"cgraph_span_started_total":            "counter",
		"cgraph_span_ended_total":              "counter",
		"cgraph_span_evicted_total":            "counter",
		"cgraph_span_store_spans":              "gauge",
		"cgraph_span_store_traces":             "gauge",
		"cgraph_span_store_capacity":           "gauge",
		"cgraph_ready":                         "gauge",
		"cgraph_build_info":                    "gauge",
		"cgraph_job_attrib_queue_wait_seconds": "gauge",
		"cgraph_job_attrib_exec_seconds":       "gauge",
		"cgraph_job_attrib_rounds":             "gauge",
		"cgraph_job_attrib_tasks":              "gauge",
		"cgraph_job_attrib_skipped_partitions": "gauge",
		"cgraph_job_attrib_makespan_share":     "gauge",
	}
	for fam, want := range wantTyped {
		if typ[fam] != want {
			t.Fatalf("family %s: TYPE %q, want %q", fam, typ[fam], want)
		}
	}
	byName := map[string][]promSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}
	if v := byName["cgraph_ready"]; len(v) != 1 || v[0].value != 1 {
		t.Fatalf("cgraph_ready = %+v, want a single sample of 1", v)
	}
	if v := byName["cgraph_build_info"]; len(v) != 1 || v[0].value != 1 ||
		v[0].labels["version"] == "" || v[0].labels["go_version"] == "" || v[0].labels["api"] == "" {
		t.Fatalf("cgraph_build_info = %+v", v)
	}
	if v := byName["cgraph_span_started_total"]; len(v) != 1 || v[0].value <= 0 {
		t.Fatalf("cgraph_span_started_total = %+v, want one sample > 0 after a traced job", v)
	}
	attribRounds := map[string]float64{}
	for _, s := range byName["cgraph_job_attrib_rounds"] {
		attribRounds[s.labels["id"]] = s.value
	}
	if attribRounds[prID] < 1 {
		t.Fatalf("cgraph_job_attrib_rounds for job %s = %v, want >= 1 (saw %v)", prID, attribRounds[prID], attribRounds)
	}
	kinds := map[string]bool{}
	for _, s := range byName["cgraph_job_attrib_tasks"] {
		if s.labels["id"] == prID {
			kinds[s.labels["kind"]] = true
		}
	}
	if !kinds["executed"] || !kinds["stolen"] {
		t.Fatalf("cgraph_job_attrib_tasks kinds for %s = %v, want executed and stolen series", prID, kinds)
	}

	// Cumulative bucket check per (family, labels-minus-le) series.
	type series struct {
		les    []float64
		counts []float64
	}
	buckets := map[string]*series{}
	counts := map[string]float64{}
	for _, s := range samples {
		if base, ok := strings.CutSuffix(s.name, "_bucket"); ok && typ[base] == "histogram" {
			le, err := parsePromValue(s.labels["le"])
			if err != nil {
				t.Fatalf("bad le on %s: %v", s.name, err)
			}
			key := base + "|" + labelsKey(s.labels)
			sr := buckets[key]
			if sr == nil {
				sr = &series{}
				buckets[key] = sr
			}
			sr.les = append(sr.les, le)
			sr.counts = append(sr.counts, s.value)
		}
		if base, ok := strings.CutSuffix(s.name, "_count"); ok && typ[base] == "histogram" {
			counts[base+"|"+labelsKey(s.labels)] = s.value
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram series rendered")
	}
	for key, sr := range buckets {
		if !sort.Float64sAreSorted(sr.les) {
			t.Fatalf("series %s: le bounds out of order: %v", key, sr.les)
		}
		for i := 1; i < len(sr.counts); i++ {
			if sr.counts[i] < sr.counts[i-1] {
				t.Fatalf("series %s: buckets not cumulative: %v", key, sr.counts)
			}
		}
		last := len(sr.les) - 1
		if !math.IsInf(sr.les[last], 1) {
			t.Fatalf("series %s: missing +Inf bucket (%v)", key, sr.les)
		}
		total, ok := counts[key]
		if !ok || sr.counts[last] != total {
			t.Fatalf("series %s: +Inf bucket %v != _count %v (present %v)", key, sr.counts[last], total, ok)
		}
	}
	for _, fam := range []string{"cgraph_round_duration_seconds", "cgraph_job_queue_wait_seconds", "cgraph_http_request_seconds"} {
		hit := false
		for key := range buckets {
			if strings.HasPrefix(key, fam+"|") && counts[key] > 0 {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("family %s has no observations after a completed job", fam)
		}
	}
}
