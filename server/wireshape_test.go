package server_test

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"cgraph"
	"cgraph/server"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire_shape.golden from the running service")

// keyPaths collects every JSON key path of v into set; array elements
// collapse to "[]", so a path names a shape, not an instance.
func keyPaths(prefix string, v any, set map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			p := prefix + "." + k
			set[p] = true
			keyPaths(p, e, set)
		}
	case []any:
		for _, e := range x {
			keyPaths(prefix+"[]", e, set)
		}
	}
}

// TestWireShapeGolden pins the shape of the read-out payloads: the sorted
// JSON key paths of /v1/metrics, /v1/sched, /v1/trace/rounds and
// /v1/jobs/{id}/trace, and the sorted family names of the Prometheus
// exposition, after a small BSP batch and one flushed delta. The structs
// behind these payloads are re-exported across three layers, so a field
// added, renamed or dropped anywhere along the way shows up here as a diff
// against testdata/wire_shape.golden (regenerate with -update-golden).
//
// One worker keeps the shape deterministic: steal counts are omitempty and
// a single-worker pool never steals. The batch is BSP-only, so the
// exec_mode / fresh_folds keys of non-BSP jobs are absent by construction.
func TestWireShapeGolden(t *testing.T) {
	sys := cgraph.NewSystem(cgraph.WithWorkers(1), cgraph.WithCoreSubgraph(false), cgraph.WithTraceDepth(64))
	if err := sys.LoadEdges(300, testEdges()); err != nil {
		t.Fatal(err)
	}
	svc := server.New(sys, server.Config{})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(t)
		defer cancel()
		svc.Stop(ctx)
	})
	ts := httptest.NewServer(svc.Handler(nil))
	defer ts.Close()
	c := ts.Client()

	var ids []string
	for _, spec := range []map[string]any{
		{"algo": "pagerank", "priority": 2},
		// A priority orders admission at the in-flight cap only (none is
		// set here); no pinned read-out carries it, so which job the last
		// round still holds cannot change the shape.
		{"algo": "sssp", "source": 3, "priority": 1},
	} {
		code, st := httpJSON(t, c, "POST", ts.URL+"/v1/jobs", spec)
		if code != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs %v = %d (%v)", spec, code, st)
		}
		ids = append(ids, st["id"].(string))
	}
	for _, id := range ids {
		pollState(t, c, ts.URL, id, server.StateDone)
	}
	code, ack := httpJSON(t, c, "POST", ts.URL+"/v1/deltas", map[string]any{
		"flush":     true,
		"mutations": []map[string]any{{"op": "rewrite", "slot": 0, "edge": []float64{1, 2, 3}}},
	})
	if code != http.StatusOK || ack["flushed"] != true {
		t.Fatalf("POST /v1/deltas = %d (%v), want a flushed batch", code, ack)
	}

	var got []string
	for _, path := range []string{"/v1/metrics", "/v1/sched", "/v1/trace/rounds", "/v1/jobs/" + ids[0] + "/trace"} {
		code, body := httpJSON(t, c, "GET", ts.URL+path, nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d (%v)", path, code, body)
		}
		set := make(map[string]bool)
		keyPaths("", body, set)
		paths := make([]string, 0, len(set))
		for p := range set {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		label := strings.Replace(path, ids[0], "{id}", 1)
		for _, p := range paths {
			got = append(got, fmt.Sprintf("GET %s %s", label, p))
		}
	}
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families = append(families, fmt.Sprintf("GET /metrics %s %s", f[2], f[3]))
		}
	}
	sort.Strings(families)
	got = append(got, families...)
	text := strings.Join(got, "\n") + "\n"

	const golden = "testdata/wire_shape.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Fatalf("wire shape drifted from %s (-want +got):\n%s", golden, lineDiff(string(want), text))
	}
}

// lineDiff lists the lines present in only one of two newline-joined sets.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var out []string
	for l := range w {
		if !g[l] {
			out = append(out, "-"+l)
		}
	}
	for l := range g {
		if !w[l] {
			out = append(out, "+"+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
