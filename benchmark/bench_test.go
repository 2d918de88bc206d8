package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

func toyEnv(t *testing.T, traced bool) *env {
	e := &env{procs: 2, seed: 77, seconds: 2 * time.Second, sizes: toySizes, outDir: t.TempDir()}
	if traced {
		e.rec = newRecorder()
	}
	return e
}

// TestSmoke runs every workload at toy size, traced, and checks that every
// named metric of both lists comes out present, finite and unit-tagged, and
// that no operation failed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := toyEnv(t, true)
			in := w.inputs(e.seed, e.sizes)
			out, err := w.run(e, in)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted < 1 || len(out.failures) != 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.attempted, len(out.failures), out.failures)
			}
			layer, err := legs(e, in, out)
			if err != nil {
				t.Fatal(err)
			}
			if layer["error_rate"] != 0 {
				t.Errorf("error_rate = %v, want 0", layer["error_rate"])
			}
			for _, part := range []struct {
				specs []metricSpec
				vals  map[string]float64
			}{{endToEnd, out.e2e}, {perLayer, layer}} {
				res, err := newResult(part.specs, part.vals, out.attempted, len(out.failures))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Metrics) != len(part.specs) {
					t.Errorf("%d metrics reported, %d named", len(res.Metrics), len(part.specs))
				}
				for _, s := range part.specs {
					m := res.Metrics[s.Name]
					if m.Unit == "" || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v %q, want a finite value in %q", s.Name, m.Value, m.Unit, s.Unit)
					}
				}
			}
			for _, s := range endToEnd {
				if out.e2e[s.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", s.Name, out.e2e[s.Name])
				}
			}
			if err := e.rec.dump(e.outDir, w.name); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWrongOracleCountsAsFailure corrupts one oracle value and expects the
// job it belongs to to be counted as a failed operation and left out of the
// latency samples.
func TestWrongOracleCountsAsFailure(t *testing.T) {
	e := toyEnv(t, false)
	in := frontierInputs(e.seed, e.sizes)
	o := oraclesFor(in)
	o.want[0][1]++
	s, _ := runBatch(e, in, o, nil, e.procs, 1)
	if len(s.failures) != 1 || s.ops != len(in.jobs) || s.jobLat[0] != 0 || s.jobLat[1] == 0 {
		t.Fatalf("failures %v, ops %d, latencies %v; want 1 failure of %d ops and no latency for job 0",
			s.failures, s.ops, s.jobLat, len(in.jobs))
	}
	if err := checkTop(nil, o.want[0], 0, topK); err == nil {
		t.Error("checkTop accepted an empty top list")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a: counted once
		{Name: "open", Start: 70, End: -1, Parent: 0},
	}
	got := selfTimes(spans)
	want := []int64{50, 30, 30, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestCompareFlagsRegressionAndExactCounts(t *testing.T) {
	mk := func(wall, spread, iters float64) resultFile {
		var rf resultFile
		rf.Workloads = map[string]*workloadResult{}
		for _, w := range workloads {
			wr := &workloadResult{Attempted: 10, EndToEnd: map[string]pooled{}, PerLayer: map[string]value{}}
			for _, s := range endToEnd {
				wr.EndToEnd[s.Name] = pooled{Value: 100, Unit: s.Unit}
			}
			wr.EndToEnd["batch_wall_ms"] = pooled{Value: wall, Unit: "ms", Spread: spread}
			for _, name := range exactCounts {
				wr.PerLayer[name] = value{Value: iters, Unit: "count"}
			}
			rf.Workloads[w.name] = wr
		}
		return rf
	}
	cases := []struct {
		name    string
		a, b    resultFile
		wantErr bool
	}{
		{"same", mk(100, 0.01, 5), mk(100, 0.01, 5), false},
		{"inside the bound", mk(100, 0.01, 5), mk(120, 0.01, 5), false},
		{"regression", mk(100, 0.01, 5), mk(140, 0.01, 5), true},
		{"unresolved, not a regression", mk(100, 0.3, 5), mk(140, 0.01, 5), false},
		{"exact count differs", mk(100, 0.01, 5), mk(100, 0.01, 6), true},
		{"a metric without a value", mk(0, 0.01, 5), mk(100, 0.01, 5), true},
	}
	for _, c := range cases {
		err := compareResults(io.Discard, c.a, c.b)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables of this
// package from drifting apart: same workloads, same metrics, same units,
// directions and bounds, in the same order.
func TestManifestMatchesTables(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	for _, part := range []struct {
		name      string
		got, want []metricSpec
	}{{"end_to_end", manifest.EndToEnd, endToEnd}, {"per_layer", manifest.PerLayer, perLayer}} {
		if len(part.got) != len(part.want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", part.name, len(part.got), len(part.want))
		}
		for i := range part.want {
			if part.got[i] != part.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", part.name, i, part.got[i], part.want[i])
			}
		}
	}
}
