package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// pooled is one end-to-end metric over the passes of an -all run: the median
// of the passes' values and their spread, (max - min) / median, which
// -compare holds against the metric's bound.
type pooled struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Passes []float64 `json:"passes"`
	Spread float64   `json:"spread"`
}

type workloadResult struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]pooled `json:"end_to_end"`
	PerLayer  map[string]value  `json:"per_layer"`
}

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Meta struct {
		NProc   int    `json:"nproc"`
		CPU     string `json:"cpu"`
		Go      string `json:"go"`
		Procs   int    `json:"procs"`
		Seed    int64  `json:"seed"`
		Seconds int    `json:"seconds"`
		Passes  int    `json:"passes"`
	} `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runChild runs one workload in a fresh process of this binary and parses
// the result line it prints last.
func runChild(o options, workload string, trace int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(trace), "-procs", strconv.Itoa(o.procs)}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// runAll makes the interleaved untraced passes over the workloads (A B C D,
// A B C D, ...), one fresh process per workload per pass, so that a drift of
// the machine spreads over every workload instead of landing on one; then
// one traced run per workload. It prints every metric and writes outFile.
func runAll(o options) error {
	var rf resultFile
	rf.Meta.NProc, rf.Meta.CPU, rf.Meta.Go = runtime.NumCPU(), cpuModel(), runtime.Version()
	rf.Meta.Procs, rf.Meta.Seed, rf.Meta.Seconds, rf.Meta.Passes = o.procs, o.seed, o.seconds, passes
	rf.Workloads = map[string]*workloadResult{}
	values := map[string]map[string][]float64{}
	for _, w := range workloads {
		rf.Workloads[w.name] = &workloadResult{EndToEnd: map[string]pooled{}}
		values[w.name] = map[string][]float64{}
	}
	for pass := 0; pass < passes; pass++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "pass %d/%d  %s\n", pass+1, passes, w.name)
			res, err := runChild(o, w.name, 0)
			if err != nil {
				return err
			}
			wr := rf.Workloads[w.name]
			wr.Attempted, wr.Failed = wr.Attempted+res.Attempted, wr.Failed+res.Failed
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
		}
	}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "traced  %s\n", w.name)
		res, err := runChild(o, w.name, 1)
		if err != nil {
			return err
		}
		wr := rf.Workloads[w.name]
		wr.PerLayer = res.Metrics
		for _, s := range endToEnd {
			vs := values[w.name][s.Name]
			med := median(vs)
			wr.EndToEnd[s.Name] = pooled{Value: med, Unit: s.Unit, Passes: vs,
				Spread: ratio(quantile(vs, 1)-quantile(vs, 0), med)}
		}
	}

	for _, w := range workloads {
		wr := rf.Workloads[w.name]
		fmt.Printf("== %s  attempted %d  failed %d\n", w.name, wr.Attempted, wr.Failed)
		for _, s := range endToEnd {
			m := wr.EndToEnd[s.Name]
			fmt.Printf("%-32s %16.6f %-6s spread %.3f\n", s.Name, m.Value, m.Unit, m.Spread)
		}
		for _, s := range perLayer {
			m := wr.PerLayer[s.Name]
			fmt.Printf("%-32s %16.6f %s\n", s.Name, m.Value, m.Unit)
		}
	}
	body, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.outFile), 0o755); err != nil {
		return err
	}
	return os.WriteFile(o.outFile, append(body, '\n'), 0o644)
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	body, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(body, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareFiles compares two -all result files; see compareResults.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	return compareResults(w, a, b)
}

// placeholders are the (metric, workload) pairs that exist only because the
// driver's contract wants every workload to report every end-to-end metric:
// small probes beside the workload's own traffic (README "End-to-end
// metrics"). -compare prints them and gates nothing on them.
var placeholders = map[string][]string{
	"batch_wall_ms":        {"serve_http", "evolve_ingest"},
	"job_latency_p50_ms":   {"batch_dense", "batch_frontier"},
	"jobs_per_s":           {"batch_dense", "batch_frontier"},
	"delta_visible_p50_ms": {"batch_dense", "batch_frontier", "serve_http"},
}

// compareResults prints, per workload and end-to-end metric, how much worse
// B is than A as a share of A, against the metric's bound. A metric whose
// pass-to-pass spread on either side exceeds its bound is unresolved, not
// unchanged. It returns an error, and so a non-zero exit, when a metric
// regressed or has no value on one side, when more operations failed in B, or
// when an exact count differs.
func compareResults(w io.Writer, a, b resultFile) error {
	var bad []string
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			bad = append(bad, wl.name+": missing from one file")
			continue
		}
		fmt.Fprintf(w, "== %s\n", wl.name)
		for _, s := range endToEnd {
			ma, mb := wa.EndToEnd[s.Name], wb.EndToEnd[s.Name]
			worse := ratio(mb.Value-ma.Value, ma.Value)
			if s.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case !(ma.Value > 0 && mb.Value > 0):
				verdict = "NO VALUE"
				bad = append(bad, fmt.Sprintf("%s %s: no value on one side (%v, %v)", wl.name, s.Name, ma.Value, mb.Value))
			case slices.Contains(placeholders[s.Name], wl.name):
				verdict = "placeholder, not gated"
			case max(ma.Spread, mb.Spread) > s.Bound:
				verdict = "unresolved"
			case worse > s.Bound:
				verdict = "REGRESSION"
				bad = append(bad, fmt.Sprintf("%s %s: %+.1f%% worse, bound %.0f%%", wl.name, s.Name, 100*worse, 100*s.Bound))
			}
			fmt.Fprintf(w, "%-24s %14.4f -> %14.4f %-5s %+7.2f%% worse (bound %2.0f%%, spread %4.1f%% / %4.1f%%)  %s\n",
				s.Name, ma.Value, mb.Value, s.Unit, 100*worse, 100*s.Bound, 100*ma.Spread, 100*mb.Spread, verdict)
		}
		ea, eb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		fmt.Fprintf(w, "%-24s %14.6f -> %14.6f ratio\n", "error_rate", ea, eb)
		if eb > ea {
			bad = append(bad, fmt.Sprintf("%s error_rate rose from %g to %g", wl.name, ea, eb))
		}
		for _, name := range exactCounts {
			ca, cb := wa.PerLayer[name].Value, wb.PerLayer[name].Value
			fmt.Fprintf(w, "%-24s %14.0f -> %14.0f count\n", name, ca, cb)
			if ca != cb {
				bad = append(bad, fmt.Sprintf("%s %s differs: %.0f vs %.0f", wl.name, name, ca, cb))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d finding(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
