// Command cgraph-bench regenerates the paper's evaluation tables and
// figures; the experiment names below are the index.
//
// Usage:
//
//	cgraph-bench [-scale 1.0] [-workers 8] [-eps 1e-3] [-out dir] [-csv] [-v] [-json file] [experiment ...]
//
// With no experiment arguments every experiment runs in paper order.
// Experiment names: table1, fig1, fig2, fig8..fig19, ablation-straggler,
// ablation-scheduler, ablation-batching, ablation-two-level, concurrent,
// scaling.
//
// The `concurrent` experiment measures round-tracing overhead (traced vs
// TraceDepth=0) on the 4-job workload, plus a third leg with the span
// tracer on at default task sampling to price the distributed-span path;
// -json writes its machine-readable result (BENCH_concurrent.json in CI).
//
// The `scaling` experiment sweeps simulated core counts 1, 2, 4, …
// -max-cores over a skewed power-law workload on the work-stealing
// degree-weighted executor; -json writes its result (BENCH_scaling.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cgraph/internal/harness"
)

func main() {
	scale := flag.Float64("scale", 1.0, "dataset scale factor (1.0 = default reproduction scale)")
	workers := flag.Int("workers", 8, "simulated worker (core) count")
	eps := flag.Float64("eps", 1e-3, "PageRank convergence threshold")
	outDir := flag.String("out", "", "also write each table as CSV into this directory")
	verbose := flag.Bool("v", false, "stream progress to stderr")
	jsonOut := flag.String("json", "", "write the concurrent/scaling bench result as JSON to this file")
	traceDepth := flag.Int("trace-depth", 256, "trace ring depth for the concurrent bench's traced leg")
	benchRuns := flag.Int("runs", 3, "runs per leg for the concurrent bench (best-of)")
	maxCores := flag.Int("max-cores", 8, "largest simulated core count of the scaling sweep")
	flag.Parse()

	opt := harness.Options{Scale: *scale, Workers: *workers, Epsilon: *eps}
	if *verbose {
		opt.Log = os.Stderr
	}

	single := map[string]func(harness.Options) (*harness.Table, error){
		"table1": harness.Table1,
		"fig8":   harness.Fig8, "fig9": harness.Fig9, "fig10": harness.Fig10,
		"fig11": harness.Fig11, "fig12": harness.Fig12, "fig13": harness.Fig13,
		"fig14": harness.Fig14, "fig15": harness.Fig15, "fig16": harness.Fig16,
		"fig17": harness.Fig17, "fig18": harness.Fig18, "fig19": harness.Fig19,
		"ablation-straggler": harness.AblationStraggler,
		"ablation-scheduler": harness.AblationScheduler,
		"ablation-batching":  harness.AblationBatching,
		"ablation-two-level": harness.AblationTwoLevel,
	}
	multi := map[string]func(harness.Options) ([]*harness.Table, error){
		"fig1": harness.Fig1, "fig2": harness.Fig2,
	}

	writeJSON := func(res any) error {
		if *jsonOut == "" {
			return nil
		}
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
	}

	var tables []*harness.Table
	run := func(name string) error {
		if name == "concurrent" || name == "bench-concurrent" {
			t, res, err := harness.BenchConcurrent(opt, *traceDepth, *benchRuns)
			if err != nil {
				return err
			}
			tables = append(tables, t)
			return writeJSON(res)
		}
		if name == "scaling" || name == "bench-scaling" {
			t, res, err := harness.BenchScaling(opt, *maxCores)
			if err != nil {
				return err
			}
			tables = append(tables, t)
			return writeJSON(res)
		}
		if fn, ok := single[name]; ok {
			t, err := fn(opt)
			if err != nil {
				return err
			}
			tables = append(tables, t)
			return nil
		}
		if fn, ok := multi[name]; ok {
			ts, err := fn(opt)
			if err != nil {
				return err
			}
			tables = append(tables, ts...)
			return nil
		}
		return fmt.Errorf("unknown experiment %q", name)
	}

	var err error
	if flag.NArg() == 0 {
		tables, err = harness.All(opt)
	} else {
		for _, name := range flag.Args() {
			if err = run(strings.ToLower(name)); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgraph-bench:", err)
		os.Exit(1)
	}

	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cgraph-bench:", err)
			os.Exit(1)
		}
		if *outDir != "" {
			if err := writeCSV(*outDir, t); err != nil {
				fmt.Fprintln(os.Stderr, "cgraph-bench:", err)
				os.Exit(1)
			}
		}
	}
}

func writeCSV(dir string, t *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.CSV(f)
}
