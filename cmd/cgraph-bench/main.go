// Command cgraph-bench regenerates the paper's evaluation tables and
// figures (§4) in memsim virtual time. Wall-clock numbers come from the
// benchmark/ module, not from here.
//
// Usage:
//
//	cgraph-bench [-scale 1.0] [-workers 8] [-eps 1e-3] [-out dir] [-v] [experiment ...]
//
// With no experiment arguments every experiment runs in paper order. The
// names (table1, fig1, …) are those of harness.Experiments; an unknown name
// fails and lists the valid ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cgraph/internal/harness"
)

func main() {
	scale := flag.Float64("scale", 1.0, "dataset scale factor (1.0 = default reproduction scale)")
	workers := flag.Int("workers", 8, "simulated worker (core) count")
	eps := flag.Float64("eps", 1e-3, "PageRank convergence threshold")
	outDir := flag.String("out", "", "also write each table as CSV into this directory")
	verbose := flag.Bool("v", false, "stream progress to stderr")
	flag.Parse()

	opt := harness.Options{Scale: *scale, Workers: *workers, Epsilon: *eps}
	if *verbose {
		opt.Log = os.Stderr
	}

	var tables []*harness.Table
	var err error
	if flag.NArg() == 0 {
		tables, err = harness.All(opt)
	} else {
		for _, name := range flag.Args() {
			var x harness.Experiment
			if x, err = harness.Lookup(name); err != nil {
				break
			}
			var ts []*harness.Table
			if ts, err = x.Run(opt); err != nil {
				break
			}
			tables = append(tables, ts...)
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
