// Command cgraph-run executes a set of concurrent iterative graph jobs over
// one graph with the CGraph engine and prints per-job results summaries.
//
// Usage:
//
//	cgraph-run -graph edges.tsv [-workers 8] [-top 10] job[,job...]
//	cgraph-run -dataset ukunion-sim [-scale 1.0] job[,job...]
//
// Jobs: pagerank, ppr:<src>, sssp:<src>, bfs:<src>, wcc, scc, kcore:<k>,
// sswp:<src>, degree. Example:
//
//	cgraph-run -dataset twitter-sim pagerank,sssp:0,scc,bfs:0
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"cgraph"
	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/model"
)

func main() {
	graphFile := flag.String("graph", "", "edge-list file (src dst [weight] per line)")
	dataset := flag.String("dataset", "", "named stand-in dataset (see cgraph-gen -list)")
	scale := flag.Float64("scale", 1.0, "stand-in scale factor")
	workers := flag.Int("workers", 0, "worker count of the work-stealing execution pool (default GOMAXPROCS)")
	top := flag.Int("top", 5, "print the top-k vertices per job")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cgraph-run [-graph file | -dataset name] job[,job...]")
		os.Exit(2)
	}

	sys := cgraph.NewSystem(cgraph.WithWorkers(*workers))
	switch {
	case *graphFile != "":
		if err := sys.LoadEdgeFile(*graphFile); err != nil {
			fatal(err)
		}
	case *dataset != "":
		d, err := gen.StandIn(*dataset, *scale)
		if err != nil {
			fatal(err)
		}
		if err := sys.LoadEdges(d.NumVertices, d.Generate()); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("one of -graph or -dataset is required"))
	}

	var jobs []*cgraph.Job
	for _, spec := range strings.Split(flag.Arg(0), ",") {
		prog, err := parseJob(spec)
		if err != nil {
			fatal(err)
		}
		j, err := sys.Submit(prog)
		if err != nil {
			fatal(err)
		}
		jobs = append(jobs, j)
	}

	rep, err := sys.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ran %d jobs on %d workers in %v (simulated %.0f µs)\n\n",
		len(rep.Jobs), rep.Workers, rep.WallClock, rep.SimulatedMakespanUS)
	for _, jr := range rep.Jobs {
		fmt.Printf("%-10s %3d iterations, %d edges processed\n", jr.Name, jr.Iterations, jr.EdgesProcessed)
	}
	fmt.Println()
	for _, j := range jobs {
		res, err := j.Results()
		if err != nil {
			fatal(err)
		}
		printTop(j.Name(), res, *top)
	}
}

func parseJob(spec string) (model.Program, error) {
	name, arg, _ := strings.Cut(spec, ":")
	atoi := func() (uint64, error) { return strconv.ParseUint(arg, 10, 32) }
	switch strings.ToLower(name) {
	case "pagerank", "pr":
		return algo.NewPageRank(), nil
	case "ppr":
		v, err := atoi()
		if err != nil {
			return nil, fmt.Errorf("ppr needs a source: ppr:<src>")
		}
		return algo.NewPPR(model.VertexID(v)), nil
	case "sssp":
		v, err := atoi()
		if err != nil {
			return nil, fmt.Errorf("sssp needs a source: sssp:<src>")
		}
		return algo.NewSSSP(model.VertexID(v)), nil
	case "bfs":
		v, err := atoi()
		if err != nil {
			return nil, fmt.Errorf("bfs needs a source: bfs:<src>")
		}
		return algo.NewBFS(model.VertexID(v)), nil
	case "sswp":
		v, err := atoi()
		if err != nil {
			return nil, fmt.Errorf("sswp needs a source: sswp:<src>")
		}
		return algo.NewSSWP(model.VertexID(v)), nil
	case "wcc":
		return algo.NewWCC(), nil
	case "scc":
		return algo.NewSCC(), nil
	case "kcore":
		k, err := atoi()
		if err != nil {
			return nil, fmt.Errorf("kcore needs k: kcore:<k>")
		}
		return algo.NewKCore(int(k)), nil
	case "degree":
		return algo.NewDegree(), nil
	}
	return nil, fmt.Errorf("unknown job %q", spec)
}

func printTop(name string, res []float64, k int) {
	type vv struct {
		v model.VertexID
		x float64
	}
	all := make([]vv, 0, len(res))
	for v, x := range res {
		all = append(all, vv{model.VertexID(v), x})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].x > all[j].x })
	if k > len(all) {
		k = len(all)
	}
	fmt.Printf("%s top %d:\n", name, k)
	for _, e := range all[:k] {
		fmt.Printf("  v%-8d %g\n", e.v, e.x)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgraph-run:", err)
	os.Exit(1)
}
