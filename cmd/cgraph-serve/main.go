// Command cgraph-serve runs a resident CGraph job service — one shared
// (optionally evolving) graph held in memory, the versioned /v1 HTTP/JSON
// control plane accepting concurrent iterative jobs, and the engine's
// round loop sharing every partition load across whatever jobs are in
// flight — and doubles as its admin CLI: with -connect it drives a running
// instance through the Go HTTP client instead of serving.
//
// Serve:
//
//	cgraph-serve -graph edges.tsv [-addr :8040] [-workers 8] [-max-inflight 16]
//	cgraph-serve -dataset ukunion-sim [-scale 0.1] [-retain-terminal 64]
//	cgraph-serve -dataset twitter-sim -ingest-window 200ms -ingest-batch 128 -retain-snapshots 8
//	cgraph-serve -dataset ukunion-sim -trace-depth 512 -log-format json -log-level debug -pprof-addr localhost:6060
//
// Admin (all wire shapes are api types; errors carry machine-readable codes):
//
//	cgraph-serve -connect http://localhost:8040 submit pagerank priority=2
//	cgraph-serve -connect http://localhost:8040 submit sssp source=3 timeout_ms=5000
//	cgraph-serve -connect http://localhost:8040 list state=done label.team=growth
//	cgraph-serve -connect http://localhost:8040 get job-0
//	cgraph-serve -connect http://localhost:8040 watch job-0
//	cgraph-serve -connect http://localhost:8040 results job-0 5
//	cgraph-serve -connect http://localhost:8040 cancel job-1
//	cgraph-serve -connect http://localhost:8040 delta 17=3,9,1 42=5,5,2 flush
//	cgraph-serve -connect http://localhost:8040 delta add=3,9,1 remove=5,5 vertex=1200 flush
//	cgraph-serve -connect http://localhost:8040 trace job-0
//	cgraph-serve -connect http://localhost:8040 trace rounds 10
//	cgraph-serve -connect http://localhost:8040 spans job-0
//	cgraph-serve -connect http://localhost:8040 spans trace 0af7651916cd43dd8448eb211c80319c
//	cgraph-serve -connect http://localhost:8040 sched
//	cgraph-serve -connect http://localhost:8040 metrics
//	cgraph-serve -connect http://localhost:8040 health
//	cgraph-serve -connect http://localhost:8040 version
//
// Raw control plane (curl):
//
//	curl -X POST localhost:8040/v1/jobs -d '{"algo":"pagerank"}'
//	curl localhost:8040/v1/jobs                     # list (?limit/&offset paginate, ?state/&label filter)
//	curl -N localhost:8040/v1/jobs/job-0/events     # server-sent event stream
//	curl 'localhost:8040/v1/jobs/job-1/results?top=5'
//	curl -X POST localhost:8040/v1/snapshots -d '{"timestamp":20,"edges":[[0,1,1],...]}'
//	curl -X POST localhost:8040/v1/deltas -d '{"mutations":[{"slot":17,"edge":[3,9,1]}]}'
//	curl localhost:8040/v1/jobs/job-0/trace         # round-by-round timeline
//	curl 'localhost:8040/v1/trace/rounds?limit=10'  # engine round traces (units, makespan, per-job split)
//	curl localhost:8040/v1/sched                    # last round's jobs, load order, makespan
//	curl localhost:8040/metrics                     # Prometheus text exposition
//
// Every round loads partitions in the paper's Eq. 1 order; there is no
// policy to choose. The engine admits jobs at round boundaries: while
// -max-inflight jobs run, the others wait in its admission queue, highest
// priority (submit ... priority=2) first. A job's priority orders only that
// queue, and the service keeps no queue of its own.
//
// The graph is partitioned without the core-subgraph split by default so
// that snapshot ingestion works (slot-stable partitions); pass
// -core-subgraph to enable it for static graphs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cgraph"
	"cgraph/api"
	"cgraph/client"
	"cgraph/internal/gen"
	"cgraph/server"
)

func main() {
	addr := flag.String("addr", ":8040", "listen address")
	connect := flag.String("connect", "", "admin mode: drive the instance at this base URL instead of serving")
	graphFile := flag.String("graph", "", "edge-list file (src dst [weight] per line)")
	dataset := flag.String("dataset", "", "named stand-in dataset (see cgraph-gen -list)")
	scale := flag.Float64("scale", 1.0, "stand-in scale factor")
	workers := flag.Int("workers", 0, "worker count of the work-stealing execution pool (default GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently running jobs, 0 = unlimited")
	defaultTimeout := flag.Duration("default-timeout", 0, "per-job timeout applied when a submission has none, 0 = none")
	retainTerminal := flag.Int("retain-terminal", 0, "terminal jobs kept with results before compacting to the history ring, 0 = keep all")
	retainSnapshots := flag.Int("retain-snapshots", 0, "graph snapshots retained before evicting unreferenced old versions, 0 = keep all")
	ingestWindow := flag.Duration("ingest-window", 0, "delta batching window: buffered mutations this old flush into a snapshot, 0 = count/manual triggers only")
	ingestBatch := flag.Int("ingest-batch", 0, "delta count trigger: flush once this many distinct slots are buffered (default 256)")
	ingestCap := flag.Int("ingest-cap", 0, "delta admission cap: shed batches (429 ingest_saturated) once this many mutations are pending, 0 = unbounded")
	coreSubgraph := flag.Bool("core-subgraph", false, "enable §3.3 core-subgraph partitioning (disables snapshot ingestion)")
	traceDepth := flag.Int("trace-depth", 256, "round-trace ring depth for /v1/trace/rounds, 0 disables the ring (job traces read the span store at any depth)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof on a separate listener, empty disables")
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}

	if *connect != "" {
		if err := admin(*connect, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}

	sys := cgraph.NewSystem(
		cgraph.WithWorkers(*workers),
		cgraph.WithCoreSubgraph(*coreSubgraph),
		cgraph.WithRetainSnapshots(*retainSnapshots),
		cgraph.WithIngestWindow(*ingestWindow),
		cgraph.WithIngestBatch(*ingestBatch),
		cgraph.WithIngestCap(*ingestCap),
		cgraph.WithTraceDepth(*traceDepth),
	)
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
		fatal(fmt.Errorf("one of -graph or -dataset is required (or -connect for admin mode)"))
	}

	svc := server.New(sys, server.Config{
		MaxInFlight:    *maxInflight,
		DefaultTimeout: *defaultTimeout,
		RetainTerminal: *retainTerminal,
		Logger:         logger,
	})
	if err := svc.Start(); err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler(nil)}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }() //cgraph:spawn one HTTP listener for the process lifetime
	logger.Info("cgraph-serve listening", "addr", *addr, "trace_depth", *traceDepth)

	var pprofSrv *http.Server
	if *pprofAddr != "" {
		// pprof rides its own listener and mux so the profiling surface is
		// never exposed on the service address.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Addr: *pprofAddr, Handler: pmux}
		//cgraph:spawn one pprof listener for the process lifetime
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof server", "error", err.Error())
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
	case err := <-errc:
		logger.Error("http server", "error", err.Error())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if pprofSrv != nil {
		pprofSrv.Shutdown(ctx)
	}
	if err := svc.Stop(ctx); err != nil {
		logger.Error("service stop", "error", err.Error())
	}
	// Drain the delta pipeline so buffered mutations are not stranded and
	// no age-trigger flush fires mid-teardown.
	if err := sys.CloseIngest(); err != nil {
		logger.Error("ingest close", "error", err.Error())
	}
}

// buildLogger assembles the process logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// admin drives a running instance through the HTTP client.
func admin(base string, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("admin mode needs a command: submit, get, list, watch, results, cancel, delta, trace, spans, sched, metrics, health, version")
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	c := client.New(base)
	switch cmd, rest := args[0], args[1:]; cmd {
	case "submit":
		if len(rest) < 1 {
			return fmt.Errorf("usage: submit <algo> [source=N] [k=N] [priority=N] [timeout_ms=N] [at=TS] [label.key=val]")
		}
		spec, err := parseSpec(rest)
		if err != nil {
			return err
		}
		st, err := c.Submit(ctx, spec)
		if err != nil {
			return err
		}
		return dump(st)
	case "get":
		if len(rest) != 1 {
			return fmt.Errorf("usage: get <job-id>")
		}
		st, err := c.Get(ctx, rest[0])
		if err != nil {
			return err
		}
		return dump(st)
	case "list":
		opts, err := parseListOptions(rest)
		if err != nil {
			return err
		}
		list, err := c.List(ctx, opts)
		if err != nil {
			return err
		}
		return dump(list)
	case "delta":
		if len(rest) < 1 {
			return fmt.Errorf("usage: delta [<slot>=<src>,<dst>[,<w>] | add=<src>,<dst>[,<w>] | remove=<src>,<dst> | vertex=<id>]... [at=TS] [flush]")
		}
		delta, err := parseDelta(rest)
		if err != nil {
			return err
		}
		ack, err := c.ApplyDelta(ctx, delta)
		if err != nil {
			return err
		}
		return dump(ack)
	case "watch":
		if len(rest) != 1 {
			return fmt.Errorf("usage: watch <job-id>")
		}
		events, err := c.Watch(ctx, rest[0])
		if err != nil {
			return err
		}
		for ev := range events {
			if err := dump(ev); err != nil {
				return err
			}
		}
		return nil
	case "results":
		if len(rest) < 1 || len(rest) > 2 {
			return fmt.Errorf("usage: results <job-id> [top]")
		}
		var opts api.ResultsOptions
		if len(rest) == 2 {
			top, err := strconv.Atoi(rest[1])
			if err != nil {
				return fmt.Errorf("bad top %q", rest[1])
			}
			opts.Top = top
		}
		res, err := c.Results(ctx, rest[0], opts)
		if err != nil {
			return err
		}
		return dump(res)
	case "cancel":
		if len(rest) != 1 {
			return fmt.Errorf("usage: cancel <job-id>")
		}
		st, err := c.Cancel(ctx, rest[0])
		if err != nil {
			return err
		}
		return dump(st)
	case "trace":
		switch {
		case len(rest) == 1 && rest[0] != "rounds":
			tr, err := c.JobTrace(ctx, rest[0])
			if err != nil {
				return err
			}
			renderJobTrace(os.Stdout, tr)
			return nil
		case len(rest) >= 1 && rest[0] == "rounds":
			var opts api.TraceOptions
			if len(rest) == 2 {
				limit, err := strconv.Atoi(rest[1])
				if err != nil || limit < 0 {
					return fmt.Errorf("bad limit %q", rest[1])
				}
				opts.Limit = limit
			} else if len(rest) > 2 {
				return fmt.Errorf("usage: trace rounds [limit]")
			}
			rt, err := c.RoundTrace(ctx, opts)
			if err != nil {
				return err
			}
			return dump(rt)
		default:
			return fmt.Errorf("usage: trace <job-id> | trace rounds [limit]")
		}
	case "spans":
		switch {
		case len(rest) == 1 && rest[0] != "trace":
			js, err := c.JobSpans(ctx, rest[0])
			if err != nil {
				return err
			}
			renderJobSpans(os.Stdout, js)
			return nil
		case len(rest) == 2 && rest[0] == "trace":
			sl, err := c.TraceSpans(ctx, rest[1])
			if err != nil {
				return err
			}
			fmt.Printf("trace %s (%d spans)\n", sl.TraceID, len(sl.Spans))
			renderSpanTree(os.Stdout, sl.Spans)
			return nil
		default:
			return fmt.Errorf("usage: spans <job-id> | spans trace <trace-id>")
		}
	case "health":
		h, err := c.Readyz(ctx)
		if err != nil {
			return err
		}
		return dump(h)
	case "version":
		v, err := c.Version(ctx)
		if err != nil {
			return err
		}
		return dump(v)
	case "sched":
		si, err := c.SchedInfo(ctx)
		if err != nil {
			return err
		}
		return dump(si)
	case "metrics":
		m, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		return dump(m)
	default:
		return fmt.Errorf("unknown admin command %q", cmd)
	}
}

// parseSpec builds an api.JobSpec from "submit <algo> key=value..." args.
func parseSpec(args []string) (api.JobSpec, error) {
	spec := api.JobSpec{Algo: args[0]}
	for _, kv := range args[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("bad argument %q, want key=value", kv)
		}
		if lbl, ok := strings.CutPrefix(key, "label."); ok {
			if spec.Labels == nil {
				spec.Labels = map[string]string{}
			}
			spec.Labels[lbl] = val
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return spec, fmt.Errorf("bad %s %q", key, val)
		}
		switch key {
		case "source":
			spec.Source = uint32(n)
		case "k":
			spec.K = int(n)
		case "priority":
			spec.Priority = int(n)
		case "timeout_ms":
			spec.TimeoutMS = n
		case "at":
			ts := n
			spec.AtTimestamp = &ts
		default:
			return spec, fmt.Errorf("unknown submit option %q", key)
		}
	}
	return spec, nil
}

// parseListOptions builds api.ListOptions from "list [state=S] [label.k=v]
// [limit=N] [offset=N]" args.
func parseListOptions(args []string) (api.ListOptions, error) {
	var opts api.ListOptions
	for _, kv := range args {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return opts, fmt.Errorf("bad argument %q, want key=value", kv)
		}
		if lbl, ok := strings.CutPrefix(key, "label."); ok {
			if prev, dup := opts.Labels[lbl]; dup && prev != val {
				return opts, fmt.Errorf("conflicting label filters for %q (%q vs %q)", lbl, prev, val)
			}
			if opts.Labels == nil {
				opts.Labels = map[string]string{}
			}
			opts.Labels[lbl] = val
			continue
		}
		switch key {
		case "state":
			opts.State = api.JobState(val)
		case "limit", "offset":
			n, err := strconv.Atoi(val)
			if err != nil {
				return opts, fmt.Errorf("bad %s %q", key, val)
			}
			if key == "limit" {
				opts.Limit = n
			} else {
				opts.Offset = n
			}
		default:
			return opts, fmt.Errorf("unknown list option %q", key)
		}
	}
	return opts, nil
}

// parseDelta builds an api.Delta from delta verb args: "<slot>=…" rewrites
// an existing slot, "add=<src>,<dst>[,<w>]" appends an edge,
// "remove=<src>,<dst>" deletes one matching edge, "vertex=<id>" grows the
// vertex space, plus "at=TS" and "flush".
func parseDelta(args []string) (api.Delta, error) {
	var delta api.Delta
	parseEdge := func(val string, withWeight bool) ([3]float64, error) {
		parts := strings.Split(val, ",")
		if len(parts) != 2 && !(withWeight && len(parts) == 3) {
			if withWeight {
				return [3]float64{}, fmt.Errorf("bad edge %q, want <src>,<dst>[,<weight>]", val)
			}
			return [3]float64{}, fmt.Errorf("bad edge %q, want <src>,<dst>", val)
		}
		edge := [3]float64{0, 0, 1}
		for i, p := range parts {
			x, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return [3]float64{}, fmt.Errorf("bad edge component %q in %q", p, val)
			}
			edge[i] = x
		}
		return edge, nil
	}
	for _, arg := range args {
		if arg == "flush" {
			delta.Flush = true
			continue
		}
		key, val, ok := strings.Cut(arg, "=")
		if !ok {
			return delta, fmt.Errorf("bad argument %q, want <slot>=…, add=…, remove=…, vertex=…, at=TS, or flush", arg)
		}
		switch key {
		case "at":
			ts, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return delta, fmt.Errorf("bad at %q", val)
			}
			delta.Timestamp = ts
		case "add":
			edge, err := parseEdge(val, true)
			if err != nil {
				return delta, err
			}
			delta.Mutations = append(delta.Mutations, api.Mutation{Op: api.MutationAdd, Edge: edge})
		case "remove":
			edge, err := parseEdge(val, false)
			if err != nil {
				return delta, err
			}
			delta.Mutations = append(delta.Mutations, api.Mutation{Op: api.MutationRemove, Edge: edge})
		case "vertex":
			v, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return delta, fmt.Errorf("bad vertex %q", val)
			}
			delta.Mutations = append(delta.Mutations, api.Mutation{Op: api.MutationAddVertex, Vertex: uint32(v)})
		default:
			slot, err := strconv.Atoi(key)
			if err != nil {
				return delta, fmt.Errorf("bad slot %q", key)
			}
			edge, err := parseEdge(val, true)
			if err != nil {
				return delta, err
			}
			delta.Mutations = append(delta.Mutations, api.Mutation{Op: api.MutationRewrite, Slot: slot, Edge: edge})
		}
	}
	if len(delta.Mutations) == 0 && !delta.Flush {
		// A bare "delta flush" is the drain verb: it materializes whatever
		// is buffered (including a buffer wedged at the admission cap).
		return delta, fmt.Errorf("delta needs at least one mutation (or flush)")
	}
	return delta, nil
}

// renderJobTrace prints a human-readable wait → admit → round-by-round →
// terminal timeline for one job.
func renderJobTrace(w io.Writer, tr api.JobTrace) {
	fmt.Fprintf(w, "job %s (%s) %s\n", tr.ID, tr.Algo, tr.State)
	fmt.Fprintf(w, "  submitted  %s\n", tr.Submitted.Format(time.RFC3339Nano))
	if tr.Started != nil {
		fmt.Fprintf(w, "  admitted   %s  (queue wait %.3f ms)\n",
			tr.Started.Format(time.RFC3339Nano), tr.QueueWaitMS)
	}
	if tr.Finished != nil {
		fmt.Fprintf(w, "  finished   %s  (exec %.3f ms)\n",
			tr.Finished.Format(time.RFC3339Nano), tr.ExecMS)
	} else if tr.Started != nil {
		fmt.Fprintf(w, "  running    (exec %.3f ms so far)\n", tr.ExecMS)
	}
	if tr.Error != nil {
		fmt.Fprintf(w, "  error      %s: %s\n", tr.Error.Code, tr.Error.Message)
	}
	if tr.Released {
		fmt.Fprintf(w, "  released   (results compacted; rounds from the span store)\n")
	}
	if len(tr.Rounds) == 0 {
		fmt.Fprintf(w, "  no round records (no rounds yet, or their spans were evicted)\n")
		return
	}
	if tr.DroppedRounds > 0 {
		fmt.Fprintf(w, "  %d older round(s) evicted from the span store\n", tr.DroppedRounds)
	}
	fmt.Fprintf(w, "  %8s %12s %6s %7s %12s %12s %14s\n",
		"round", "wall_us", "parts", "pushes", "access_us", "compute_us", "virtual_us")
	for _, r := range tr.Rounds {
		fmt.Fprintf(w, "  %8d %12.1f %6d %7d %12.1f %12.1f %14.1f\n",
			r.Round, r.WallUS, r.Parts, r.Pushes, r.AccessUS, r.ComputeUS, r.VirtualTimeUS)
	}
}

// renderJobSpans prints one job's span tree followed by its resource
// attribution block.
func renderJobSpans(w io.Writer, js api.JobSpans) {
	fmt.Fprintf(w, "job %s  trace %s  (%d spans)\n", js.ID, js.TraceID, len(js.Spans))
	renderSpanTree(w, js.Spans)
	a := js.Attribution
	if a == nil {
		return
	}
	fmt.Fprintf(w, "attribution:\n")
	fmt.Fprintf(w, "  queue wait       %10.3f ms\n", a.QueueWaitMS)
	fmt.Fprintf(w, "  exec             %10.3f ms\n", a.ExecMS)
	fmt.Fprintf(w, "  rounds           %10d\n", a.Rounds)
	fmt.Fprintf(w, "  tasks            %10d  (%d stolen)\n", a.Tasks, a.TasksStolen)
	fmt.Fprintf(w, "  skipped parts    %10d\n", a.SkippedPartitions)
	fmt.Fprintf(w, "  simulated        %10.1f us access, %.1f us compute\n", a.AccessUS, a.ComputeUS)
	fmt.Fprintf(w, "  makespan share   %10.3f\n", a.MakespanShare)
}

// renderSpanTree prints spans as an indented tree: children under their
// parents, roots (and spans whose parents were evicted) at the left edge,
// each line carrying the span's name, duration, and attributes.
func renderSpanTree(w io.Writer, spans []api.Span) {
	byID := make(map[string]api.Span, len(spans))
	children := make(map[string][]api.Span)
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	var roots []api.Span
	for _, s := range spans {
		if s.Parent != "" {
			if _, ok := byID[s.Parent]; ok {
				children[s.Parent] = append(children[s.Parent], s)
				continue
			}
		}
		roots = append(roots, s)
	}
	var render func(s api.Span, depth int)
	render = func(s api.Span, depth int) {
		attrs := ""
		for _, a := range s.Attrs {
			attrs += fmt.Sprintf(" %s=%s", a.Key, a.Value)
		}
		fmt.Fprintf(w, "%s%-18s %10.3f ms%s\n", strings.Repeat("  ", depth+1), s.Name, s.DurationMS, attrs)
		for _, c := range children[s.SpanID] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
}

// dump pretty-prints one wire value.
func dump(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgraph-serve:", err)
	os.Exit(1)
}
