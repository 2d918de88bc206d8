package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricSpec names one metric, as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with the
// benchmark's recorder off. Every workload reports every one of them (the
// README says how each is defined on each workload). Bound is the share of
// the parent's median by which the metric may get worse.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"batch_wall_ms", "ms", "lower", 0.25},
	{"job_latency_p50_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"delta_visible_p50_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
}

// perLayer are the metrics of single layers, measured by the traced run.
// They carry no bound. error_rate sits here because the contract wants
// end-to-end metrics that are never 0; the failed/attempted counts of the
// result line gate it.
var perLayer = []metricSpec{
	{"error_rate", "ratio", "lower", 0},

	{"graph.build_ms", "ms", "lower", 0},
	{"graph.cut_ms", "ms", "lower", 0},
	{"graph.overlay_ms", "ms", "lower", 0},
	{"graph.restructure_ms", "ms", "lower", 0},

	{"storage.private_table_ms", "ms", "lower", 0},
	{"storage.snapshots_live", "count", "lower", 0},
	{"storage.snapshots_evicted", "count", "higher", 0},

	{"exec.slice_ns_per_vertex", "ns", "lower", 0},
	{"exec.apply_ns_per_edge", "ns", "lower", 0},
	{"exec.apply_b_per_edge", "B", "lower", 0},
	{"exec.merge_ns_per_edge", "ns", "lower", 0},
	{"exec.push_ns_per_entry", "ns", "lower", 0},
	{"exec.push_ms_per_iter", "ms", "lower", 0},
	{"exec.push_kb_per_iter", "kB", "lower", 0},
	{"exec.serial_ms", "ms", "lower", 0},
	{"exec.push_share", "ratio", "lower", 0},
	{"exec.iterations", "count", "lower", 0},
	{"exec.edges_processed", "count", "lower", 0},
	{"exec.sync_entries", "count", "lower", 0},

	{"pool.run_us", "us", "lower", 0},
	{"pool.dispatch_ns_per_task", "ns", "lower", 0},
	{"pool.tasks", "count", "lower", 0},
	{"pool.steals", "count", "lower", 0},
	{"pool.stolen", "count", "lower", 0},
	{"pool.imbalance", "ratio", "lower", 0},
	{"pool.speedup", "ratio", "higher", 0},

	{"sched.plan_us", "us", "lower", 0},
	{"sched.plan_allocs", "count", "lower", 0},
	{"sched.groups", "count", "lower", 0},

	{"memsim.load_ns", "ns", "lower", 0},
	{"memsim.miss_rate", "%", "lower", 0},
	{"memsim.bytes_into_cache_mb", "MB", "lower", 0},
	{"memsim.virtual_ms", "ms", "lower", 0},

	{"core.wall_1w_ms", "ms", "lower", 0},
	{"core.wall_2w_ms", "ms", "lower", 0},
	{"core.self_ms", "ms", "lower", 0},
	{"core.self_share", "ratio", "lower", 0},
	{"core.rounds", "count", "lower", 0},
	{"core.round_p50_ms", "ms", "lower", 0},
	{"core.round_p95_ms", "ms", "lower", 0},
	{"core.skipped_partitions", "count", "higher", 0},
	{"core.virtual_over_wall", "ratio", "higher", 0},

	{"cgraph.load_edges_ms", "ms", "lower", 0},
	{"cgraph.submit_us", "us", "lower", 0},
	{"cgraph.results_us", "us", "lower", 0},
	{"cgraph.materialize_ms", "ms", "lower", 0},
	{"cgraph.allocs_per_op", "count", "lower", 0},

	{"ingest.apply_us", "us", "lower", 0},
	{"ingest.flush_us", "us", "lower", 0},
	{"ingest.mutations", "count", "higher", 0},
	{"ingest.coalesced", "count", "lower", 0},
	{"ingest.shed", "count", "lower", 0},
	{"ingest.remove_misses", "count", "lower", 0},
	{"ingest.shared_ratio", "ratio", "higher", 0},

	{"api.delta_decode_us", "us", "lower", 0},
	{"api.results_encode_us", "us", "lower", 0},

	{"server.healthz_us_p50", "us", "lower", 0},
	{"server.submit_ms_p50", "ms", "lower", 0},
	{"server.first_event_ms_p50", "ms", "lower", 0},
	{"server.queue_wait_ms_p50", "ms", "lower", 0},
	{"server.results_ms_p50", "ms", "lower", 0},
	{"server.metrics_scrape_ms", "ms", "lower", 0},
	{"server.job_latency_p95_ms", "ms", "lower", 0},
	{"server.job_latency_samples", "count", "higher", 0},
	{"server.delta_visible_p95_ms", "ms", "lower", 0},
	{"server.delta_visible_samples", "count", "higher", 0},
	{"server.pagerank_p50_ms", "ms", "lower", 0},
	{"server.sssp_p50_ms", "ms", "lower", 0},
	{"server.scc_p50_ms", "ms", "lower", 0},
	{"server.bfs_p50_ms", "ms", "lower", 0},

	{"client.retries", "count", "lower", 0},
	{"client.throttled", "count", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"span.started", "count", "lower", 0},
	{"span.evicted", "count", "lower", 0},

	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.gen_late_p95_ms", "ms", "lower", 0},
}

// exactCounts are the per-layer counts that must repeat exactly between two
// runs of one commit with one seed; -compare fails when one differs.
var exactCounts = []string{"exec.iterations", "exec.edges_processed", "exec.sync_entries"}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult tags vals with the units of specs. A metric that was not
// measured, or came out NaN or infinite, is an error: the contract wants
// every listed metric on every run.
func newResult(specs []metricSpec, vals map[string]float64, attempted, failed int) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		res.Metrics[s.Name] = value{Value: v, Unit: s.Unit}
	}
	return res, nil
}

// print writes every metric by name with its unit, in spec order, then the
// one-line JSON object the contract asks for as the last line.
func (r result) print(w io.Writer, specs []metricSpec) error {
	for _, s := range specs {
		m := r.Metrics[s.Name]
		fmt.Fprintf(w, "%-32s %16.6f %s\n", s.Name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// meanOfMedians is the mean, over the classes that have samples, of each
// class's median. It is how a typical latency over a mix of job kinds is
// reported: each kind's latencies have one mode, so its median is steady,
// whereas the median of the pooled mix sits between two modes and jumps from
// one to the other with the count of a single kind.
func meanOfMedians(classes [][]float64) float64 {
	sum, n := 0.0, 0
	for _, xs := range classes {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	return ratio(sum, float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work of that kind).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
