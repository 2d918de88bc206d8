package api

import "time"

// VersionHeader is the HTTP header naming the wire-contract version: the
// client sends it with every request, the server echoes it on every
// response, so version skew is visible on both sides of the wire.
const VersionHeader = "X-CGraph-API-Version"

// TraceIDHeader is the HTTP response header echoing the request's resolved
// trace ID — the caller's own (when a traceparent header arrived) or the
// fresh one the service minted.
const TraceIDHeader = "X-Trace-ID"

// Span is one recorded distributed span on the wire: a named interval of a
// trace, wall-stamped at the edges and carrying the engine's virtual clock
// alongside, with typed attributes flattened to strings.
type Span struct {
	// TraceID / SpanID / Parent are lowercase-hex W3C trace-context IDs
	// (32, 16, and 16 digits); Parent is empty for root spans.
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Parent  string `json:"parent,omitempty"`
	// Name is the span's operation ("http.request", "job.submit",
	// "job.queue_wait", "job.round", "job.retire", "pool.task",
	// "ingest.accept", "ingest.flush", "ingest.materialize").
	Name string `json:"name"`
	// Job is the service job ID the span is attributed to, when any.
	Job string `json:"job,omitempty"`
	// Start / End are the wall-clock edges; DurationMS their difference.
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
	DurationMS float64   `json:"duration_ms"`
	// StartVirtualUS / EndVirtualUS are the engine's virtual clock at the
	// edges (zero when the system has no engine yet).
	StartVirtualUS float64 `json:"start_virtual_us,omitempty"`
	EndVirtualUS   float64 `json:"end_virtual_us,omitempty"`
	// Attrs are the span's attributes, values rendered to strings.
	Attrs []SpanAttr `json:"attrs,omitempty"`
}

// SpanAttr is one span attribute with its value rendered to a string.
type SpanAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// JobAttribution is one job's resource account, computed from its retained
// spans: where the job's wall and virtual time went, and how the executor
// moved its work.
type JobAttribution struct {
	ID      string `json:"id"`
	TraceID string `json:"trace_id,omitempty"`
	// QueueWaitMS is the wall time between admission to the service queue
	// and launch into the engine.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// ExecMS is the wall time between launch and the terminal state.
	ExecMS float64 `json:"exec_ms"`
	// Rounds counts the engine rounds the job participated in (as retained
	// by the span store).
	Rounds int `json:"rounds"`
	// Tasks / TasksStolen count the job's executor tasks and how many of
	// them ran on a worker other than the one they were seeded on.
	Tasks       int64 `json:"tasks"`
	TasksStolen int64 `json:"tasks_stolen"`
	// SkippedPartitions counts the job's converged (frontier-empty)
	// partitions excluded before scheduling, summed over rounds.
	SkippedPartitions int64 `json:"skipped_partitions"`
	// AccessUS / ComputeUS split the job's simulated time over its rounds.
	AccessUS  float64 `json:"access_us"`
	ComputeUS float64 `json:"compute_us"`
	// MakespanShare is the job's simulated time as a fraction of its
	// rounds' makespan, summed per round and clamped to [0, 1]:
	// roughly how much of the shared rounds' span this job accounts for.
	MakespanShare float64 `json:"makespan_share"`
}

// JobSpans is one job's retained span tree plus its resource attribution.
// Only job-attributed spans appear here — the tree is identical through the
// in-process and HTTP clients; transport spans of the same trace are served
// by the trace endpoint.
type JobSpans struct {
	ID          string          `json:"id"`
	TraceID     string          `json:"trace_id,omitempty"`
	Spans       []Span          `json:"spans"`
	Attribution *JobAttribution `json:"attribution,omitempty"`
}

// SpanList is every retained span of one trace, oldest first.
type SpanList struct {
	TraceID string `json:"trace_id"`
	Spans   []Span `json:"spans"`
}

// Health is the body of the liveness and readiness probes.
type Health struct {
	// Status is "ok" when every check passed, "unavailable" otherwise.
	Status string `json:"status"`
	// Checks itemizes the readiness checks (empty for liveness).
	Checks []HealthCheck `json:"checks,omitempty"`
}

// HealthCheck is one readiness check's outcome.
type HealthCheck struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	// Detail explains the check's state (populated for failures, and for
	// passing checks with something quantitative to report).
	Detail string `json:"detail,omitempty"`
}

// VersionInfo identifies the service build and its wire contract.
type VersionInfo struct {
	// API is the wire-contract version (the Version constant).
	API string `json:"api"`
	// Version is the service's build version (module version or VCS
	// revision when built with module/VCS info, else "devel").
	Version string `json:"version"`
	// GoVersion is the toolchain that built the serving binary.
	GoVersion string `json:"go_version"`
}
