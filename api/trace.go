package api

import "time"

// TraceOptions tunes GET /v1/trace/rounds.
//
//cgraph:nowire query-parameter options, never JSON-encoded
type TraceOptions struct {
	// Limit caps the number of round records returned, newest retained
	// first dropped (0 = everything in the ring).
	Limit int
}

// RoundTraceGroup is the plan of a traced round: the jobs it scheduled.
type RoundTraceGroup struct {
	// Jobs are the service job IDs scheduled in the group.
	Jobs []string `json:"jobs"`
	// Units is the number of (snapshot, partition) units the group loaded.
	Units int `json:"units"`
	// MakespanUS is the group's simulated span within the round.
	MakespanUS float64 `json:"makespan_us,omitempty"`
}

// JobRoundTrace is one job's share of one traced round.
type JobRoundTrace struct {
	// Job is the service job ID (set in RoundTrace records; omitted inside
	// a JobTrace, where the whole timeline belongs to one job).
	Job string `json:"job,omitempty"`
	// Round is the 1-based engine round index.
	Round int64 `json:"round"`
	// WallUS is the measured wall-clock duration of the whole round, in
	// microseconds.
	WallUS float64 `json:"wall_us"`
	// Parts is the number of active partitions the job had scheduled.
	Parts int `json:"parts"`
	// Pushes is the number of iterations the job closed this round.
	Pushes int `json:"pushes"`
	// AccessUS / ComputeUS split the job's simulated time charged this
	// round.
	AccessUS  float64 `json:"access_us"`
	ComputeUS float64 `json:"compute_us"`
	// VirtualTimeUS is the engine's simulated clock at round end.
	VirtualTimeUS float64 `json:"virtual_time_us"`
}

// RoundTrace is one engine round's trace record.
type RoundTrace struct {
	// Round is the 1-based engine round index.
	Round int64 `json:"round"`
	// Start is the wall-clock time the round began.
	Start time.Time `json:"start"`
	// WallUS is the measured wall-clock round duration in microseconds.
	WallUS float64 `json:"wall_us"`
	// VirtualTimeUS is the engine's simulated clock at round end.
	VirtualTimeUS float64 `json:"virtual_time_us"`
	// Policy and Theta describe the scheduler that produced the plan.
	Policy string  `json:"policy,omitempty"`
	Theta  float64 `json:"theta,omitempty"`
	// Groups is the round's plan: one group holding every scheduled job.
	Groups []RoundTraceGroup `json:"groups,omitempty"`
	// Jobs is the per-job work split for the round.
	Jobs []JobRoundTrace `json:"jobs,omitempty"`
	// Tasks / Steals are the work-stealing executor's counts for the
	// round; SkippedPartitions is the number of (job, partition) pairs
	// whose frontier was empty at round start (converged regions skipped
	// before scheduling).
	Tasks             int64 `json:"tasks,omitempty"`
	Steals            int64 `json:"steals,omitempty"`
	SkippedPartitions int64 `json:"skipped_partitions,omitempty"`
}

// RoundTraces is the GET /v1/trace/rounds payload.
type RoundTraces struct {
	// TraceDepth is the configured ring depth (0 = tracing disabled).
	TraceDepth int `json:"trace_depth"`
	// Rounds are the retained round records, oldest first.
	Rounds []RoundTrace `json:"rounds"`
}

// JobTrace is the GET /v1/jobs/{id}/trace payload: the job's lifecycle
// timestamps plus its retained round-by-round timeline.
type JobTrace struct {
	ID    string   `json:"id"`
	Algo  string   `json:"algo"`
	State JobState `json:"state"`
	// Submitted/Started/Finished are the service-side lifecycle times;
	// QueueWaitMS and ExecMS are derived from them (wait → admit → exec).
	Submitted   time.Time  `json:"submitted_at"`
	Started     *time.Time `json:"started_at,omitempty"`
	Finished    *time.Time `json:"finished_at,omitempty"`
	QueueWaitMS float64    `json:"queue_wait_ms,omitempty"`
	ExecMS      float64    `json:"exec_ms,omitempty"`
	// Released reports the job's results were compacted; the trace is
	// served from the retained terminal ring.
	Released bool `json:"released,omitempty"`
	// DroppedRounds counts rounds truncated off the front of the bounded
	// timeline.
	DroppedRounds int `json:"dropped_rounds,omitempty"`
	// Rounds is the retained timeline, oldest first. Empty when tracing is
	// disabled (TraceDepth 0) or the job never entered a round.
	Rounds []JobRoundTrace `json:"rounds"`
	// Error carries the terminal error of failed/cancelled jobs.
	Error *Error `json:"error,omitempty"`
}
