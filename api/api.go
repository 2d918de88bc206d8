// Package api is the versioned wire contract of the CGraph job service.
// Every request and response body exchanged over the HTTP control plane —
// and every value passed through a cgraph.Client, in-process or remote —
// is one of these types, so the two transports cannot drift apart.
//
// Versioning policy: the HTTP control plane mounts these shapes under the
// /v1 route prefix. Within v1, changes are strictly additive (new optional
// fields, new error codes); renames or semantic changes require a new
// prefix and a new package revision. Unknown fields in requests are
// rejected, so clients discover their own drift early instead of being
// silently misread.
package api

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Version is the wire-contract version implemented by this package.
const Version = "v1"

// PathPrefix is the HTTP route prefix all v1 endpoints are mounted under.
const PathPrefix = "/" + Version

// JobState is a job's lifecycle state on the wire.
type JobState string

const (
	// JobQueued: accepted, waiting for an in-flight slot.
	JobQueued JobState = "queued"
	// JobRunning: submitted to the engine and being iterated.
	JobRunning JobState = "running"
	// JobDone: converged; results are available.
	JobDone JobState = "done"
	// JobCancelled: retired by an explicit cancel before convergence.
	JobCancelled JobState = "cancelled"
	// JobFailed: retired without converging (deadline expiry, engine
	// failure, or service shutdown).
	JobFailed JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobCancelled || s == JobFailed
}

// JobSpec describes one job submission: the algorithm, its parameters, and
// the scheduling envelope (labels, priority, deadline, snapshot binding).
type JobSpec struct {
	// Algo names the algorithm to run (see the service's registry; the
	// bundled names are pagerank, ppr, sssp, bfs, sswp, wcc, scc, kcore,
	// degree, hits, katz).
	Algo string `json:"algo"`
	// Source is the source vertex for traversal algorithms (sssp, bfs,
	// ppr, sswp).
	Source uint32 `json:"source,omitempty"`
	// K is the k-core threshold.
	K int `json:"k,omitempty"`
	// Labels are free-form key/value annotations echoed back in the job's
	// status; use them for tenant, trace, or experiment tagging.
	Labels map[string]string `json:"labels,omitempty"`
	// Priority orders admission when the service is at its in-flight cap:
	// higher-priority submissions leave the wait queue first, FIFO within
	// a priority. Zero is the default priority.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the job's wall-clock lifetime from submission
	// (queue wait included) in milliseconds; on expiry the job fails. Zero
	// applies the service's default deadline, if any.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// AtTimestamp binds the job to the newest graph snapshot not younger
	// than this; absent means the latest snapshot at launch.
	AtTimestamp *int64 `json:"at_timestamp,omitempty"`
}

// JobStatus is the wire snapshot of one job's lifecycle.
type JobStatus struct {
	ID       string            `json:"id"`
	Algo     string            `json:"algo"`
	State    JobState          `json:"state"`
	Labels   map[string]string `json:"labels,omitempty"`
	Priority int               `json:"priority,omitempty"`
	// Error explains cancelled and failed jobs.
	Error     *Error     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted_at"`
	Started   *time.Time `json:"started_at,omitempty"`
	Finished  *time.Time `json:"finished_at,omitempty"`
	// Released marks a job compacted into the service's history ring:
	// its status remains listable but its results have been dropped.
	Released bool `json:"released,omitempty"`
	// Iterations counts completed iterations; it advances while the job
	// runs and is final once the job is terminal.
	Iterations int `json:"iterations,omitempty"`
	// Engine metrics, populated once the job converges.
	EdgesProcessed     int64   `json:"edges_processed,omitempty"`
	SimulatedAccessUS  float64 `json:"simulated_access_us,omitempty"`
	SimulatedComputeUS float64 `json:"simulated_compute_us,omitempty"`
	// TraceID is the job's distributed-trace ID (32 lowercase hex digits):
	// the trace its submission joined (the request's traceparent) or the
	// one started for it. Feed it to the trace-spans endpoint.
	TraceID string `json:"trace_id,omitempty"`
}

// ListOptions selects a page of the job listing, optionally filtered.
// Filters apply before pagination, so Total counts the matching jobs.
//
//cgraph:nowire query-parameter options, never JSON-encoded
type ListOptions struct {
	// Limit caps the returned jobs; 0 means no cap.
	Limit int
	// Offset skips that many jobs from the start of the listing (oldest
	// first, compacted history included).
	Offset int
	// State, when non-empty, keeps only jobs in that lifecycle state
	// (HTTP: the "state" query parameter).
	State JobState
	// Labels, when non-empty, keeps only jobs carrying every listed
	// key/value pair (HTTP: repeated "label" query parameters, each
	// "key=value").
	Labels map[string]string
}

// JobList is one page of the job listing: compacted history first (oldest
// to newest), then live jobs in submission order.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
	// Total is the full listing size before pagination.
	Total int `json:"total"`
	// Offset echoes the requested page start.
	Offset int `json:"offset,omitempty"`
	// Sched summarizes the scheduler's last plan.
	Sched *SchedInfo `json:"sched,omitempty"`
}

// ResultsOptions selects how much of a job's converged values to return.
//
//cgraph:nowire query-parameter options, never JSON-encoded
type ResultsOptions struct {
	// Top, when positive, returns only the K largest values (with their
	// vertex IDs) instead of the full per-vertex vector.
	Top int
}

// VertexValue is one (vertex, value) pair of a top-K result.
type VertexValue struct {
	Vertex int   `json:"vertex"`
	Value  Float `json:"value"`
}

// Results carries a finished job's converged per-vertex values: either the
// full vector (Values) or the K largest entries (Top).
type Results struct {
	ID          string        `json:"id"`
	Algo        string        `json:"algo"`
	NumVertices int           `json:"num_vertices"`
	Values      []Float       `json:"values,omitempty"`
	Top         []VertexValue `json:"top,omitempty"`
}

// Snapshot is one evolving-graph version: the full rewritten edge list,
// one [src, dst, weight] triple per slot of the base list.
type Snapshot struct {
	Timestamp int64        `json:"timestamp"`
	Edges     [][3]float64 `json:"edges"`
}

// SnapshotAck confirms an ingested snapshot.
type SnapshotAck struct {
	Timestamp int64 `json:"timestamp"`
	Edges     int   `json:"edges"`
}

// MutationOp is the kind of one streamed edge mutation.
type MutationOp string

const (
	// MutationRewrite replaces the edge occupying an existing slot of the
	// current list (slot count and partition chunking stay stable).
	MutationRewrite MutationOp = "rewrite"
	// MutationAdd appends a new edge; the vertex space grows to cover its
	// endpoints and the partition series re-chunks incrementally.
	MutationAdd MutationOp = "add_edge"
	// MutationRemove deletes one edge whose (src, dst) match the
	// mutation's edge (weight ignored); removing an absent edge is a
	// counted no-op. An add followed by a remove of the same edge cancels
	// in the coalescing buffer.
	MutationRemove MutationOp = "remove_edge"
	// MutationAddVertex grows the vertex space to include the mutation's
	// vertex, without edges.
	MutationAddVertex MutationOp = "add_vertex"
)

// Mutation is one streamed edge mutation. Slot addresses "rewrite" ops,
// Edge carries the [src, dst, weight] triple for rewrite/add_edge (and the
// [src, dst] pair to match for remove_edge), Vertex the target of
// "add_vertex".
type Mutation struct {
	// Op defaults to "rewrite" when omitted.
	Op     MutationOp `json:"op,omitempty"`
	Slot   int        `json:"slot"`
	Edge   [3]float64 `json:"edge"`
	Vertex uint32     `json:"vertex,omitempty"`
}

// Delta is one streamed mutation batch: the O(|delta|) ingestion path next
// to the full-list Snapshot. Batches coalesce per slot in the service's
// bounded buffer and flush into overlay snapshots on the count trigger,
// the age (batching-window) trigger, or an explicit Flush.
type Delta struct {
	Mutations []Mutation `json:"mutations"`
	// Timestamp, when positive, is the lowest acceptable timestamp for
	// the snapshot that will include this batch; by default snapshots are
	// stamped latest+1 at flush time.
	Timestamp int64 `json:"timestamp,omitempty"`
	// Flush forces materialization of the buffer (this batch included).
	Flush bool `json:"flush,omitempty"`
}

// DeltaAck confirms an accepted delta batch.
type DeltaAck struct {
	// Accepted mutations from this batch; Pending is the coalescing
	// buffer's size afterwards (0 if the batch flushed).
	Accepted int `json:"accepted"`
	Pending  int `json:"pending"`
	// Flushed reports whether this request materialized a snapshot;
	// Timestamp is its timestamp.
	Flushed   bool  `json:"flushed,omitempty"`
	Timestamp int64 `json:"timestamp,omitempty"`
}

// IngestStats reports the streaming-ingestion pipeline's counters and the
// snapshot store's lifecycle state.
type IngestStats struct {
	// Batches/Mutations count accepted delta batches and their mutation
	// records; Coalesced how many records were superseded in the buffer
	// before a flush.
	Batches   int64 `json:"batches"`
	Mutations int64 `json:"mutations"`
	Coalesced int64 `json:"coalesced"`
	// Flushes by trigger; Failures count flushes whose materialization
	// errored (the buffer is retained and retried).
	Flushes       int64 `json:"flushes"`
	CountFlushes  int64 `json:"count_flushes"`
	AgeFlushes    int64 `json:"age_flushes"`
	ManualFlushes int64 `json:"manual_flushes"`
	Failures      int64 `json:"failures,omitempty"`
	// Accepted mutation records by op.
	Rewrites    int64 `json:"rewrites"`
	EdgeAdds    int64 `json:"edge_adds"`
	EdgeRemoves int64 `json:"edge_removes"`
	VertexAdds  int64 `json:"vertex_adds"`
	// Cancelled counts add/remove pairs of the same edge that annihilated
	// in the buffer; RemoveMisses no-op mutations applied at materialize
	// time (removes of absent edges, and rewrites of slots that vanished
	// under a same-window structural remove); Shed whole batches rejected
	// by the ingest admission cap (HTTP 429 ingest_saturated).
	Cancelled    int64 `json:"cancelled,omitempty"`
	RemoveMisses int64 `json:"remove_misses,omitempty"`
	Shed         int64 `json:"shed,omitempty"`
	// SnapshotsBuilt counts delta-built snapshots; SlotsApplied the edge
	// slots actually changed across them.
	SnapshotsBuilt int64 `json:"snapshots_built"`
	SlotsApplied   int64 `json:"slots_applied"`
	// Compactions counts hole-compaction passes: flushes that squeezed
	// removal tombstones out of the edge list because the free-slot share
	// crossed the configured compaction ratio.
	Compactions int64 `json:"compactions,omitempty"`
	// PartsRebuilt/PartsShared split delta-built snapshots' partitions
	// into rebuilt vs. pointer-shared with their predecessor; SharedRatio
	// is shared/(shared+rebuilt).
	PartsRebuilt int64   `json:"parts_rebuilt"`
	PartsShared  int64   `json:"parts_shared"`
	SharedRatio  float64 `json:"shared_ratio"`
	// Pending is the buffer's current size; LastTimestamp the newest
	// delta-built snapshot's timestamp.
	Pending       int   `json:"pending"`
	LastTimestamp int64 `json:"last_timestamp,omitempty"`
	// Snapshot lifecycle: retained series length, retention evictions so
	// far, and the configured cap (0 = unbounded).
	SnapshotsLive    int `json:"snapshots_live"`
	SnapshotsEvicted int `json:"snapshots_evicted"`
	RetainSnapshots  int `json:"retain_snapshots,omitempty"`
	// Retained-window bounds: the oldest and newest retained snapshots'
	// series indices and timestamps. A job binding with a timestamp
	// before OldestTimestamp is served by the oldest retained version.
	OldestSeq       int   `json:"oldest_seq"`
	OldestTimestamp int64 `json:"oldest_timestamp"`
	NewestSeq       int   `json:"newest_seq"`
	NewestTimestamp int64 `json:"newest_timestamp"`
	// NumVertices is the newest snapshot's vertex-space size; structural
	// deltas grow it.
	NumVertices int `json:"num_vertices"`
}

// SchedInfo is the wire view of the engine's latest scheduling decision:
// policy and the plan of the last round — every job it scheduled, the units
// it loaded in Eq. 1 order, and its makespan.
type SchedInfo struct {
	Policy string `json:"policy"`
	Round  int64  `json:"round"`
	// Jobs are the service job IDs the round scheduled.
	Jobs []string `json:"jobs"`
	// Parts is the unit load order (partition index within its snapshot),
	// parallel to PartUIDs, which names the exact version loaded.
	Parts    []int   `json:"parts"`
	PartUIDs []int64 `json:"part_uids"`
	// MakespanUS is how much the round advanced the engine clock: its
	// structure loads, triggers and pushes.
	MakespanUS float64 `json:"makespan_us,omitempty"`
}

// ExecInfo reports the work-stealing executor: its effective
// configuration and cumulative task/steal counters. It is the wire form of
// the engine's ExecStats — same fields in the same order, so the service
// converts one to the other with a plain type conversion and the two
// cannot drift apart unnoticed.
type ExecInfo struct {
	// Workers and Balance are the effective executor configuration
	// (worker count, and the granularity at which the virtual clock prices
	// the straggler split).
	Workers int     `json:"workers"`
	Balance float64 `json:"balance"`
	// Tasks / Steals / Stolen are cumulative across rounds: tasks
	// executed, successful steal operations, and tasks moved by them.
	Tasks  int64 `json:"tasks"`
	Steals int64 `json:"steals"`
	Stolen int64 `json:"stolen"`
	// SkippedPartitions counts (job, partition) pairs excluded before
	// scheduling because their frontier was empty (converged regions).
	SkippedPartitions int64 `json:"skipped_partitions"`
	// LastImbalance is the work-weighted imbalance of the last round's pool
	// runs that were dispatched to more than one worker: the heaviest
	// worker's share of their weight, ×Workers (1.0 = perfectly even, and
	// 1.0 when no run was dispatched).
	LastImbalance float64 `json:"imbalance"`
}

// Metrics is the structured (JSON) counterpart of the Prometheus text
// exposition: job-state counts, round-loop progress, and scheduler state.
type Metrics struct {
	// Jobs counts jobs by lifecycle state, compacted history included.
	Jobs map[JobState]int `json:"jobs"`
	// Rounds is the number of LTP rounds processed so far.
	Rounds int64 `json:"rounds"`
	// VirtualTimeUS is the engine's virtual clock in simulated microseconds.
	VirtualTimeUS float64   `json:"virtual_time_us"`
	Sched         SchedInfo `json:"sched"`
	// Exec reports the work-stealing execution pool.
	Exec ExecInfo `json:"exec"`
	// Ingest reports the streaming delta pipeline and snapshot lifecycle.
	Ingest IngestStats `json:"ingest"`
	// Attribution lists the per-job resource accounts computed from the
	// span store, newest job first.
	Attribution []JobAttribution `json:"attribution,omitempty"`
}

// Float is a float64 that survives JSON round-trips of non-finite values
// (e.g. +Inf for unreachable vertices in SSSP), which encoding/json
// otherwise rejects: they are encoded as the strings "+Inf", "-Inf", "NaN".
type Float float64

// MarshalJSON renders non-finite values as strings.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON accepts numbers and the non-finite string spellings.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		case "NaN":
			*f = Float(math.NaN())
		default:
			return fmt.Errorf("api: bad float %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}
