// Package cgraph is a concurrent iterative graph-processing library
// reproducing "CGraph: A Correlations-aware Approach for Efficient
// Concurrent Iterative Graph Processing" (Zhang et al., USENIX ATC 2018).
//
// Many iterative analytics jobs (PageRank, SSSP, SCC, BFS, ...) often run
// simultaneously over one shared graph. CGraph executes them with the
// paper's data-centric Load-Trigger-Pushing model: the shared graph
// structure is vertex-cut into partitions, streamed in a single common
// order chosen by a correlations-aware scheduler, and every loaded
// partition triggers all jobs that need it concurrently — so the dominant
// data-access cost is paid once and amortized across jobs.
//
// Quick start (batch mode):
//
//	sys := cgraph.NewSystem(cgraph.WithWorkers(8))
//	sys.LoadEdges(0, edges)
//	pr, _ := sys.Submit(algo.NewPageRank())
//	ss, _ := sys.Submit(algo.NewSSSP(0))
//	report, _ := sys.Run()
//	ranks, _ := pr.Results()
//
// Quick start (as a platform client): the Client interface is the unified
// job-service surface over the versioned wire types of package api. The
// server package implements it in-process (server.NewLocalClient) and the
// client package speaks the same contract to a remote cgraph-serve
// instance over HTTP — the two are interchangeable:
//
//	var c cgraph.Client = client.New("http://localhost:8040")
//	st, _ := c.Submit(ctx, api.JobSpec{Algo: "pagerank"})
//	events, _ := c.Watch(ctx, st.ID)
//	for ev := range events { // replay + live: queued, running, progress…
//	}
//	res, _ := c.Results(ctx, st.ID, api.ResultsOptions{Top: 10})
//
// Custom algorithms implement model.Program (the paper's IsNotConvergent /
// Compute / Acc triple); the bundled ones live in package algo.
package cgraph

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"cgraph/api"
	"cgraph/internal/core"
	"cgraph/internal/evolve"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/ingest"
	"cgraph/internal/memsim"
	"cgraph/internal/metrics"
	"cgraph/internal/sched"
	"cgraph/internal/span"
	"cgraph/internal/storage"
	"cgraph/internal/trace"
	"cgraph/model"
)

// ErrCancelled is returned by Job.Err for jobs retired via Job.Cancel.
var ErrCancelled = errors.New("cgraph: job cancelled")

// ErrIngestSaturated is returned (wrapped) by ApplyDelta when the system
// was built with WithIngestCap and the coalescing buffer is full: the batch
// was shed, nothing was buffered, and the caller should retry after a flush
// drains the buffer. Services map it to a machine-readable 429.
var ErrIngestSaturated = errors.New("cgraph: ingest saturated")

// Client is the unified job-service surface: submit, observe, and control
// concurrent iterative jobs against one resident graph, speaking the
// versioned wire types of package api. Two implementations exist with
// identical observable behaviour — server.NewLocalClient adapts an
// in-process server.Service, and package client speaks HTTP to a
// serve-mode instance — so code written against Client runs unchanged
// embedded or remote. Service-side failures are returned as *api.Error
// with machine-readable codes on both transports.
type Client interface {
	// Submit registers a job and returns its initial status (queued or
	// running). The spec's Algo must name an algorithm in the service's
	// registry.
	Submit(ctx context.Context, spec api.JobSpec) (api.JobStatus, error)
	// Get returns one job's current status.
	Get(ctx context.Context, id string) (api.JobStatus, error)
	// List returns a page of the job listing: compacted history first,
	// then live jobs in submission order, with the scheduler summary.
	// Options filter by lifecycle state and by labels before paginating.
	List(ctx context.Context, opts api.ListOptions) (api.JobList, error)
	// Watch streams the job's events: a replay of its state transitions
	// so far (plus latest progress), then live progress and state events.
	// The channel closes after a terminal state event, or when ctx ends.
	Watch(ctx context.Context, id string) (<-chan api.Event, error)
	// Results returns a finished job's converged values (api.CodeNotReady
	// before convergence, api.CodeReleased after history compaction).
	Results(ctx context.Context, id string, opts api.ResultsOptions) (api.Results, error)
	// Cancel retires the job and returns its status; cancelling a
	// terminal job fails with api.CodeConflict.
	Cancel(ctx context.Context, id string) (api.JobStatus, error)
	// AddSnapshot ingests a new graph version (a slot rewrite of the base
	// edge list) at the given timestamp.
	AddSnapshot(ctx context.Context, snap api.Snapshot) (api.SnapshotAck, error)
	// ApplyDelta streams one edge-mutation batch into the service's
	// ingestion pipeline; mutations coalesce in a bounded buffer and
	// flush into overlay snapshots per the service's batching window.
	ApplyDelta(ctx context.Context, delta api.Delta) (api.DeltaAck, error)
	// SchedInfo reports the scheduler's last plan.
	SchedInfo(ctx context.Context) (api.SchedInfo, error)
	// Metrics reports job-state counts, round-loop progress, and
	// scheduler state.
	Metrics(ctx context.Context) (api.Metrics, error)
	// JobTrace returns a job's round-by-round timeline (queue wait, admit,
	// per-round durations and work split, terminal state), retrievable
	// while the job runs and after it compacts. The rounds are the job's
	// "job.round" spans, retained as long as the span store keeps them, at
	// any trace depth; the lifecycle envelope is always populated.
	JobTrace(ctx context.Context, id string) (api.JobTrace, error)
	// RoundTrace returns the service's retained per-round trace records,
	// oldest first.
	RoundTrace(ctx context.Context, opts api.TraceOptions) (api.RoundTraces, error)
	// JobSpans returns one job's distributed-span tree (submit → queue
	// wait → rounds → retire, plus sampled executor tasks) and the
	// resource attribution computed from it. Only job-attributed spans are
	// returned, so local and HTTP clients yield identical trees; transport
	// spans (http.request, ingest.*) are reachable via TraceSpans.
	JobSpans(ctx context.Context, id string) (api.JobSpans, error)
	// TraceSpans returns every retained span of one trace, oldest first —
	// including transport and ingest spans sharing the trace ID.
	TraceSpans(ctx context.Context, traceID string) (api.SpanList, error)
}

// Convenient aliases so simple uses need only this package and algo.
type (
	// Edge is a directed weighted edge (alias of model.Edge).
	Edge = model.Edge
	// VertexID identifies a vertex (alias of model.VertexID).
	VertexID = model.VertexID
	// Program is a vertex program (alias of model.Program).
	Program = model.Program
)

// Scheduler names the partition-load ordering policy. There is one: the
// paper's Eq. 1 order over every job's footprint.
//
// Deprecated: the type and its one value remain for WithScheduler's
// callers; the policy is not selectable.
type Scheduler int

// TwoLevelScheduler is the only Scheduler value.
//
// Deprecated: it selects nothing; the policy is always Eq. 1.
const TwoLevelScheduler Scheduler = 0

type config struct {
	workers         int
	coreSubgraph    bool
	numPartitions   int
	cacheBytes      int64
	memoryBytes     int64
	ingestWindow    time.Duration
	ingestBatch     int
	ingestCap       int
	retainSnapshots int
	traceDepth      int
}

// Option configures a System.
type Option func(*config)

// WithWorkers sets the worker (core) count; default runtime.GOMAXPROCS.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithScheduler does nothing: the load order is always the Eq. 1 policy.
//
// Deprecated: drop the option.
func WithScheduler(Scheduler) Option { return func(*config) {} }

// WithCoreSubgraph toggles §3.3 core-subgraph partitioning (default on for
// static graphs; forced off when snapshots are used, which require
// slot-stable plain partitioning).
func WithCoreSubgraph(on bool) Option { return func(c *config) { c.coreSubgraph = on } }

// WithPartitions overrides the partition count; by default it is derived
// from the simulated cache capacity via the §3.2.1 Pg formula (or a
// worker-based heuristic without cache simulation).
func WithPartitions(n int) Option { return func(c *config) { c.numPartitions = n } }

// WithCacheSimulation enables the simulated memory hierarchy with the given
// capacities, which populates the data-movement metrics in Report. Without
// it the library runs at full speed over an unlimited hierarchy.
func WithCacheSimulation(cacheBytes, memoryBytes int64) Option {
	return func(c *config) {
		c.cacheBytes = cacheBytes
		c.memoryBytes = memoryBytes
	}
}

// WithIngestWindow sets the delta pipeline's batching window: buffered
// mutations older than d flush into a snapshot even if the count trigger
// has not fired. Zero (the default) disables the age trigger.
func WithIngestWindow(d time.Duration) Option { return func(c *config) { c.ingestWindow = d } }

// WithIngestBatch sets the delta pipeline's count trigger: the buffer
// flushes into a snapshot once it holds n distinct mutated slots (default
// 256).
func WithIngestBatch(n int) Option { return func(c *config) { c.ingestBatch = n } }

// WithIngestCap bounds the delta pipeline's coalescing buffer at n pending
// mutations: a delta batch that would grow the buffer beyond the cap —
// including a single oversized batch — is shed with ErrIngestSaturated
// instead of buffering unboundedly, so a slow materializer surfaces as
// backpressure. Zero (the default) disables admission control.
func WithIngestCap(n int) Option { return func(c *config) { c.ingestCap = n } }

// WithRetainSnapshots caps the retained snapshot series at n versions:
// beyond it the oldest snapshots not referenced by any bound job are
// evicted, so a resident service ingesting deltas forever stays bounded.
// The latest snapshot and any snapshot a live job is bound to are never
// evicted. Zero (the default) keeps every snapshot.
func WithRetainSnapshots(n int) Option { return func(c *config) { c.retainSnapshots = n } }

// WithTraceDepth enables the round trace: a ring of the last n round
// records, each with every active job's share of the round. Zero (the
// default) disables it, and the round loop then builds no round record.
// The depth bounds only this ring: a job's own round history is its
// "job.round" spans, which the span store keeps at any depth.
func WithTraceDepth(n int) Option { return func(c *config) { c.traceDepth = n } }

// System is a CGraph instance: one shared (possibly evolving) graph plus
// the concurrent jobs analysing it. It operates in two modes: the batch
// Submit…Submit→Run API that drains every job and returns, and the resident
// Serve mode where a long-running round loop accepts submissions,
// cancellations, and snapshots continuously until Shutdown.
type System struct {
	cfg config
	// tracer records the system's distributed spans (job lifecycle, rounds,
	// sampled executor tasks, ingest flushes) in a bounded in-memory store
	// (span.Config's default capacity, oldest evicted first). Always non-nil
	// after NewSystem; internally locked.
	tracer *span.Tracer

	mu    sync.Mutex
	store *storage.SnapshotStore
	// series holds the authoritative edge list and vertex space behind the
	// snapshot series; every snapshot after the base is one of its steps.
	series   *evolve.Series
	engine   *core.Engine
	pipeline *ingest.Pipeline

	// byID maps engine job IDs to the handles of the jobs not yet retired.
	// Its own lock orders a submission's registration before the round
	// loop's first event for the job, without making the loop wait on mu.
	jobsMu sync.Mutex
	byID   map[int]*Job

	serveCancel context.CancelFunc
	serveDone   chan struct{}

	// progress observes every job's admission, completed iterations and
	// retirement; ingestObs the ingestion path. Each registry has its own
	// lock: ingest events fire from under s.mu, the pipeline lock, and the
	// snapshot store lock, so neither registry may need s.mu.
	progress  observers[JobUpdate]
	ingestObs observers[IngestEvent]
}

// IngestEventKind tags an IngestEvent.
type IngestEventKind int

const (
	// IngestFlush reports one delta-pipeline flush attempt: Trigger,
	// Duration (materialize latency), Mutations (coalesced batch size),
	// Built, and Timestamp are set.
	IngestFlush IngestEventKind = iota
	// IngestMaterialize reports one snapshot materialization: Path
	// ("overlay" or "restructure"), Duration, Mutations (slots applied),
	// and Timestamp are set.
	IngestMaterialize
	// IngestEvict reports one snapshot evicted by retention GC: Seq and
	// Timestamp are set.
	IngestEvict
)

// IngestEvent is one observability event from the ingestion/retention path.
type IngestEvent struct {
	Kind IngestEventKind
	// Trigger is the flush trigger ("manual", "count", "age").
	Trigger string
	// Path names the materialized snapshot's shape: "overlay" when its slot
	// count and vertex space are the previous snapshot's, "restructure"
	// when either moved.
	Path string
	// Duration is the wall-clock latency of the flush/materialization.
	Duration time.Duration
	// Mutations is the flush batch size (IngestFlush) or the slots applied
	// (IngestMaterialize).
	Mutations int
	// Built reports whether the flush produced a snapshot.
	Built bool
	// Seq is the evicted snapshot's series index (IngestEvict).
	Seq int
	// Timestamp is the snapshot timestamp the event concerns.
	Timestamp int64
	// TraceID and RequestID identify the delta batch that opened the
	// flushed window (IngestFlush), when its submitter carried them — they
	// join flush log lines and spans back to the originating request.
	TraceID   string
	RequestID string
}

// OnIngestEvent registers fn to observe ingestion-path events: flushes,
// materializations, and retention evictions. Observers accumulate like
// OnJobProgress; the returned func unregisters. fn may be called with
// System, pipeline, or store locks held — it must be fast and must not
// call back into the System (record, log, or observe a histogram and
// return). A nil fn is ignored.
func (s *System) OnIngestEvent(fn func(IngestEvent)) (unregister func()) {
	return s.ingestObs.add(fn)
}

// JobUpdate reports one step of a submitted job: its admission into the
// round loop (State JobRunning, Iteration 0), a completed iteration (State
// JobRunning, the engine's core.JobProgress totals), or its retirement (a
// terminal State; Err as Job.Err will report it).
type JobUpdate struct {
	core.JobProgress
	State JobState
	Err   error
}

// OnJobProgress registers fn to observe every job's admission, completed
// iterations and retirement (serve mode and batch runs alike). Observers
// accumulate: each registered fn receives every update, so a
// server.Service and user code can observe the same System without
// displacing one another. The returned func unregisters fn — call it when
// the observer's lifetime ends (a stopped service, say) so the System does
// not keep it alive. fn runs on the engine's round-loop goroutine (or, for
// a job cancelled while queued, in Job.Cancel) and must not block for long.
// Every observer sees a transition before the job's handle does: until the
// observers return, State, Err and Metrics of that job wait for them, so fn
// must not call them, and Done closes only afterwards. Resident services use this
// to apply their own bookkeeping first and to feed job-event streams
// without polling. A nil fn is ignored.
func (s *System) OnJobProgress(fn func(JobUpdate)) (unregister func()) {
	return s.progress.add(fn)
}

// NewSystem builds an empty system; load a graph before submitting jobs.
func NewSystem(opts ...Option) *System {
	cfg := config{coreSubgraph: true}
	for _, o := range opts {
		o(&cfg)
	}
	return &System{cfg: cfg, tracer: span.New(span.Config{}), byID: make(map[int]*Job)}
}

// SpanTracer exposes the system's span tracer: services start transport and
// lifecycle spans on it and read the store for the span endpoints. Always
// non-nil.
func (s *System) SpanTracer() *span.Tracer { return s.tracer }

// LoadEdges ingests the base graph. numVertices of 0 infers the count from
// the largest endpoint.
func (s *System) LoadEdges(numVertices int, edges []Edge) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		return fmt.Errorf("cgraph: graph already loaded")
	}
	if len(edges) == 0 {
		return fmt.Errorf("cgraph: empty edge list")
	}
	g := graph.Build(numVertices, edges)
	parts := s.cfg.numPartitions
	if parts <= 0 {
		if s.cfg.cacheBytes > 0 {
			total := int64(len(edges))*16 + int64(g.N)*9
			w := s.cfg.workers
			if w <= 0 {
				w = 8
			}
			parts = graph.SuggestNumPartitions(total, s.cfg.cacheBytes, w, 16, 16, s.cfg.cacheBytes/8)
		} else {
			parts = 4 * max(1, s.cfg.workers)
		}
		if parts < 4 {
			parts = 4
		}
	}
	pg, err := graph.Cut(g, edges, graph.Options{
		NumPartitions: parts,
		CoreSubgraph:  s.cfg.coreSubgraph,
	})
	if err != nil {
		return err
	}
	s.series = evolve.New(edges, g.N)
	s.store = storage.NewSnapshotStore(pg, 0)
	s.store.SetRetention(s.cfg.retainSnapshots)
	// Forward retention evictions to the ingest-event observers. The
	// registry takes only its own lock, so firing from under the store lock
	// (and whatever locks the Add that triggered GC holds) is safe.
	s.store.SetEvictObserver(func(seq int, ts int64) {
		s.ingestObs.fire(IngestEvent{Kind: IngestEvict, Seq: seq, Timestamp: ts})
	})
	return nil
}

// LoadEdgeFile ingests a TSV/whitespace edge list ("src dst [weight]").
func (s *System) LoadEdgeFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	edges, err := gen.ReadEdges(f)
	if err != nil {
		return err
	}
	return s.LoadEdges(0, edges)
}

// AddSnapshot registers a new graph version at the given timestamp
// (§3.2.1): the edge list must have the current slot count (slot rewrites,
// see gen.Mutate), unchanged partitions are shared with the previous
// snapshot, and jobs submitted with AtTimestamp ≥ timestamp see the new
// version. A slot rewritten to model.HoleEdge frees it for later adds.
// Requires the system to have been built with WithCoreSubgraph(false).
func (s *System) AddSnapshot(edges []Edge, timestamp int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return fmt.Errorf("cgraph: load a base graph first")
	}
	prev := s.store.Latest().PG
	if prev.NumCore != 0 {
		return fmt.Errorf("cgraph: snapshots require WithCoreSubgraph(false)")
	}
	_, err := s.series.Replace(prev, edges, func(pg *graph.PGraph) error {
		return s.addSnapshotLocked(pg, timestamp)
	})
	return err
}

// addSnapshotLocked appends pg to the snapshot store at ts, through the engine once
// it exists: its lock serializes the write against snapshot resolution in
// concurrent submissions while the system serves. Caller holds s.mu.
func (s *System) addSnapshotLocked(pg *graph.PGraph, ts int64) error {
	if s.engine != nil {
		return s.engine.AddSnapshot(pg, ts)
	}
	return s.store.Add(pg, ts)
}

// Mutation is one streamed edge mutation and MutationOp its kind (aliases of
// the delta pipeline's ingest.Mutation and ingest.Op).
type (
	Mutation   = ingest.Mutation
	MutationOp = ingest.Op
)

// The mutation kinds, re-exported from the delta pipeline.
const (
	MutationRewrite   = ingest.Rewrite
	MutationAdd       = ingest.AddEdge
	MutationRemove    = ingest.RemoveEdge
	MutationAddVertex = ingest.AddVertex
)

// Delta is one streamed mutation batch for ApplyDelta.
type Delta struct {
	Mutations []Mutation
	// Timestamp, when positive, is the lowest acceptable timestamp for the
	// snapshot that will include this batch; by default snapshots are
	// stamped latest+1 at flush time.
	Timestamp int64
	// Flush forces materialization of the buffer (this batch included)
	// instead of waiting for the count or age trigger.
	Flush bool
	// Span, when valid, parents the flush/materialize spans of the batching
	// window this delta opens; RequestID tags the window's flush event for
	// log joinability. Both are optional.
	Span      span.Context
	RequestID string
}

// DeltaAck confirms one accepted delta batch (alias of ingest.Ack).
type DeltaAck = ingest.Ack

// IngestStats reports the delta pipeline's counters plus the snapshot
// store's lifecycle state (alias of the wire type api.IngestStats).
type IngestStats = api.IngestStats

// ensureIngestLocked lazily builds the delta pipeline over the loaded
// graph. Caller holds s.mu.
func (s *System) ensureIngestLocked() (*ingest.Pipeline, error) {
	if s.pipeline != nil {
		return s.pipeline, nil
	}
	if s.store == nil {
		return nil, fmt.Errorf("cgraph: load a base graph before applying deltas")
	}
	if s.store.Latest().PG.NumCore != 0 {
		return nil, fmt.Errorf("cgraph: delta ingestion requires WithCoreSubgraph(false)")
	}
	p, err := ingest.New(ingest.Config{
		// The slot space moves under structural deltas; the pipeline asks
		// for the current count at validation time (without holding its
		// own lock, so taking s.mu here cannot deadlock with a flush).
		Slots: func() int {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.series.Slots()
		},
		MaxBatch:    s.cfg.ingestBatch,
		MaxPending:  s.cfg.ingestCap,
		Window:      s.cfg.ingestWindow,
		Tracer:      s.tracer,
		Materialize: s.materializeDelta,
		Observe: func(trigger string, d time.Duration, batch int, res ingest.Result, o ingest.Origin) {
			ev := IngestEvent{
				Kind:      IngestFlush,
				Trigger:   trigger,
				Duration:  d,
				Mutations: batch,
				Built:     res.Built,
				Timestamp: res.Timestamp,
				RequestID: o.RequestID,
			}
			if o.Span.Valid() {
				ev.TraceID = o.Span.Trace.String()
			}
			s.ingestObs.fire(ev)
		},
	})
	if err != nil {
		return nil, err
	}
	s.pipeline = p
	return p, nil
}

// ApplyDelta streams one edge-mutation batch into the ingestion pipeline
// (§3.2.1 run continuously): mutations coalesce per key in a bounded
// buffer, and a flush — count-triggered, age-triggered, or requested via
// Delta.Flush — materializes one snapshot in which only the touched
// partitions are rebuilt, every other partition staying pointer-shared with
// the previous version. Slot rewrites keep the topology fixed; the
// structural ops (MutationAdd, MutationRemove, MutationAddVertex) grow or
// shrink the edge-slot space and grow the vertex space, re-chunking the
// partition series incrementally, so snapshots along the series may differ
// in vertex and edge count while jobs bound to older versions run
// untouched. This is the incremental counterpart of the full-list
// AddSnapshot path: a job bound to a delta-built snapshot computes what it
// would against the same mutated graph ingested as a full list. Batches are
// validated atomically; a bad slot or op rejects the whole batch, and with
// WithIngestCap a full buffer sheds the batch with ErrIngestSaturated.
func (s *System) ApplyDelta(d Delta) (DeltaAck, error) {
	s.mu.Lock()
	p, err := s.ensureIngestLocked()
	if err == nil {
		// Reject a batch reaching absurdly far past the vertex space
		// atomically, before any of it is buffered.
		err = evolve.CheckGrowth(s.series.NumVertices(), d.Mutations)
	}
	s.mu.Unlock()
	if err != nil {
		return DeltaAck{}, err
	}
	// The pipeline copies each mutation into its coalescing buffer, so the
	// caller's slice is passed through, not retained.
	ack, err := p.ApplyFrom(ingest.Origin{Span: d.Span, RequestID: d.RequestID}, d.Mutations, d.Timestamp, d.Flush)
	if err != nil {
		if errors.Is(err, ingest.ErrSaturated) {
			return DeltaAck{}, fmt.Errorf("%w: %v", ErrIngestSaturated, err)
		}
		return DeltaAck{}, err
	}
	return ack, nil
}

// FlushDeltas materializes any buffered mutations immediately. With an
// empty buffer it is a no-op (Flushed false).
func (s *System) FlushDeltas() (DeltaAck, error) {
	s.mu.Lock()
	p := s.pipeline
	s.mu.Unlock()
	if p == nil {
		return DeltaAck{}, nil
	}
	res, err := p.Flush()
	if err != nil {
		return DeltaAck{}, err
	}
	return DeltaAck{Flushed: res.Built, Timestamp: res.Timestamp}, nil
}

// CloseIngest drains the delta pipeline: buffered mutations are flushed
// into a final snapshot and the age timer stops, so no flush can fire
// after the caller has quiesced the system (Shutdown does not do this —
// a stopped system still accepts deltas and can serve again). A later
// ApplyDelta starts a fresh pipeline. No-op when no deltas were ever
// applied.
func (s *System) CloseIngest() error {
	s.mu.Lock()
	p := s.pipeline
	s.pipeline = nil
	s.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.Close()
}

// IngestCap reports the WithIngestCap admission bound (0 = uncapped), so
// readiness probes can compare it against IngestStats().Pending.
func (s *System) IngestCap() int { return s.cfg.ingestCap }

// IngestStats reports the delta pipeline's counters and the snapshot
// store's lifecycle state; zeros before any graph or delta activity.
func (s *System) IngestStats() IngestStats {
	s.mu.Lock()
	p, store := s.pipeline, s.store
	out := IngestStats{SharedRatio: 1}
	if s.series != nil {
		out.Compactions = s.series.Compactions()
	}
	s.mu.Unlock()
	if p != nil {
		st := p.Stats()
		out.Batches, out.Mutations, out.Coalesced = st.Batches, st.Mutations, st.Coalesced
		out.Flushes, out.CountFlushes, out.AgeFlushes = st.Flushes, st.CountFlushes, st.AgeFlushes
		out.ManualFlushes, out.Failures = st.ManualFlushes, st.Failures
		out.Rewrites, out.EdgeAdds = st.Rewrites, st.EdgeAdds
		out.EdgeRemoves, out.VertexAdds = st.EdgeRemoves, st.VertexAdds
		out.Cancelled, out.RemoveMisses, out.Shed = st.Cancelled, st.Misses, st.Shed
		out.SnapshotsBuilt, out.SlotsApplied = st.SnapshotsBuilt, st.Applied
		out.PartsRebuilt, out.PartsShared = st.PartsRebuilt, st.PartsShared
		out.SharedRatio = st.SharedRatio()
		out.Pending, out.LastTimestamp = st.Pending, st.LastTimestamp
	}
	if store != nil {
		out.SnapshotsLive = store.Len()
		out.SnapshotsEvicted = store.Evicted()
		out.RetainSnapshots = store.Retention()
		oldest, newest := store.Window()
		out.OldestSeq, out.OldestTimestamp = oldest.Seq, oldest.Timestamp
		out.NewestSeq, out.NewestTimestamp = newest.Seq, newest.Timestamp
		out.NumVertices = newest.PG.G.N
	}
	return out
}

// materializeDelta is the pipeline's sink: one evolve step applies the
// coalesced batch to the series and derives the next snapshot, stamped
// latest+1 (or minTS, when later). On failure the series is left exactly as
// it was, so the pipeline's retained buffer can retry against it.
func (s *System) materializeDelta(muts []ingest.Mutation, minTS int64, sc span.Context) (ingest.Result, error) {
	start := time.Now()
	// Parent the materialize span under the flush span when the window
	// carried one; with no origin there is no trace to join, so skip the
	// span rather than orphan it in a fresh trace.
	var sp *span.Span //cgraph:spanend conditional start; End below is nil-safe
	if sc.Valid() {
		sp = s.tracer.StartSpan(sc, "ingest.materialize")
	}
	s.mu.Lock()
	latest := s.store.Latest()
	ts := max(latest.Timestamp+1, minTS)
	step, err := s.series.Apply(latest.PG, muts, func(pg *graph.PGraph) error {
		return s.addSnapshotLocked(pg, ts)
	})
	s.mu.Unlock()
	res := step.Result
	if res.Built {
		res.Timestamp = ts
	}
	sp.Attr(span.Str("path", step.Path), span.Int("slots", int64(res.Applied)), span.Bool("built", res.Built))
	sp.End()
	if step.Path != "" {
		s.ingestObs.fire(IngestEvent{
			Kind:      IngestMaterialize,
			Path:      step.Path,
			Duration:  time.Since(start),
			Mutations: res.Applied,
			Built:     res.Built,
			Timestamp: res.Timestamp,
		})
	}
	return res, err
}

// JobOption configures a submission.
type JobOption func(*jobConfig)

type jobConfig struct {
	arrival int64
	ctx     context.Context
	span    span.Context
	spanJob string
	// priority and maxRunning are the engine's admission terms.
	priority, maxRunning int
}

// AtTimestamp binds the job to the newest snapshot not younger than ts.
func AtTimestamp(ts int64) JobOption { return func(c *jobConfig) { c.arrival = ts } }

// WithContext scopes the job to ctx: when ctx is cancelled or its deadline
// passes, the job is retired at the next round boundary and Job.Err reports
// the context's error.
func WithContext(ctx context.Context) JobOption { return func(c *jobConfig) { c.ctx = ctx } }

// WithSpan parents the job's engine-side spans ("job.round", sampled
// "pool.task") under the given span context, attributed to jobID — the
// service-level job identifier span queries use. A zero context leaves span
// recording off for this job.
func WithSpan(sc span.Context, jobID string) JobOption {
	return func(c *jobConfig) {
		c.span = sc
		c.spanJob = jobID
	}
}

// WithAdmission sets the job's admission terms: the engine admits queued
// jobs highest priority first, FIFO within a priority, and admits this one
// only while fewer than maxRunning jobs run (0: no cap). Services pass
// their in-flight cap here.
func WithAdmission(priority, maxRunning int) JobOption {
	return func(c *jobConfig) {
		c.priority = priority
		c.maxRunning = maxRunning
	}
}

// JobState is the lifecycle state of a submitted job (alias of the
// engine's core.JobState).
type JobState = core.JobState

// The job lifecycle states, re-exported from the engine.
const (
	JobQueued    = core.JobQueued
	JobRunning   = core.JobRunning
	JobDone      = core.JobDone
	JobCancelled = core.JobCancelled
	JobFailed    = core.JobFailed
)

// Job is a handle to one submitted CGP job. Its state moves with the
// engine's events, after the System's observers have seen each transition,
// and stays readable after Release.
type Job struct {
	sys  *System
	id   int
	name string

	done chan struct{}

	mu      sync.Mutex
	state   JobState
	err     error
	metrics *JobReport
	// moving is set while the observers see a transition the handle has
	// not taken yet; it closes once the handle has.
	moving chan struct{}
}

// Submit registers a job against the current graph. Jobs may be submitted
// before Run, concurrently while Run executes, or at any time against a
// serving system (they are admitted at the next round boundary). Programs
// with job-private bookkeeping (e.g. algo.SCC) must not be shared between
// submissions.
func (s *System) Submit(p Program, opts ...JobOption) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return nil, fmt.Errorf("cgraph: load a graph before submitting jobs")
	}
	jc := jobConfig{arrival: s.store.Latest().Timestamp, ctx: context.Background()}
	for _, o := range opts {
		o(&jc)
	}
	s.ensureEngineLocked()
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	id := s.engine.SubmitWith(jc.ctx, p, core.SubmitOpts{
		Arrival:    jc.arrival,
		Span:       jc.span,
		SpanJob:    jc.spanJob,
		Priority:   jc.priority,
		MaxRunning: jc.maxRunning,
	})
	j := &Job{sys: s, id: id, name: p.Name(), done: make(chan struct{})}
	s.byID[id] = j
	return j, nil
}

// currentEngine returns the engine, nil until the first Submit or Serve
// builds it.
func (s *System) currentEngine() *core.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine
}

func (s *System) ensureEngineLocked() {
	if s.engine != nil {
		return
	}
	hier := memsim.Unlimited()
	if s.cfg.cacheBytes > 0 {
		hier = memsim.New(memsim.Config{
			CacheBytes:  s.cfg.cacheBytes,
			MemoryBytes: s.cfg.memoryBytes,
			Cost:        memsim.DefaultCost(),
		})
	}
	s.engine = core.New(core.Config{
		Workers:       s.cfg.workers,
		Hier:          hier,
		OnJobEvent:    s.onJobEvent,
		OnJobProgress: func(p core.JobProgress) { s.progress.fire(JobUpdate{JobProgress: p, State: JobRunning}) },
		TraceDepth:    s.cfg.traceDepth,
		Tracer:        s.tracer,
	}, s.store)
}

// onJobEvent moves a handle through an admission or a retirement: the
// observers see the transition first, while the handle's readers wait for
// it, then the handle takes it; a retired job's handle leaves byID, and
// its Done closes last. A job's transitions never overlap: the engine
// reports its admission and its retirement one after the other.
func (s *System) onJobEvent(ev core.JobEvent) {
	terminal := ev.State.Terminal()
	s.jobsMu.Lock()
	j := s.byID[ev.JobID]
	if terminal {
		delete(s.byID, ev.JobID)
	}
	s.jobsMu.Unlock()
	if j == nil {
		return
	}
	err := ev.Err
	if errors.Is(err, core.ErrCancelled) {
		err = ErrCancelled
	}
	moved := make(chan struct{})
	j.mu.Lock()
	j.moving = moved
	j.mu.Unlock()
	s.progress.fire(JobUpdate{JobProgress: core.JobProgress{JobID: ev.JobID}, State: ev.State, Err: err})
	j.mu.Lock()
	j.state, j.err, j.moving = ev.State, err, nil
	if ev.State == JobDone {
		j.metrics = jobReportOf(ev.Metrics)
	}
	j.mu.Unlock()
	close(moved)
	if terminal {
		close(j.done)
	}
}

// Run executes every submitted job to convergence and returns the run
// report. It may be called again after further submissions.
func (s *System) Run() (*Report, error) {
	eng := s.currentEngine()
	if eng == nil {
		return nil, fmt.Errorf("cgraph: nothing submitted")
	}
	rep, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &Report{
		System:              rep.System,
		Workers:             rep.Workers,
		SimulatedMakespanUS: rep.Makespan,
		CPUUtilization:      rep.CPUUtilization(),
		CacheMissRate:       rep.Counters.MissRate(),
		BytesIntoCache:      rep.Counters.BytesIntoCache,
		BytesFromDisk:       rep.Counters.BytesFromDisk,
		WallClock:           rep.WallClock,
	}
	for _, jm := range rep.Jobs {
		out.Jobs = append(out.Jobs, *jobReportOf(&jm))
	}
	return out, nil
}

func jobReportOf(jm *metrics.JobMetrics) *JobReport {
	return &JobReport{
		Name:                jm.Name,
		Iterations:          jm.Iterations,
		SimulatedAccessUS:   jm.AccessTime,
		SimulatedComputeUS:  jm.ComputeTime,
		SimulatedFinishedUS: jm.FinishAt,
		EdgesProcessed:      jm.Edges,
	}
}

// Stats is a point-in-time snapshot of a system's engine counters (alias of
// core.Stats).
type Stats = core.Stats

// Stats reports round-loop progress; safe to call while the system serves.
// Before any submission it returns zeros.
func (s *System) Stats() Stats {
	eng := s.currentEngine()
	if eng == nil {
		return Stats{}
	}
	return eng.ServeStats()
}

// ExecStats is a point-in-time snapshot of the work-stealing executor's
// counters (alias of core.ExecStats).
type ExecStats = core.ExecStats

// ExecStats reports the work-stealing executor's counters; safe to call
// while the system serves. Before any submission it reports only the
// configured workers and the engine's default balance.
func (s *System) ExecStats() ExecStats {
	eng := s.currentEngine()
	if eng == nil {
		w := s.cfg.workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		return ExecStats{Workers: w, Balance: 4, LastImbalance: 1}
	}
	return eng.ExecStats()
}

// SchedInfo reports the scheduler's state and plan as of the engine's last
// round (alias of core.SchedInfo).
type SchedInfo = core.SchedInfo

// SchedInfo reports the latest scheduling decision; safe to call while the
// system serves. Before any submission it reports only the policy.
func (s *System) SchedInfo() SchedInfo {
	eng := s.currentEngine()
	if eng == nil {
		return SchedInfo{Policy: sched.Priority.String()}
	}
	return eng.SchedInfo()
}

// RoundTrace is one engine round's trace record (see WithTraceDepth) and
// JobRoundTrace one job's share of it (aliases of the trace recorder's
// Round and JobRound).
type (
	RoundTrace    = trace.Round
	JobRoundTrace = trace.JobRound
)

// TraceDepth reports the configured trace ring depth (0 = disabled).
func (s *System) TraceDepth() int { return s.cfg.traceDepth }

// RoundTraces returns up to limit of the most recent round-trace records,
// oldest first (limit <= 0 returns the whole ring). Tracing must be enabled
// with WithTraceDepth; otherwise, and before any round, it returns nil.
func (s *System) RoundTraces(limit int) []RoundTrace {
	eng := s.currentEngine()
	if eng == nil {
		return nil
	}
	return eng.RoundTraces(limit)
}

// HistogramStat is a point-in-time copy of an internal latency histogram
// (alias of metrics.HistogramSnapshot).
type HistogramStat = metrics.HistogramSnapshot

// RoundDurationStats returns the wall-clock round-duration histogram
// (seconds), observed for every round regardless of trace depth. Zero
// before any submission.
func (s *System) RoundDurationStats() HistogramStat {
	eng := s.currentEngine()
	if eng == nil {
		return HistogramStat{}
	}
	return eng.RoundDurations()
}

// Serve runs the system as a resident service: the engine processes rounds
// while any job is active, idles when the queue is empty, and admits new
// submissions, cancellations, and snapshots continuously. Serve blocks
// until ctx is cancelled or Shutdown is called, then returns nil (jobs
// still in flight stay resident and a later Run or Serve resumes them).
func (s *System) Serve(ctx context.Context) error {
	s.mu.Lock()
	if s.store == nil {
		s.mu.Unlock()
		return fmt.Errorf("cgraph: load a graph before serving")
	}
	if s.serveCancel != nil {
		s.mu.Unlock()
		return fmt.Errorf("cgraph: already serving")
	}
	s.ensureEngineLocked()
	eng := s.engine
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	s.serveCancel = cancel
	s.serveDone = done
	s.mu.Unlock()

	err := eng.Serve(ctx)

	s.mu.Lock()
	s.serveCancel = nil
	s.serveDone = nil
	s.mu.Unlock()
	cancel()
	close(done)
	return err
}

// Shutdown gracefully stops a serving system: the round loop exits at the
// next round boundary. It returns once Serve has returned, or with ctx's
// error if ctx expires first. Shutdown of a non-serving system is a no-op.
func (s *System) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	cancel, done := s.serveCancel, s.serveDone
	s.mu.Unlock()
	if cancel == nil {
		return nil
	}
	cancel()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Results returns the job's converged per-vertex values: an error until
// the job is done and after Release. The engine keeps one vector per job,
// built at convergence under Serve and at the first call after Run; every
// call returns that same slice, which callers must not modify.
func (j *Job) Results() ([]float64, error) {
	eng := j.sys.currentEngine()
	if eng == nil {
		return nil, fmt.Errorf("cgraph: job %q not run", j.name)
	}
	return eng.Results(j.id)
}

// Name returns the job's program name.
func (j *Job) Name() string { return j.name }

// ID returns the engine-assigned job ID.
func (j *Job) ID() int { return j.id }

// Done returns a channel closed when the job reaches a terminal state
// (done, cancelled, or failed). The engine must be draining — via Run or
// Serve — for that to happen.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job reaches a terminal state or ctx expires. On a
// terminal state it returns Err (nil for a converged job).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err reports why the job terminated: nil after convergence, ErrCancelled
// after Cancel, the cause of the job context's end after an expired or
// cancelled WithContext, or an engine error for failed jobs. Before
// termination it returns nil.
func (j *Job) Err() error {
	_, _, err := j.settled()
	return err
}

// State reports the job's lifecycle state; it remains correct after
// Release.
func (j *Job) State() JobState {
	st, _, _ := j.settled()
	return st
}

// settled reads the handle once no transition is in flight, so that a
// reader never sees one before every observer has.
func (j *Job) settled() (JobState, *JobReport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.moving != nil {
		moving := j.moving
		j.mu.Unlock()
		<-moving
		j.mu.Lock()
	}
	return j.state, j.metrics, j.err
}

// Cancel retires the job: a queued one at once, before Cancel returns, and
// a running one at the next round boundary. Cancelling a job that already
// reached a terminal state is an error.
func (j *Job) Cancel() error {
	return j.sys.currentEngine().Cancel(j.id)
}

// Metrics returns the job's report after it converged, or nil before then
// and for cancelled/failed jobs.
func (j *Job) Metrics() *JobReport {
	_, m, _ := j.settled()
	return m
}

// Release frees the engine-side state of a terminal job: its results (and
// the tables of a job that converged under Run and was never read), and
// its engine entry, compacted into aggregate Stats counters. Results errs
// afterwards. Resident services use it to keep memory bounded as jobs flow
// through; releasing an unfinished job is a no-op. The handle's
// State/Err/Metrics remain valid.
func (j *Job) Release() {
	j.sys.currentEngine().Release(j.id)
}

// Report summarizes one Run.
type Report struct {
	System              string
	Workers             int
	SimulatedMakespanUS float64
	CPUUtilization      float64
	CacheMissRate       float64
	BytesIntoCache      int64
	BytesFromDisk       int64
	WallClock           time.Duration
	Jobs                []JobReport
}

// JobReport summarizes one job within a Run.
type JobReport struct {
	Name                string
	Iterations          int
	SimulatedAccessUS   float64
	SimulatedComputeUS  float64
	SimulatedFinishedUS float64
	EdgesProcessed      int64
}
