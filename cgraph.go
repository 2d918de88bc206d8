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
	"sort"
	"sync"
	"time"

	"cgraph/api"
	"cgraph/internal/core"
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
	// while the job runs and after it compacts. Requires the service to
	// trace (TraceDepth > 0) for per-round entries; the lifecycle envelope
	// is always populated.
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

// Scheduler selects the partition-load ordering policy.
type Scheduler int

const (
	// PriorityScheduler is the paper's Eq. 1 policy applied over the union
	// of every job's footprint (one-level; default).
	PriorityScheduler Scheduler = iota
	// StaticScheduler loads partitions in index order.
	StaticScheduler
	// TwoLevelScheduler first groups jobs whose active footprints share
	// snapshot partition versions, then applies Eq. 1 within each group —
	// the snapshot-aware two-level policy.
	TwoLevelScheduler
)

// String names the policy ("priority", "static", "two-level").
func (s Scheduler) String() string { return schedKind(s).String() }

// ParseScheduler resolves a policy name ("static", "priority",
// "two-level") to its Scheduler value.
func ParseScheduler(name string) (Scheduler, error) {
	k, err := sched.ParseKind(name)
	if err != nil {
		return PriorityScheduler, fmt.Errorf("cgraph: %w", err)
	}
	switch k {
	case sched.Static:
		return StaticScheduler, nil
	case sched.TwoLevel:
		return TwoLevelScheduler, nil
	default:
		return PriorityScheduler, nil
	}
}

type config struct {
	workers         int
	scheduler       Scheduler
	coreSubgraph    bool
	numPartitions   int
	cacheBytes      int64
	memoryBytes     int64
	ingestWindow    time.Duration
	ingestBatch     int
	ingestCap       int
	compactRatio    float64
	maxVertexGrowth int
	retainSnapshots int
	traceDepth      int
	spanTaskEvery   int
}

// Option configures a System.
type Option func(*config)

// WithWorkers sets the worker (core) count; default runtime.GOMAXPROCS.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithScheduler selects the load-order policy.
func WithScheduler(s Scheduler) Option { return func(c *config) { c.scheduler = s } }

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

// WithCompactionRatio sets the hole-compaction trigger: when a delta flush
// is about to build a snapshot and at least ratio of the edge slots are
// removal tombstones, the edge list is compacted in place first — holes
// squeezed out, the slot space shrunk — so a long remove-heavy delta
// stream cannot leave the partitions scanning mostly-dead slots forever.
// Compaction recuts every partition at or after the first hole, so it is
// deliberately rare: the default ratio is 0.25; negative disables
// compaction entirely.
func WithCompactionRatio(f float64) Option { return func(c *config) { c.compactRatio = f } }

// WithMaxVertexGrowth bounds how far beyond the current vertex space a
// single delta batch's structural mutations may reach (default 1<<20 new
// vertices): vertex tables are allocated densely up to the largest id, so
// without a bound one tiny add_vertex request naming id 2^32-2 would force
// a multi-gigabyte allocation. Batches exceeding the bound are rejected
// atomically at admission.
func WithMaxVertexGrowth(n int) Option { return func(c *config) { c.maxVertexGrowth = n } }

// WithRetainSnapshots caps the retained snapshot series at n versions:
// beyond it the oldest snapshots not referenced by any bound job are
// evicted, so a resident service ingesting deltas forever stays bounded.
// The latest snapshot and any snapshot a live job is bound to are never
// evicted. Zero (the default) keeps every snapshot.
func WithRetainSnapshots(n int) Option { return func(c *config) { c.retainSnapshots = n } }

// WithTraceDepth enables round/job tracing with a ring of the last n round
// records and per-job timelines bounded at n rounds (retained after the job
// retires, in a terminal ring also bounded at n). Zero (the default)
// disables tracing: the round loop then skips all per-round trace
// bookkeeping, so an untraced system pays nothing.
func WithTraceDepth(n int) Option { return func(c *config) { c.traceDepth = n } }

// WithSpanSampling records a "pool.task" span for one in every n executor
// tasks of span-carrying jobs. Zero (the default) samples 1-in-64; negative
// disables task spans entirely while keeping job/round spans and
// stolen-task attribution.
func WithSpanSampling(n int) Option { return func(c *config) { c.spanTaskEvery = n } }

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

	mu       sync.Mutex
	store    *storage.SnapshotStore
	edges    []model.Edge
	engine   *core.Engine
	pipeline *ingest.Pipeline
	jobs     []*Job
	byID     map[int]*Job
	// numVertices is the authoritative vertex-space size of the latest
	// snapshot; structural deltas grow it monotonically (add_vertex,
	// add_edge endpoints beyond it).
	numVertices int
	// edgeSlots indexes the current edge list by endpoint pair for
	// structural removes; built lazily on the first remove and maintained
	// incrementally, dropped (and rebuilt on demand) by full-list
	// snapshots and failed materializations.
	edgeSlots map[uint64][]int
	// freeSlots lists edge slots holding removal tombstones
	// (model.HoleEdge). Removes punch holes instead of swapping the tail
	// in, so a remove-bearing flush touches only the removed slots'
	// chunks; adds refill holes before growing the list.
	freeSlots []int
	// compactions counts hole-compaction passes (WithCompactionRatio)
	// performed by delta flushes.
	compactions int64

	serveCancel context.CancelFunc
	serveDone   chan struct{}

	// progressFns observe every completed job iteration, keyed by
	// registration order for removal; progressList is the copy-on-write
	// call order the round-loop hot path reads, rebuilt on mutation.
	progressFns  map[int]func(JobUpdate)
	progressSeq  int
	progressList []func(JobUpdate)

	// obsMu guards the ingest-event observers separately from s.mu:
	// notifyIngest fires from under s.mu, the pipeline lock, and the
	// snapshot store lock, so the registry must never need s.mu.
	obsMu         sync.Mutex
	ingestObsFns  map[int]func(IngestEvent)
	ingestObsSeq  int
	ingestObsList []func(IngestEvent)
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
	// Path is the materialization path ("overlay", "restructure").
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
	if fn == nil {
		return func() {}
	}
	s.obsMu.Lock()
	if s.ingestObsFns == nil {
		s.ingestObsFns = make(map[int]func(IngestEvent))
	}
	id := s.ingestObsSeq
	s.ingestObsSeq++
	s.ingestObsFns[id] = fn
	s.rebuildIngestObsLocked()
	s.obsMu.Unlock()
	return func() {
		s.obsMu.Lock()
		delete(s.ingestObsFns, id)
		s.rebuildIngestObsLocked()
		s.obsMu.Unlock()
	}
}

func (s *System) rebuildIngestObsLocked() {
	ids := make([]int, 0, len(s.ingestObsFns))
	for id := range s.ingestObsFns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	list := make([]func(IngestEvent), len(ids))
	for i, id := range ids {
		list[i] = s.ingestObsFns[id]
	}
	s.ingestObsList = list
}

// notifyIngest delivers ev to the registered observers. It takes only
// obsMu, so it is safe to call from under any other System lock.
func (s *System) notifyIngest(ev IngestEvent) {
	s.obsMu.Lock()
	fns := s.ingestObsList
	s.obsMu.Unlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// JobUpdate reports one completed iteration of a submitted job (alias of
// the engine's core.JobProgress).
type JobUpdate = core.JobProgress

// OnJobProgress registers fn to observe every completed job iteration
// (serve mode and batch runs alike). Observers accumulate: each
// registered fn receives every update, so a server.Service and user code
// can observe the same System without displacing one another. The
// returned func unregisters fn — call it when the observer's lifetime
// ends (a stopped service, say) so the System does not keep it alive.
// fn runs on the engine's round-loop goroutine and must not block for
// long; the final iteration's update is delivered strictly before the
// job's Done channel closes. Resident services use this to feed
// job-event streams without polling. A nil fn is ignored.
func (s *System) OnJobProgress(fn func(JobUpdate)) (unregister func()) {
	if fn == nil {
		return func() {}
	}
	s.mu.Lock()
	if s.progressFns == nil {
		s.progressFns = make(map[int]func(JobUpdate))
	}
	id := s.progressSeq
	s.progressSeq++
	s.progressFns[id] = fn
	s.rebuildProgressListLocked()
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.progressFns, id)
		s.rebuildProgressListLocked()
		s.mu.Unlock()
	}
}

// rebuildProgressListLocked recomputes the registration-ordered call list.
// Mutations are rare; the per-iteration hot path just reads the slice.
func (s *System) rebuildProgressListLocked() {
	ids := make([]int, 0, len(s.progressFns))
	for id := range s.progressFns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	list := make([]func(JobUpdate), len(ids))
	for i, id := range ids {
		list[i] = s.progressFns[id]
	}
	s.progressList = list
}

// onJobProgress forwards engine progress to the registered observers, in
// registration order. Runs once per completed job iteration on the
// engine's round loop, so it only snapshots the prebuilt call list.
func (s *System) onJobProgress(u JobUpdate) {
	s.mu.Lock()
	fns := s.progressList
	s.mu.Unlock()
	for _, fn := range fns {
		fn(u)
	}
}

// NewSystem builds an empty system; load a graph before submitting jobs.
func NewSystem(opts ...Option) *System {
	cfg := config{coreSubgraph: true}
	for _, o := range opts {
		o(&cfg)
	}
	return &System{cfg: cfg, tracer: span.New(span.Config{})}
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
	// The system owns its copy: delta flushes mutate the list in place, so
	// it must not alias the caller's slice.
	s.edges = append([]model.Edge(nil), edges...)
	s.numVertices = g.N
	s.store = storage.NewSnapshotStore(pg, 0)
	s.store.SetRetention(s.cfg.retainSnapshots)
	// Forward retention evictions to the ingest-event observers.
	// notifyIngest takes only obsMu, so firing from under the store lock
	// (and whatever locks the Add that triggered GC holds) is safe.
	s.store.SetEvictObserver(func(seq int, ts int64) {
		s.notifyIngest(IngestEvent{Kind: IngestEvict, Seq: seq, Timestamp: ts})
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
// (§3.2.1): the edge list must have the same length as the base (slot
// rewrites, see gen.Mutate), unchanged partitions are shared with the
// previous snapshot, and jobs submitted with AtTimestamp ≥ timestamp see
// the new version. Requires the system to have been built with
// WithCoreSubgraph(false).
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
	if len(edges) != len(s.edges) {
		return fmt.Errorf("cgraph: snapshot edge list has %d slots, base has %d (snapshots are slot rewrites of the base list)", len(edges), len(s.edges))
	}
	changed := diffSlots(s.edges, edges)
	changedParts := graph.ChangedPartitions(changed, prev.ChunkSize, len(prev.Parts))
	pg, err := graph.Overlay(prev, edges, changedParts)
	if err != nil {
		return err
	}
	// Route the store append through the engine once it exists: its lock
	// serializes the write against snapshot resolution in concurrent
	// submissions while the system serves.
	if s.engine != nil {
		err = s.engine.AddSnapshot(pg, timestamp)
	} else {
		err = s.store.Add(pg, timestamp)
	}
	if err != nil {
		return err
	}
	// Copied for the same reason as in LoadEdges: the system's list must
	// not alias the caller's.
	s.edges = append([]model.Edge(nil), edges...)
	// A rewrite may name endpoints beyond the loaded vertex count (Build
	// auto-grows the snapshot's N); track it so structural deltas keep
	// working against the grown space.
	s.numVertices = pg.G.N
	// The full-list rewrite invalidates the structural-remove index and the
	// free-slot list; the index is rebuilt lazily the next time a remove
	// needs it.
	s.edgeSlots = nil
	s.freeSlots = nil
	return nil
}

// diffSlots lists the rewritten slot indices of two equal-length edge
// lists; AddSnapshot validates the lengths before calling.
func diffSlots(a, b []model.Edge) []int {
	var out []int
	for i := range a {
		if a[i] != b[i] {
			out = append(out, i)
		}
	}
	return out
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
			return len(s.edges)
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
			s.notifyIngest(ev)
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
// untouched. This is the O(|delta|) counterpart of the O(|E|) AddSnapshot
// path: a job bound to a delta-built snapshot computes what it would
// against the same mutated graph ingested as a full list. Batches are
// validated atomically; a bad slot or op rejects the whole batch, and with
// WithIngestCap a full buffer sheds the batch with ErrIngestSaturated.
func (s *System) ApplyDelta(d Delta) (DeltaAck, error) {
	s.mu.Lock()
	p, err := s.ensureIngestLocked()
	numV := s.numVertices
	s.mu.Unlock()
	if err != nil {
		return DeltaAck{}, err
	}
	// Vertex tables are dense up to the largest id, so an absurd endpoint
	// in one tiny mutation would force a matching allocation; bound how
	// far a batch may grow the space and reject it atomically up front.
	// (Remove endpoints never grow the space — an absent edge just
	// misses — so they are exempt.)
	growth := s.cfg.maxVertexGrowth
	if growth <= 0 {
		growth = 1 << 20
	}
	maxID := VertexID(min(int64(numV)+int64(growth)-1, int64(model.NoVertex)-1))
	checkID := func(v VertexID) error {
		if v > maxID {
			return fmt.Errorf("cgraph: vertex id %d exceeds the vertex-space growth bound %d (current space %d + max growth %d; see WithMaxVertexGrowth)",
				v, maxID, numV, growth)
		}
		return nil
	}
	for _, m := range d.Mutations {
		switch m.Op {
		case MutationRewrite, MutationAdd:
			if err := checkID(m.Edge.Src); err != nil {
				return DeltaAck{}, err
			}
			if err := checkID(m.Edge.Dst); err != nil {
				return DeltaAck{}, err
			}
		case MutationAddVertex:
			if err := checkID(m.Vertex); err != nil {
				return DeltaAck{}, err
			}
		}
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
	compactions := s.compactions
	s.mu.Unlock()
	out := IngestStats{SharedRatio: 1, Compactions: compactions}
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

// compactRatioLocked resolves the effective hole-compaction trigger:
// the configured WithCompactionRatio, 0.25 by default, ≤0 when disabled.
func (s *System) compactRatioLocked() float64 {
	if s.cfg.compactRatio != 0 {
		return s.cfg.compactRatio
	}
	return 0.25
}

// edgeKeyOf packs an edge's endpoint pair into the structural-remove
// index's key.
func edgeKeyOf(e model.Edge) uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }

// edgeIndexLocked lazily builds the endpoint-pair → slots index used by
// structural removes. Caller holds s.mu.
func (s *System) edgeIndexLocked() map[uint64][]int {
	if s.edgeSlots == nil {
		idx := make(map[uint64][]int, len(s.edges))
		for i, e := range s.edges {
			if e.IsHole() {
				continue
			}
			k := edgeKeyOf(e)
			idx[k] = append(idx[k], i)
		}
		s.edgeSlots = idx
	}
	return s.edgeSlots
}

// indexAddLocked/indexDropLocked maintain the remove index incrementally
// when it exists; with no index built yet they no-op (a later remove
// rebuilds it from the current list).
func (s *System) indexAddLocked(e model.Edge, slot int) {
	if s.edgeSlots == nil {
		return
	}
	k := edgeKeyOf(e)
	s.edgeSlots[k] = append(s.edgeSlots[k], slot)
}

func (s *System) indexDropLocked(e model.Edge, slot int) {
	if s.edgeSlots == nil {
		return
	}
	k := edgeKeyOf(e)
	ss := s.edgeSlots[k]
	for i, x := range ss {
		if x == slot {
			ss[i] = ss[len(ss)-1]
			ss = ss[:len(ss)-1]
			break
		}
	}
	if len(ss) == 0 {
		delete(s.edgeSlots, k)
	} else {
		s.edgeSlots[k] = ss
	}
}

// indexTakeLocked pops one slot holding an edge with e's endpoints; ok is
// false when no such edge exists.
func (s *System) indexTakeLocked(e model.Edge) (int, bool) {
	idx := s.edgeIndexLocked()
	k := edgeKeyOf(e)
	ss := idx[k]
	if len(ss) == 0 {
		return 0, false
	}
	slot := ss[len(ss)-1]
	ss = ss[:len(ss)-1]
	if len(ss) == 0 {
		delete(idx, k)
	} else {
		idx[k] = ss
	}
	return slot, true
}

// materializeDelta is the pipeline's sink: it applies one coalesced batch
// (rewrites by ascending slot, then removes, adds, and vertex growth) to
// the authoritative edge list in place — the flush must stay O(|delta|),
// never O(|E|) — and builds the next snapshot. Pure slot rewrites take the
// Overlay path (same slot count, same partition count); structural batches
// take graph.Restructure, which re-chunks only the touched partitions while
// the vertex space and edge-slot count move. Removes punch a hole into the
// freed slot (model.HoleEdge) and record it on the free-slot list, so only
// the removed slot's chunk is touched — the tail chunk stays shared — and
// later adds refill holes in place before appending new slots.
// On failure every edge-list write and the vertex-space growth are
// reverted (and the remove index dropped for a lazy rebuild), so the
// pipeline's retained buffer can retry against unchanged state. In-place
// is safe: partitions copy the edge data into their own CSRs at build
// time, so no snapshot aliases s.edges.
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
	res, path, err := s.materializeDeltaLocked(muts, minTS)
	s.mu.Unlock()
	sp.Attr(span.Str("path", path), span.Int("slots", int64(res.Applied)), span.Bool("built", res.Built))
	sp.End()
	if path != "" {
		s.notifyIngest(IngestEvent{
			Kind:      IngestMaterialize,
			Path:      path,
			Duration:  time.Since(start),
			Mutations: res.Applied,
			Built:     res.Built,
			Timestamp: res.Timestamp,
		})
	}
	return res, err
}

// materializeDeltaLocked does the work of materializeDelta under s.mu and
// additionally reports which build path ran ("overlay", "restructure", or
// "" when every op was a no-op and no snapshot was attempted).
func (s *System) materializeDeltaLocked(muts []ingest.Mutation, minTS int64) (ingest.Result, string, error) {
	prev := s.store.Latest()
	prevLen := len(s.edges)
	prevN := s.numVertices

	const (
		undoWrite = iota
		undoAppend
	)
	type undoRec struct {
		kind int
		slot int
		old  model.Edge
	}
	var undo []undoRec
	prevFree := append([]int(nil), s.freeSlots...)
	changedSet := make(map[int]bool, len(muts))
	misses := 0
	growTo := func(v model.VertexID) {
		if int(v) >= s.numVertices {
			s.numVertices = int(v) + 1
		}
	}
	for _, m := range muts {
		switch m.Op {
		case ingest.Rewrite:
			if m.Slot >= len(s.edges) {
				// The slot vanished under a structural remove buffered in
				// the same window; nothing left to rewrite.
				misses++
				continue
			}
			if s.edges[m.Slot] == m.Edge {
				continue
			}
			undo = append(undo, undoRec{kind: undoWrite, slot: m.Slot, old: s.edges[m.Slot]})
			if s.edges[m.Slot].IsHole() {
				// Rewriting a freed slot revives it; take it off the
				// free list so an add cannot claim it too.
				for i, fs := range s.freeSlots {
					if fs == m.Slot {
						s.freeSlots[i] = s.freeSlots[len(s.freeSlots)-1]
						s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
						break
					}
				}
			}
			s.indexDropLocked(s.edges[m.Slot], m.Slot)
			s.indexAddLocked(m.Edge, m.Slot)
			s.edges[m.Slot] = m.Edge
			changedSet[m.Slot] = true
			growTo(m.Edge.Src)
			growTo(m.Edge.Dst)
		case ingest.RemoveEdge:
			slot, ok := s.indexTakeLocked(m.Edge)
			if !ok {
				misses++
				continue
			}
			// Punch a hole instead of swapping the tail in: only this
			// slot's chunk changes, so the tail chunk stays shared and
			// Restructure never recuts it for a plain remove.
			undo = append(undo, undoRec{kind: undoWrite, slot: slot, old: s.edges[slot]})
			s.edges[slot] = model.HoleEdge()
			s.freeSlots = append(s.freeSlots, slot)
			changedSet[slot] = true
		case ingest.AddEdge:
			var slot int
			if n := len(s.freeSlots); n > 0 {
				// Refill the most recently freed slot in place.
				slot = s.freeSlots[n-1]
				s.freeSlots = s.freeSlots[:n-1]
				undo = append(undo, undoRec{kind: undoWrite, slot: slot, old: s.edges[slot]})
				s.edges[slot] = m.Edge
			} else {
				slot = len(s.edges)
				s.edges = append(s.edges, m.Edge)
				undo = append(undo, undoRec{kind: undoAppend})
			}
			s.indexAddLocked(m.Edge, slot)
			changedSet[slot] = true
			growTo(m.Edge.Src)
			growTo(m.Edge.Dst)
		case ingest.AddVertex:
			growTo(m.Vertex)
		}
	}
	grewN := s.numVertices > prevN
	if len(changedSet) == 0 && !grewN {
		// Every op was a no-op (in-place rewrites, missed removes); no
		// version to build.
		return ingest.Result{Misses: misses}, "", nil
	}
	// preCompact holds the full pre-compaction edge list when a compaction
	// pass ran: the undo records reference pre-compaction slot positions,
	// so revert must restore the uncompacted list before replaying them.
	var preCompact []model.Edge
	revert := func() {
		if preCompact != nil {
			s.edges = preCompact
		}
		for i := len(undo) - 1; i >= 0; i-- {
			r := undo[i]
			switch r.kind {
			case undoWrite:
				s.edges[r.slot] = r.old
			case undoAppend:
				s.edges = s.edges[:len(s.edges)-1]
			}
		}
		s.numVertices = prevN
		s.freeSlots = prevFree
		// Incremental index maintenance is not unwound; rebuild lazily.
		s.edgeSlots = nil
	}
	if len(s.edges)-len(s.freeSlots) == 0 {
		revert()
		return ingest.Result{}, "", fmt.Errorf("cgraph: delta batch would remove every edge; at least one must remain")
	}
	// Hole compaction: when the tombstone share of the slot space crosses
	// the configured ratio, squeeze the holes out before building. Every
	// live slot at or after the first hole shifts down, so those slots all
	// join the changed set and the shrunk length forces the Restructure
	// path; slots below the first hole keep their positions and their
	// chunks stay shared.
	if ratio := s.compactRatioLocked(); ratio > 0 && len(s.freeSlots) > 0 &&
		float64(len(s.freeSlots)) >= ratio*float64(len(s.edges)) {
		preCompact = append([]model.Edge(nil), s.edges...)
		firstHole := -1
		w := 0
		for i := range s.edges {
			if s.edges[i].IsHole() {
				if firstHole < 0 {
					firstHole = i
				}
				continue
			}
			if w != i {
				s.edges[w] = s.edges[i]
			}
			w++
		}
		s.edges = s.edges[:w]
		for slot := range changedSet {
			if slot >= firstHole {
				delete(changedSet, slot)
			}
		}
		for slot := firstHole; slot < w; slot++ {
			changedSet[slot] = true
		}
		s.freeSlots = s.freeSlots[:0]
		// Slot positions moved; the remove index rebuilds lazily.
		s.edgeSlots = nil
		s.compactions++
	}
	ts := prev.Timestamp + 1
	if minTS > ts {
		ts = minTS
	}
	changed := make([]int, 0, len(changedSet))
	for slot := range changedSet {
		changed = append(changed, slot)
	}
	sort.Ints(changed)
	var pg *graph.PGraph
	var rebuilt int
	var err error
	var path string
	if len(s.edges) == prevLen && !grewN {
		// Pure in-place rewrites: same slot space, the Overlay fast path.
		path = "overlay"
		changedParts := graph.ChangedPartitions(changed, prev.PG.ChunkSize, len(prev.PG.Parts))
		pg, err = graph.Overlay(prev.PG, s.edges, changedParts)
		rebuilt = len(changedParts)
	} else {
		path = "restructure"
		var rebuiltIDs []int
		pg, rebuiltIDs, err = graph.Restructure(prev.PG, s.numVertices, s.edges, changed)
		rebuilt = len(rebuiltIDs)
	}
	if err != nil {
		revert()
		return ingest.Result{}, path, err
	}
	if s.engine != nil {
		err = s.engine.AddSnapshot(pg, ts)
	} else {
		err = s.store.Add(pg, ts)
	}
	if err != nil {
		revert()
		return ingest.Result{}, path, err
	}
	return ingest.Result{
		Built:     true,
		Timestamp: ts,
		Applied:   len(changed),
		Rebuilt:   rebuilt,
		Shared:    len(pg.Parts) - rebuilt,
		Misses:    misses,
	}, path, nil
}

// JobOption configures a submission.
type JobOption func(*jobConfig)

type jobConfig struct {
	arrival  int64
	priority int
	ctx      context.Context
	span     span.Context
	spanJob  string
}

// AtTimestamp binds the job to the newest snapshot not younger than ts.
func AtTimestamp(ts int64) JobOption { return func(c *jobConfig) { c.arrival = ts } }

// WithPriority sets the job's scheduling priority (default 0): the
// two-level scheduler orders correlation groups by aggregate job priority,
// so a group carrying urgent jobs loads its partitions first each round.
func WithPriority(p int) JobOption { return func(c *jobConfig) { c.priority = p } }

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

// Job is a handle to one submitted CGP job.
type Job struct {
	sys  *System
	id   int
	name string

	done chan struct{}

	mu      sync.Mutex
	err     error
	metrics *JobReport
	// terminal caches the final state once the engine retires the job, so
	// State stays correct after Release drops the engine-side entry.
	terminal JobState
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
	id := s.engine.SubmitWith(jc.ctx, p, core.SubmitOpts{
		Arrival:  jc.arrival,
		Priority: jc.priority,
		Span:     jc.span,
		SpanJob:  jc.spanJob,
	})
	j := &Job{sys: s, id: id, name: p.Name(), done: make(chan struct{})}
	s.jobs = append(s.jobs, j)
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
	s.byID = make(map[int]*Job)
	s.engine = core.New(core.Config{
		Workers:         s.cfg.workers,
		Hier:            hier,
		Scheduler:       schedKind(s.cfg.scheduler),
		OnJobEvent:      s.onJobEvent,
		OnJobProgress:   s.onJobProgress,
		TraceDepth:      s.cfg.traceDepth,
		Tracer:          s.tracer,
		TaskSampleEvery: s.cfg.spanTaskEvery,
	}, s.store)
}

// onJobEvent runs on the engine's round-loop goroutine whenever a job
// reaches a terminal state; it resolves the public handle.
func (s *System) onJobEvent(ev core.JobEvent) {
	s.mu.Lock()
	j := s.byID[ev.JobID]
	s.mu.Unlock()
	if j == nil {
		return
	}
	j.mu.Lock()
	j.terminal = ev.State
	switch ev.State {
	case core.JobDone:
		j.metrics = jobReportOf(ev.Metrics)
	case core.JobCancelled:
		if errors.Is(ev.Err, core.ErrCancelled) {
			j.err = ErrCancelled
		} else {
			j.err = ev.Err
		}
	case core.JobFailed:
		j.err = ev.Err
	}
	j.mu.Unlock()
	close(j.done)
}

func schedKind(s Scheduler) sched.Kind {
	switch s {
	case StaticScheduler:
		return sched.Static
	case TwoLevelScheduler:
		return sched.TwoLevel
	default:
		return sched.Priority
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

// Stats reports current job-state counts and round-loop progress; safe to
// call while the system serves. Before any submission it returns zeros.
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

// SchedInfo reports the scheduler's state as of the engine's last round and
// SchedGroup one of its correlation groups (aliases of core.SchedInfo and
// core.SchedGroup).
type (
	SchedInfo  = core.SchedInfo
	SchedGroup = core.SchedGroup
)

// SchedInfo reports the latest scheduling decision; safe to call while the
// system serves. Before any submission it reports only the policy.
func (s *System) SchedInfo() SchedInfo {
	eng := s.currentEngine()
	if eng == nil {
		return SchedInfo{Policy: schedKind(s.cfg.scheduler).String()}
	}
	return eng.SchedInfo()
}

// RoundTrace is one engine round's trace record (see WithTraceDepth),
// RoundTraceGroup one correlation group of its schedule, JobRoundTrace one
// job's share of it, and JobTrace one job's retained round-by-round
// timeline (aliases of the trace recorder's Round, Group, JobRound and
// Timeline).
type (
	RoundTrace      = trace.Round
	RoundTraceGroup = trace.Group
	JobRoundTrace   = trace.JobRound
	JobTrace        = trace.Timeline
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

// JobTrace returns the round-by-round timeline recorded for an engine job
// ID — live while it runs, retained after it retires — or false when
// tracing is disabled or the timeline was evicted from the terminal ring.
func (s *System) JobTrace(jobID int) (JobTrace, bool) {
	eng := s.currentEngine()
	if eng == nil {
		return JobTrace{}, false
	}
	return eng.JobTrace(jobID)
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

// Results returns the job's converged per-vertex values. Valid after the
// job completes (batch Run, or Job.Wait/Done in serve mode).
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
// after Cancel, the job context's error after an expired WithContext, or an
// engine error for failed jobs. Before termination it returns nil.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// State reports the job's lifecycle state. Once terminal it is served from
// the handle itself, so it remains correct after Release.
func (j *Job) State() JobState {
	j.mu.Lock()
	term := j.terminal
	j.mu.Unlock()
	if term.Terminal() {
		return term
	}
	eng := j.sys.currentEngine()
	st, ok := eng.JobState(j.id)
	if !ok {
		return JobQueued
	}
	return st
}

// Cancel retires the job at the next round boundary. Cancelling a job that
// already reached a terminal state is an error.
func (j *Job) Cancel() error {
	return j.sys.currentEngine().Cancel(j.id)
}

// Metrics returns the job's report after it converged, or nil before then
// and for cancelled/failed jobs.
func (j *Job) Metrics() *JobReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.metrics
}

// Release frees the engine-side state of a terminal job: for finished jobs
// the private table, activity bitsets, and result backing, and for every
// terminal job its lifecycle-map entry (compacted into aggregate Stats
// counters). Extract Results first: they become unavailable afterwards.
// Resident services use it to keep memory bounded as jobs flow through;
// releasing an unfinished job is a no-op. The handle's State/Err/Metrics
// remain valid.
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
