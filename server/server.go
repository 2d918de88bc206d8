// Package server is the CGraph job service: the "common platform" of §1
// run as a resident subsystem rather than a batch library call. A Service
// owns one serving cgraph.System and layers on top of it the job lifecycle
// (Queued → Running → Done / Cancelled / Failed), durable string job IDs,
// handles with Wait/Status/Results, admission control (a maximum number of
// in-flight jobs with priority-then-FIFO backpressure, leaning on the
// §3.2.3 more-jobs-than-workers batching to pick a useful in-flight
// width), snapshot ingestion for evolving graphs while jobs run, a
// per-job event stream (lifecycle transitions plus per-iteration
// progress), and a bounded history ring of compacted terminal jobs.
//
// Every wire shape the service speaks lives in package api; the /v1
// HTTP/JSON control plane over a Service lives in http.go, the in-process
// cgraph.Client implementation in local.go, and cmd/cgraph-serve wires the
// handler to a listener.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"cgraph"
	"cgraph/api"
	"cgraph/internal/span"
	"cgraph/model"
)

// ErrStopped is the terminal error of jobs still queued or running when the
// service stops.
var ErrStopped = errors.New("server: service stopped")

// State is a job's lifecycle state as reported by the control plane; it is
// the wire type api.JobState.
type State = api.JobState

const (
	// StateQueued: accepted, waiting for an in-flight slot.
	StateQueued = api.JobQueued
	// StateRunning: submitted to the engine and being iterated.
	StateRunning = api.JobRunning
	// StateDone: converged; results are available.
	StateDone = api.JobDone
	// StateCancelled: retired by an explicit cancel before convergence.
	StateCancelled = api.JobCancelled
	// StateFailed: retired without converging (deadline expiry, engine
	// failure, or service shutdown).
	StateFailed = api.JobFailed
)

// Status is the wire snapshot of a job (api.JobStatus).
type Status = api.JobStatus

// SchedInfo is the wire view of the engine's latest scheduling decision
// (api.SchedInfo).
type SchedInfo = api.SchedInfo

// Config tunes a Service.
type Config struct {
	// MaxInFlight caps the jobs submitted to the engine at once; further
	// submissions wait (highest priority first, FIFO within a priority)
	// until a slot frees. Zero means unlimited — the engine batches jobs
	// beyond the worker count per §3.2.3, so unlimited is safe, just
	// unbounded in memory.
	MaxInFlight int
	// DefaultTimeout applies to submissions without an explicit timeout.
	// Zero means no deadline.
	DefaultTimeout time.Duration
	// RetainTerminal caps the terminal jobs kept with full state (results
	// included). Beyond it the oldest terminal jobs are compacted: their
	// results are dropped and their status summaries move to a history
	// ring, so listings paginate history instead of losing it. Zero keeps
	// every terminal job forever (the library default; long-lived services
	// should set a cap).
	RetainTerminal int
	// HistoryLimit caps the ring of compacted terminal job summaries
	// (default 256 when compaction is enabled). Summaries evicted off the
	// ring leave listings but stay in the per-state job counts, so
	// metrics never run backwards.
	HistoryLimit int
	// Logger receives the service's structured events: job admissions and
	// retirements, ingest flushes, retention evictions, shed batches, and
	// (through the HTTP middleware) every request with its per-request ID.
	// Nil discards everything.
	Logger *slog.Logger
}

// Spec describes one job submission.
type Spec struct {
	// Program is the vertex program to run. Required. Programs with
	// job-private bookkeeping must not be shared between submissions.
	Program model.Program
	// Timeout, when positive, bounds the job's wall-clock lifetime from
	// submission — queue wait included; on expiry the job fails with
	// context.DeadlineExceeded.
	Timeout time.Duration
	// Arrival, when non-nil, binds the job to the newest snapshot not
	// younger than *Arrival; nil binds to the latest snapshot at launch.
	Arrival *int64
	// Labels are free-form annotations echoed back in the job's status.
	Labels map[string]string
	// Priority orders admission when the service is at MaxInFlight:
	// higher-priority submissions leave the wait queue first, FIFO within
	// a priority. Zero is the default.
	Priority int
	// Span, when valid, parents the job's span tree under the caller's
	// trace (the HTTP layer passes the request span here); invalid starts
	// a fresh trace rooted at the job's submit span.
	Span span.Context
	// RequestID joins the job's log lines to the HTTP request that
	// submitted it (empty for in-process submissions without one).
	RequestID string
}

// Service is a resident CGraph job service over one shared graph.
type Service struct {
	sys    *cgraph.System
	cfg    Config
	events *hub
	log    *slog.Logger
	obs    *serviceObs
	// reqSeq numbers requests for the per-request IDs the HTTP middleware
	// assigns when the caller did not send one.
	reqSeq atomic.Uint64

	mu       sync.Mutex
	started  bool
	stopped  bool
	runErr   error // sticky: why the round loop died, if it failed
	jobs     map[string]*Job
	order    []string
	queue    []*Job
	inflight int
	nextID   int
	// byEngine maps engine job IDs to service jobs while they run, so
	// round-loop progress events resolve to service IDs.
	byEngine map[int]*Job
	// history is the ring of compacted terminal job summaries, oldest
	// first; evicted counts entries dropped off the ring per state, so
	// job-count metrics stay monotone after eviction.
	history []histEntry
	evicted map[State]int
	stop    context.CancelFunc
	// stopProgress unregisters the service's System progress observer
	// once the service stops, so a dead Service is not kept alive (or
	// called into) by the engine's round loop; stopIngest does the same
	// for the ingest-event observer.
	stopProgress func()
	stopIngest   func()
	serveErr     chan error
	// stopCh closes once the round loop has exited and resident jobs were
	// failed; watchers parked on engine handles unblock on it.
	stopCh   chan struct{}
	stopOnce sync.Once
}

// New builds a Service over sys. The graph must be loaded before Start;
// the system must not be used for batch Run concurrently.
func New(sys *cgraph.System, cfg Config) *Service {
	s := &Service{
		sys:      sys,
		cfg:      cfg,
		events:   newHub(),
		jobs:     make(map[string]*Job),
		byEngine: make(map[int]*Job),
		evicted:  make(map[State]int),
		serveErr: make(chan error, 1),
		stopCh:   make(chan struct{}),
	}
	if s.cfg.RetainTerminal > 0 && s.cfg.HistoryLimit <= 0 {
		s.cfg.HistoryLimit = 256
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.obs = newServiceObs()
	s.stopProgress = sys.OnJobProgress(s.onProgress)
	s.stopIngest = sys.OnIngestEvent(s.onIngestEvent)
	return s
}

// System returns the underlying cgraph.System (snapshot ingestion, stats).
func (s *Service) System() *cgraph.System { return s.sys }

// Start launches the resident round loop on its own goroutine and begins
// accepting submissions. It is an error to start twice or after Stop.
func (s *Service) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("server: already started")
	}
	if s.stopped {
		return fmt.Errorf("server: service stopped")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	s.started = true
	//cgraph:spawn one resident round-loop goroutine per service, exits with Serve
	go func() {
		err := s.sys.Serve(ctx)
		if err != nil {
			// The loop never ran (e.g. the system was mid-batch-Run).
			// Surface the cause: further submissions fail with it and
			// every accepted job resolves instead of hanging.
			s.mu.Lock()
			if !s.stopped {
				s.stopped = true
				s.runErr = err
				s.queue = nil
			}
			s.mu.Unlock()
			s.finalizeStop(err)
		}
		s.serveErr <- err
	}()
	return nil
}

// Stop gracefully shuts the service down: no further submissions are
// accepted, the round loop exits at the next round boundary, and every job
// not yet terminal fails with ErrStopped. Stop returns once the loop has
// exited, or with ctx's error if ctx expires first (teardown then
// completes in the background when the loop lands).
func (s *Service) Stop(ctx context.Context) error {
	s.mu.Lock()
	if !s.started || s.stopped {
		s.stopped = true
		s.mu.Unlock()
		s.stopProgress()
		s.stopIngest()
		return nil
	}
	s.stopped = true
	stop := s.stop
	s.queue = nil
	s.mu.Unlock()

	stop()
	select {
	case err := <-s.serveErr:
		s.finalizeStop(ErrStopped)
		return err
	case <-ctx.Done():
		//cgraph:spawn at most one teardown waiter per service, exits when the loop lands
		go func() {
			<-s.serveErr
			s.finalizeStop(ErrStopped)
		}()
		return ctx.Err()
	}
}

// finalizeStop runs once the round loop has exited: every non-terminal job
// fails with cause so waiters unblock, then stopCh releases the watchers
// still parked on engine handles.
func (s *Service) finalizeStop(cause error) {
	s.stopOnce.Do(func() {
		s.stopProgress()
		s.stopIngest()
		s.mu.Lock()
		ids := append([]string(nil), s.order...)
		s.mu.Unlock()
		for _, id := range ids {
			if j, ok := s.Get(id); ok {
				j.finish(StateFailed, cause, nil)
			}
		}
		close(s.stopCh)
	})
}

// Submit accepts a job. When the service has a free in-flight slot the job
// launches immediately (Running as soon as the engine admits it at a round
// boundary); otherwise it waits, highest priority first and FIFO within a
// priority. The returned handle is valid for the lifetime of the service.
func (s *Service) Submit(spec Spec) (*Job, error) {
	if spec.Program == nil {
		return nil, fmt.Errorf("server: submit: nil program")
	}
	if spec.Timeout == 0 {
		spec.Timeout = s.cfg.DefaultTimeout
	}
	// The stored labels must not alias the submitter's map.
	spec.Labels = maps.Clone(spec.Labels)
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil, fmt.Errorf("server: submit before Start")
	}
	if s.stopped {
		err := s.runErr
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return nil, ErrStopped
	}
	id := fmt.Sprintf("job-%d", s.nextID)
	s.nextID++
	jctx := context.Background()
	jcancel := context.CancelFunc(func() {})
	if spec.Timeout > 0 {
		// The deadline clock starts now, so time spent queued counts.
		jctx, jcancel = context.WithTimeout(jctx, spec.Timeout)
	}
	j := &Job{
		svc:       s,
		id:        id,
		name:      spec.Program.Name(),
		spec:      spec,
		state:     StateQueued,
		engineID:  -1,
		submitted: time.Now(),
		done:      make(chan struct{}),
		ctx:       jctx,
		cancelCtx: jcancel,
	}
	// The submit span roots the job's tree (under the caller's trace when
	// one arrived); it stays open until the job retires, so its wall edges
	// bound the job's full service-side lifetime. The queue-wait child ends
	// at launch — or at retirement, for jobs that never launch.
	tracer := s.sys.SpanTracer()
	j.rootSpan = tracer.StartSpan(spec.Span, "job.submit") //cgraph:spanend ended by finishIf when the job retires
	j.rootSpan.SetJob(id)
	j.rootSpan.Attr(span.Str("algo", j.name), span.Int("priority", int64(spec.Priority)))
	j.queueSpan = tracer.StartSpan(j.rootSpan.Context(), "job.queue_wait") //cgraph:spanend ended by launch, or by finishIf for jobs that never launch
	j.queueSpan.SetJob(id)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.events.create(id)
	s.events.publish(id, api.Event{Type: api.EventState, State: StateQueued})
	if s.cfg.MaxInFlight > 0 && s.inflight >= s.cfg.MaxInFlight {
		// Insert before the first waiter with a strictly lower priority:
		// highest priority first, FIFO within a priority.
		at := len(s.queue)
		for i, q := range s.queue {
			if q.spec.Priority < spec.Priority {
				at = i
				break
			}
		}
		s.queue = append(s.queue, nil)
		copy(s.queue[at+1:], s.queue[at:])
		s.queue[at] = j
		s.mu.Unlock()
		if spec.Timeout > 0 {
			// A queued job must honour its deadline even if no slot ever
			// frees. AfterFunc parks no goroutine; whichever way the job
			// retires, finishIf cancels j.ctx and the callback dissolves
			// (failIfQueued loses to any terminal state).
			context.AfterFunc(j.ctx, func() {
				j.failIfQueued(context.Cause(j.ctx))
			})
		}
		return j, nil
	}
	s.inflight++
	s.mu.Unlock()
	if err := s.launch(j); err != nil {
		j.finish(StateFailed, err, nil)
		s.releaseSlot()
		return j, err
	}
	return j, nil
}

// launch submits j to the engine and spawns its completion watcher.
func (s *Service) launch(j *Job) error {
	opts := []cgraph.JobOption{
		cgraph.WithContext(j.ctx),
		// The engine parents its per-round spans under the job's root, so
		// the tree reads http.request → job.submit → job.round regardless
		// of transport.
		cgraph.WithSpan(j.rootSpan.Context(), j.id),
	}
	if j.spec.Arrival != nil {
		opts = append(opts, cgraph.AtTimestamp(*j.spec.Arrival))
	}
	h, err := s.sys.Submit(j.spec.Program, opts...)
	if err != nil {
		return err
	}
	j.queueSpan.End()
	j.mu.Lock()
	// A cancel or deadline may have landed between the slot grab and the
	// engine submission; the job is already terminal, so drop the
	// engine-side twin and free the slot.
	if j.state.Terminal() {
		j.mu.Unlock()
		h.Cancel()
		s.releaseSlot()
		return nil
	}
	j.state = StateRunning
	j.handle = h
	j.engineID = h.ID()
	j.started = time.Now()
	wait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	s.obs.queueWait.Observe(wait.Seconds())
	s.log.Info("job admitted",
		"job", j.id,
		"engine_id", h.ID(),
		"algo", j.name,
		"priority", j.spec.Priority,
		"queue_wait_ms", durationMS(wait),
		"request_id", j.spec.RequestID,
		"trace_id", j.rootSpan.TraceID().String())
	// Publish the state transition before registering the engine→job
	// mapping: progress events only resolve through byEngine, so none can
	// enter the stream ahead of "running" (an iteration completing in
	// this window is dropped — the stream guarantees order, not density).
	s.events.publish(j.id, api.Event{Type: api.EventState, State: StateRunning})
	s.mu.Lock()
	s.byEngine[h.ID()] = j
	s.mu.Unlock()
	//cgraph:spawn one watcher per admitted job, bounded by MaxInFlight slots
	go s.watch(j, h)
	return nil
}

// onProgress runs on the engine's round loop after every completed job
// iteration: it refreshes the job's live counters and feeds the event
// stream, so watchers observe progress without polling.
func (s *Service) onProgress(u cgraph.JobUpdate) {
	s.mu.Lock()
	j := s.byEngine[u.JobID]
	s.mu.Unlock()
	if j == nil {
		// A job submitted directly on the System, outside this service.
		return
	}
	j.mu.Lock()
	j.iterations = u.Iteration
	j.edges = u.EdgesProcessed
	j.mu.Unlock()
	s.events.publish(j.id, api.Event{
		Type:           api.EventProgress,
		Iteration:      u.Iteration,
		EdgesProcessed: u.EdgesProcessed,
		VirtualTimeUS:  u.VirtualTimeUS,
	})
}

// watch resolves j's terminal state once the engine retires its job — or,
// if the service stops first, leaves j to finalizeStop and unparks.
func (s *Service) watch(j *Job, h *cgraph.Job) {
	select {
	case <-h.Done():
	case <-s.stopCh:
		// The loop exited with this job resident; finalizeStop failed it.
		return
	}
	err := h.Err()
	var state State
	var results []float64
	switch {
	case err == nil:
		results, err = h.Results()
		if err != nil {
			state = StateFailed
		} else {
			state = StateDone
		}
	case errors.Is(err, cgraph.ErrCancelled), errors.Is(err, context.Canceled):
		state = StateCancelled
	default:
		// Deadline expiry and engine-side failures.
		state = StateFailed
	}
	j.mu.Lock()
	j.metrics = h.Metrics()
	j.mu.Unlock()
	s.mu.Lock()
	delete(s.byEngine, h.ID())
	s.mu.Unlock()
	j.finish(state, err, results)
	// The service keeps the results; drop the engine-side private table so
	// resident memory stays bounded as jobs flow through.
	h.Release()
	s.releaseSlot()
}

// releaseSlot frees one in-flight slot and launches waiting jobs while
// capacity remains.
func (s *Service) releaseSlot() {
	s.mu.Lock()
	s.inflight--
	for !s.stopped && len(s.queue) > 0 && (s.cfg.MaxInFlight <= 0 || s.inflight < s.cfg.MaxInFlight) {
		j := s.queue[0]
		s.queue = s.queue[1:]
		if j.State() != StateQueued {
			continue // cancelled while waiting
		}
		s.inflight++
		s.mu.Unlock()
		if err := s.launch(j); err != nil {
			j.finish(StateFailed, err, nil)
			s.mu.Lock()
			s.inflight--
			continue
		}
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// compactTerminalLocked enforces Config.RetainTerminal: the oldest terminal
// jobs beyond the cap lose their full state (results included) and their
// status summaries move to the bounded history ring, so listings keep
// paginating them while resident memory stays bounded. The caller holds
// s.mu and no job's mu: it reads every job's state, so Service.mu orders
// before Job.mu. It returns the IDs it compacted, whose event streams the
// caller removes once it has published what it still owes them.
func (s *Service) compactTerminalLocked() (compacted []string) {
	if s.cfg.RetainTerminal <= 0 {
		return nil
	}
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].State().Terminal() {
			terminal++
		}
	}
	for over := terminal - s.cfg.RetainTerminal; over > 0; over-- {
		at := -1
		for i, id := range s.order {
			if s.jobs[id].State().Terminal() {
				at = i
				break
			}
		}
		if at < 0 {
			return compacted
		}
		id := s.order[at]
		j := s.jobs[id]
		st := j.Status()
		st.Released = true
		delete(s.jobs, id)
		s.order = append(s.order[:at], s.order[at+1:]...)
		s.history = append(s.history, histEntry{st: st, engineID: j.engineJobID()})
		for len(s.history) > s.cfg.HistoryLimit {
			// Evicted summaries leave the listing but stay counted, so
			// job-state metrics never run backwards.
			s.evicted[s.history[0].st.State]++
			s.history = s.history[1:]
		}
		compacted = append(compacted, id)
	}
	return compacted
}

// histEntry is one compacted terminal job: its status summary plus the
// engine job ID it ran under, so scheduler plans referencing a job
// compacted mid-round still resolve to its service ID.
type histEntry struct {
	st       api.JobStatus
	engineID int
}

// Get returns the handle of a known (non-compacted) job ID.
func (s *Service) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel retires the identified job: a queued job is cancelled on the spot,
// a running one at the engine's next round boundary. Cancelling a terminal
// job is an error.
func (s *Service) Cancel(id string) error {
	j, ok := s.Get(id)
	if !ok {
		return fmt.Errorf("server: cancel: unknown job %q", id)
	}
	return j.Cancel()
}

// List returns the status of every live (non-compacted) job in submission
// order. ListPage additionally paginates over the compacted history.
func (s *Service) List() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.Get(id); ok {
			out = append(out, j.Status())
		}
	}
	return out
}

// snapshotJobs copies the history ring, the live job handles, and the
// eviction counters under one lock hold, so a concurrent compaction
// cannot surface the same job in both halves or in neither.
func (s *Service) snapshotJobs() (history []api.JobStatus, live []*Job, evicted map[State]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	history = make([]api.JobStatus, len(s.history))
	for i, h := range s.history {
		history[i] = h.st
	}
	live = make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		live = append(live, s.jobs[id])
	}
	return history, live, maps.Clone(s.evicted)
}

// matchesFilter applies ListOptions' state and label filters to one job
// status.
func matchesFilter(st api.JobStatus, opts api.ListOptions) bool {
	if opts.State != "" && st.State != opts.State {
		return false
	}
	for k, v := range opts.Labels {
		if st.Labels[k] != v {
			return false
		}
	}
	return true
}

// ListPage returns one page of the full job listing — compacted history
// first (oldest to newest), then live jobs in submission order — with the
// scheduler summary attached. State and label filters apply before
// pagination, so Total counts the matching jobs.
func (s *Service) ListPage(opts api.ListOptions) api.JobList {
	all, jobs, _ := s.snapshotJobs()
	for _, j := range jobs {
		all = append(all, j.Status())
	}
	if opts.State != "" || len(opts.Labels) > 0 {
		filtered := all[:0]
		for _, st := range all {
			if matchesFilter(st, opts) {
				filtered = append(filtered, st)
			}
		}
		all = filtered
	}
	list := api.JobList{Total: len(all), Offset: opts.Offset}
	lo := min(max(opts.Offset, 0), len(all))
	hi := len(all)
	if opts.Limit > 0 && lo+opts.Limit < hi {
		hi = lo + opts.Limit
	}
	list.Jobs = all[lo:hi]
	sched := s.SchedInfo()
	list.Sched = &sched
	return list
}

// AddSnapshot ingests a new graph version at the given timestamp while the
// service runs; jobs submitted afterwards (or with a matching Arrival) see
// it. The edge list must be a slot rewrite of the base list.
func (s *Service) AddSnapshot(edges []model.Edge, timestamp int64) error {
	return s.sys.AddSnapshot(edges, timestamp)
}

// engineNameMap maps engine job IDs to service job IDs: live jobs plus —
// so plans and traces referencing a job compacted mid-round still resolve —
// the compacted history ring.
func (s *Service) engineNameMap() map[int]string {
	s.mu.Lock()
	js := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	byEngine := make(map[int]string, len(js))
	for _, h := range s.history {
		if h.engineID >= 0 {
			byEngine[h.engineID] = h.st.ID
		}
	}
	s.mu.Unlock()
	for _, j := range js {
		if id := j.engineJobID(); id >= 0 {
			byEngine[id] = j.ID()
		}
	}
	return byEngine
}

// engineJobName resolves one engine job ID to its service ID, falling back
// to a synthetic name for jobs submitted directly on the System.
func engineJobName(byEngine map[int]string, id int) string {
	if sid, ok := byEngine[id]; ok {
		return sid
	}
	return fmt.Sprintf("engine-%d", id)
}

// SchedInfo reports the scheduler's last plan with service job IDs.
func (s *Service) SchedInfo() SchedInfo {
	ci := s.sys.SchedInfo()
	byEngine := s.engineNameMap()
	out := SchedInfo{
		Policy:     ci.Policy,
		Round:      ci.Round,
		Parts:      ci.Parts,
		PartUIDs:   ci.UIDs,
		MakespanUS: ci.MakespanUS,
	}
	for _, id := range ci.JobIDs {
		out.Jobs = append(out.Jobs, engineJobName(byEngine, id))
	}
	return out
}

// Job is the service-side handle of one submitted job.
type Job struct {
	svc  *Service
	id   string
	name string
	spec Spec
	done chan struct{}

	// ctx carries the job's deadline from submission; cancelCtx releases
	// its timer once the job is terminal.
	ctx       context.Context
	cancelCtx context.CancelFunc

	// rootSpan ("job.submit") spans the job's full service-side lifetime;
	// queueSpan ("job.queue_wait") its wait for an in-flight slot. Both are
	// assigned once at submission and never reassigned, so they are read
	// without j.mu (the Span type has its own lock).
	rootSpan  *span.Span
	queueSpan *span.Span

	mu         sync.Mutex
	state      State
	err        error
	handle     *cgraph.Job
	engineID   int // engine job ID once launched; -1 before
	results    []float64
	metrics    *cgraph.JobReport
	iterations int
	edges      int64
	submitted  time.Time
	started    time.Time
	finished   time.Time
}

// TraceID returns the job's trace ID in wire form (32 lowercase hex).
func (j *Job) TraceID() string { return j.rootSpan.TraceID().String() }

// engineJobID returns the engine job ID the job ran under, -1 if it never
// launched.
func (j *Job) engineJobID() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.engineID
}

// ID returns the service-assigned job ID.
func (j *Job) ID() string { return j.id }

// Name returns the program name.
func (j *Job) Name() string { return j.name }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err reports why the job terminated; nil before termination and after a
// clean convergence.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job reaches a terminal state or ctx expires; on a
// terminal state it returns Err.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel retires the job. Queued jobs cancel immediately; running jobs at
// the engine's next round boundary.
func (j *Job) Cancel() error {
	j.mu.Lock()
	switch {
	case j.state == StateQueued:
		j.mu.Unlock()
		j.finish(StateCancelled, cgraph.ErrCancelled, nil)
		return nil
	case j.state == StateRunning:
		h := j.handle
		j.mu.Unlock()
		return h.Cancel()
	default:
		st := j.state
		j.mu.Unlock()
		return fmt.Errorf("server: cancel: job %s already %s", j.id, st)
	}
}

// Results returns the converged per-vertex values; an error before the job
// is done.
func (j *Job) Results() ([]float64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, fmt.Errorf("server: job %s is %s, results unavailable", j.id, j.state)
	}
	return j.results, nil
}

// finish transitions the job to a terminal state exactly once.
func (j *Job) finish(state State, err error, results []float64) {
	j.finishIf(nil, state, err, results)
}

// failIfQueued fails the job only if it is still waiting in the FIFO —
// the deadline watcher's transition, which must lose to a concurrent
// launch.
func (j *Job) failIfQueued(err error) {
	j.finishIf(func(s State) bool { return s == StateQueued }, StateFailed, err, nil)
}

// finishIf moves the job to state unless it is terminal already or cond
// rejects its current state. The terminal state and the retention it
// triggers become visible together: both happen under the service's mu,
// taken before the job's, so no reader sees this job terminal while a job
// it pushes out of retention still answers.
func (j *Job) finishIf(cond func(State) bool, state State, err error, results []float64) {
	svc := j.svc
	svc.mu.Lock()
	j.mu.Lock()
	if j.state.Terminal() || (cond != nil && !cond(j.state)) {
		j.mu.Unlock()
		svc.mu.Unlock()
		return
	}
	j.state = state
	if state != StateDone {
		j.err = err
	}
	j.results = results
	j.finished = time.Now()
	iters := j.iterations
	if j.metrics != nil {
		iters = j.metrics.Iterations
	}
	var exec time.Duration
	if !j.started.IsZero() {
		exec = j.finished.Sub(j.started)
	}
	j.mu.Unlock()
	compacted := svc.compactTerminalLocked()
	svc.mu.Unlock()
	j.cancelCtx()
	close(j.done)
	if exec > 0 {
		j.svc.obs.exec.With(j.name).Observe(exec.Seconds())
	}
	// Close out the job's span tree: the queue-wait span (a no-op when
	// launch already ended it), an instant retirement marker, then the root
	// span with the terminal state stamped on it.
	j.queueSpan.End()
	now := time.Now() //cgraph:wallclock span edges are wall-stamped by design
	retire := span.Data{
		Trace:     j.rootSpan.TraceID(),
		Parent:    j.rootSpan.Context().Span,
		Name:      "job.retire",
		Job:       j.id,
		StartWall: now,
		EndWall:   now,
		Attrs:     []span.Attr{span.Str("state", string(state))},
	}
	if state != StateDone && err != nil {
		retire.Attrs = append(retire.Attrs, span.Str("error", err.Error()))
	}
	j.svc.sys.SpanTracer().Record(retire)
	j.rootSpan.Attr(span.Str("state", string(state)), span.Int("iterations", int64(iters)))
	j.rootSpan.End()
	logAttrs := []any{
		"job", j.id,
		"algo", j.name,
		"state", string(state),
		"iterations", iters,
		"exec_ms", durationMS(exec),
		"request_id", j.spec.RequestID,
		"trace_id", j.TraceID(),
	}
	if state != StateDone && err != nil {
		logAttrs = append(logAttrs, "error", err.Error())
	}
	j.svc.log.Info("job retired", logAttrs...)
	ev := api.Event{Type: api.EventState, State: state, Iteration: iters}
	if state != StateDone {
		ev.Error = apiError(err)
	}
	j.svc.events.publish(j.id, ev)
	// The job may have compacted itself: its stream goes only after its
	// terminal event is in it.
	for _, id := range compacted {
		j.svc.events.remove(id)
	}
}

// apiError converts a job's terminal error to its wire form.
func apiError(err error) *api.Error {
	if err == nil {
		return nil
	}
	code := api.CodeInternal
	switch {
	case errors.Is(err, cgraph.ErrCancelled), errors.Is(err, context.Canceled):
		code = api.CodeCancelled
	case errors.Is(err, context.DeadlineExceeded):
		code = api.CodeDeadlineExceeded
	case errors.Is(err, ErrStopped):
		code = api.CodeUnavailable
	}
	return &api.Error{Code: code, Message: err.Error()}
}

// Status snapshots the job in its wire form.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:   j.id,
		Algo: j.name,
		// Cloned so a caller mutating the snapshot (in-process clients
		// skip the JSON copy HTTP clients get) cannot alter the job.
		Labels:     maps.Clone(j.spec.Labels),
		State:      j.state,
		Priority:   j.spec.Priority,
		Submitted:  j.submitted,
		Iterations: j.iterations,
	}
	st.Error = apiError(j.err)
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	st.TraceID = j.TraceID()
	st.EdgesProcessed = j.edges
	if j.metrics != nil {
		st.Iterations = j.metrics.Iterations
		st.EdgesProcessed = j.metrics.EdgesProcessed
		st.SimulatedAccessUS = j.metrics.SimulatedAccessUS
		st.SimulatedComputeUS = j.metrics.SimulatedComputeUS
	}
	return st
}
