// Package server is the CGraph job service: the "common platform" of §1
// run as a resident subsystem rather than a batch library call. A Service
// owns one serving cgraph.System and layers on top of the engine's job
// lifecycle (Queued → Running → Done / Cancelled / Failed) durable string
// job IDs, labels, spans, logs and the wire mapping of that lifecycle,
// snapshot ingestion for evolving graphs while jobs run, a per-job event
// stream (lifecycle transitions plus per-iteration progress), and a
// bounded history ring of compacted terminal jobs.
//
// Admission is the engine's, as Algorithm 3 has it: the service passes
// Config.MaxInFlight and Spec.Priority with each submission, and the engine
// admits queued jobs at round boundaries, highest priority first. The
// service keeps no queue and runs no goroutine per job: every transition
// reaches it as a callback on the engine's round loop.
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
	"slices"
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
	// StateQueued: accepted, waiting in the engine's admission queue.
	StateQueued = api.JobQueued
	// StateRunning: admitted by the engine and being iterated.
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
	// MaxInFlight caps the jobs the engine runs at once; further
	// submissions wait in the engine's admission queue (highest priority
	// first, FIFO within a priority) and are admitted at a round boundary
	// once a running job retires. Zero means unlimited — the engine batches
	// jobs beyond the worker count per §3.2.3, so unlimited is safe, just
	// unbounded in memory.
	MaxInFlight int
	// DefaultTimeout applies to submissions without an explicit timeout.
	// Zero means no deadline.
	DefaultTimeout time.Duration
	// RetainTerminal caps the terminal jobs kept with full state (results
	// included). Beyond it the oldest terminal jobs are compacted: the
	// engine releases their results and their status summaries move to a
	// history ring, so listings paginate history instead of losing it. Zero
	// keeps every terminal job forever (the library default; long-lived
	// services should set a cap).
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
	// submission — queue wait included; on expiry the engine retires the
	// job at its next round boundary and it fails with
	// context.DeadlineExceeded.
	Timeout time.Duration
	// Arrival, when non-nil, binds the job to the newest snapshot not
	// younger than *Arrival; nil binds to the latest snapshot at submission.
	Arrival *int64
	// Labels are free-form annotations echoed back in the job's status.
	Labels map[string]string
	// Priority orders the engine's admission queue when MaxInFlight jobs
	// run: higher-priority submissions are admitted first, FIFO within a
	// priority. Zero is the default.
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

	mu      sync.Mutex
	started bool
	stopped bool
	runErr  error // sticky: why the round loop died, if it failed
	nextID  int
	// jobs holds every job not yet compacted, byEngine the same jobs by
	// engine job ID, so that the engine's updates resolve to them.
	jobs     map[string]*Job
	byEngine map[int]*Job
	// retained lists the terminal jobs still holding full state, oldest
	// retirement first (only with RetainTerminal set).
	retained []*Job
	// history is the ring of compacted terminal job summaries, oldest
	// first; evicted counts entries dropped off the ring per state, so
	// job-count metrics stay monotone after eviction.
	history []histEntry
	evicted map[State]int
	stop    context.CancelFunc
	// unobserve unregisters the service's System observers once the round
	// loop has exited, so a dead Service is not kept alive (or called into)
	// by the engine or the ingest path.
	unobserve func()
	serveErr  chan error
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
	}
	if s.cfg.RetainTerminal > 0 && s.cfg.HistoryLimit <= 0 {
		s.cfg.HistoryLimit = 256
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.obs = newServiceObs()
	stopUpdates := sys.OnJobProgress(s.onUpdate)
	stopIngest := sys.OnIngestEvent(s.onIngestEvent)
	s.unobserve = func() {
		stopUpdates()
		stopIngest()
	}
	return s
}

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
			// Surface the cause: further submissions fail with it, and the
			// accepted jobs end with it once a loop drives the engine.
			s.mu.Lock()
			if !s.stopped {
				s.stopped = true
				s.runErr = err
			}
			s.endJobsLocked(err)
			s.mu.Unlock()
		} else {
			s.unobserve()
		}
		s.serveErr <- err
	}()
	return nil
}

// Stop gracefully shuts the service down: no further submissions are
// accepted, every job not yet terminal fails with ErrStopped — the engine
// retires them at its last round boundary — and the round loop exits. Stop
// returns once the loop has exited, or with ctx's error if ctx expires
// first (the loop then lands in the background).
func (s *Service) Stop(ctx context.Context) error {
	s.mu.Lock()
	if !s.started || s.stopped {
		s.stopped = true
		s.mu.Unlock()
		s.unobserve()
		return nil
	}
	s.stopped = true
	s.endJobsLocked(ErrStopped)
	stop := s.stop
	s.mu.Unlock()

	stop()
	select {
	case err := <-s.serveErr:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// endJobsLocked ends every job's context with cause, so the engine retires
// the jobs not yet terminal at its next boundary.
func (s *Service) endJobsLocked(cause error) {
	for _, j := range s.jobs {
		j.cancel(cause)
	}
}

// Submit accepts a job: the engine queues it, highest priority first and
// FIFO within a priority, and admits it at a round boundary while fewer
// than MaxInFlight jobs run. The returned handle is valid for the lifetime
// of the service.
func (s *Service) Submit(spec Spec) (*Job, error) {
	if spec.Program == nil {
		return nil, fmt.Errorf("server: submit: nil program")
	}
	if spec.Timeout == 0 {
		spec.Timeout = s.cfg.DefaultTimeout
	}
	// The stored labels must not alias the submitter's map.
	spec.Labels = maps.Clone(spec.Labels)
	// The engine's updates for the job resolve through byEngine, so s.mu is
	// held until the job is registered there.
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return nil, fmt.Errorf("server: submit before Start")
	}
	if s.stopped {
		if s.runErr != nil {
			return nil, s.runErr
		}
		return nil, ErrStopped
	}
	j := &Job{
		id:        fmt.Sprintf("job-%d", s.nextID),
		seq:       s.nextID,
		name:      spec.Program.Name(),
		spec:      spec,
		submitted: time.Now(),
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j.cancel = cancel
	if spec.Timeout > 0 {
		// The deadline clock starts now, so time spent queued counts.
		var stopTimer context.CancelFunc
		ctx, stopTimer = context.WithTimeout(ctx, spec.Timeout)
		j.cancel = func(cause error) {
			cancel(cause)
			stopTimer()
		}
	}
	// The submit span roots the job's tree (under the caller's trace when
	// one arrived); it stays open until the job retires, so its wall edges
	// bound the job's full service-side lifetime. The queue-wait child ends
	// at the engine's admission — or at retirement, for jobs never admitted.
	tracer := s.sys.SpanTracer()
	j.rootSpan = tracer.StartSpan(spec.Span, "job.submit") //cgraph:spanend ended by retired when the job retires
	j.rootSpan.SetJob(j.id)
	j.rootSpan.Attr(span.Str("algo", j.name), span.Int("priority", int64(spec.Priority)))
	j.queueSpan = tracer.StartSpan(j.rootSpan.Context(), "job.queue_wait") //cgraph:spanend ended by admitted, or by retired for jobs never admitted
	j.queueSpan.SetJob(j.id)
	opts := []cgraph.JobOption{
		cgraph.WithContext(ctx),
		// The engine parents its per-round spans under the job's root, so
		// the tree reads http.request → job.submit → job.round regardless
		// of transport.
		cgraph.WithSpan(j.rootSpan.Context(), j.id),
		cgraph.WithAdmission(spec.Priority, s.cfg.MaxInFlight),
	}
	if spec.Arrival != nil {
		opts = append(opts, cgraph.AtTimestamp(*spec.Arrival))
	}
	h, err := s.sys.Submit(spec.Program, opts...)
	if err != nil {
		j.cancel(nil)
		j.queueSpan.End()
		j.rootSpan.Attr(span.Str("error", err.Error()))
		j.rootSpan.End()
		return nil, err
	}
	j.h = h
	s.nextID++
	s.jobs[j.id] = j
	s.byEngine[h.ID()] = j
	s.events.create(j.id)
	s.events.publish(j.id, api.Event{Type: api.EventState, State: StateQueued})
	return j, nil
}

// onUpdate receives every update the System reports for a job — on the
// engine's round loop, or in the Cancel call of a job retired while queued
// — before the job's handle takes it. It does O(1) work.
func (s *Service) onUpdate(u cgraph.JobUpdate) {
	switch {
	case u.State.Terminal():
		s.retired(u)
	case u.Iteration == 0:
		s.admitted(u)
	default:
		s.progressed(u)
	}
}

// record resolves an engine job ID; nil for a job submitted directly on
// the System, outside this service.
func (s *Service) record(engineID int) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byEngine[engineID]
}

// admitted stamps the engine's admission of a job: the end of its queue
// wait.
func (s *Service) admitted(u cgraph.JobUpdate) {
	j := s.record(u.JobID)
	if j == nil {
		return
	}
	now := time.Now()
	j.mu.Lock()
	j.started = now
	j.mu.Unlock()
	j.queueSpan.End()
	wait := now.Sub(j.submitted)
	s.obs.queueWait.Observe(wait.Seconds())
	s.log.Info("job admitted",
		"job", j.id,
		"engine_id", u.JobID,
		"algo", j.name,
		"priority", j.spec.Priority,
		"queue_wait_ms", durationMS(wait),
		"request_id", j.spec.RequestID,
		"trace_id", j.TraceID())
	s.events.publish(j.id, api.Event{Type: api.EventState, State: StateRunning})
}

// progressed refreshes the job's live counters and feeds the event stream,
// so watchers observe progress without polling.
func (s *Service) progressed(u cgraph.JobUpdate) {
	j := s.record(u.JobID)
	if j == nil {
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

// retired closes a job's span tree and logs its retirement, then
// publishes its terminal event and applies retention in one critical
// section under s.mu: a reader that sees this job terminal also sees the
// job it pushes out of retention compacted, and a job is compacted only
// after its own terminal event is in its stream.
func (s *Service) retired(u cgraph.JobUpdate) {
	j := s.record(u.JobID)
	if j == nil {
		return
	}
	now := time.Now()
	state := stateOf(u.State, u.Err)
	j.mu.Lock()
	j.finished = now
	started, iters := j.started, j.iterations
	j.mu.Unlock()
	// Releases a deadline's timer; the engine no longer reads the context.
	j.cancel(nil)
	var exec time.Duration
	if !started.IsZero() {
		exec = now.Sub(started)
		s.obs.exec.With(j.name).Observe(exec.Seconds())
	}
	// The queue-wait span (a no-op once the job was admitted), an instant
	// retirement marker, then the root span with the terminal state.
	j.queueSpan.End()
	retire := span.Data{
		Trace:     j.rootSpan.TraceID(),
		Parent:    j.rootSpan.Context().Span,
		Name:      "job.retire",
		Job:       j.id,
		StartWall: now,
		EndWall:   now,
		Attrs:     []span.Attr{span.Str("state", string(state))},
	}
	ev := api.Event{Type: api.EventState, State: state, Iteration: iters}
	logAttrs := []any{
		"job", j.id,
		"algo", j.name,
		"state", string(state),
		"iterations", iters,
		"exec_ms", durationMS(exec),
		"request_id", j.spec.RequestID,
		"trace_id", j.TraceID(),
	}
	if state != StateDone {
		ev.Error = apiError(u.Err)
		if u.Err != nil {
			retire.Attrs = append(retire.Attrs, span.Str("error", u.Err.Error()))
			logAttrs = append(logAttrs, "error", u.Err.Error())
		}
	}
	s.sys.SpanTracer().Record(retire)
	j.rootSpan.Attr(span.Str("state", string(state)), span.Int("iterations", int64(iters)))
	j.rootSpan.End()
	s.log.Info("job retired", logAttrs...)
	s.mu.Lock()
	s.events.publish(j.id, ev)
	s.retainLocked(j)
	s.mu.Unlock()
}

// retainLocked enforces Config.RetainTerminal for a job that just retired:
// the oldest retained terminal job beyond the cap is compacted — the
// engine releases its results, its event stream goes, and its status
// summary moves to the bounded history ring — so listings keep paginating
// it while resident memory stays bounded. The caller holds s.mu. Reading
// the compacted job's handle can wait only for that job's own retirement
// to reach its handle, and that retirement has left this critical section
// already.
func (s *Service) retainLocked(j *Job) {
	if s.cfg.RetainTerminal <= 0 {
		return
	}
	s.retained = append(s.retained, j)
	if len(s.retained) <= s.cfg.RetainTerminal {
		return
	}
	old := s.retained[0]
	s.retained[0] = nil
	s.retained = s.retained[1:]
	st := old.Status()
	st.Released = true
	delete(s.jobs, old.id)
	delete(s.byEngine, old.h.ID())
	s.events.remove(old.id)
	s.history = append(s.history, histEntry{st: st, engineID: old.h.ID()})
	if len(s.history) > s.cfg.HistoryLimit {
		// Evicted summaries leave the listing but stay counted, so
		// job-state metrics never run backwards.
		s.evicted[s.history[0].st.State]++
		s.history[0] = histEntry{}
		s.history = s.history[1:]
	}
	old.h.Release()
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
	_, jobs, _ := s.snapshotJobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// snapshotJobs copies the history ring, the live job handles (in
// submission order), and the eviction counters under one lock hold, so a
// concurrent compaction cannot surface the same job in both halves or in
// neither.
func (s *Service) snapshotJobs() (history []api.JobStatus, live []*Job, evicted map[State]int) {
	s.mu.Lock()
	history = make([]api.JobStatus, len(s.history))
	for i, h := range s.history {
		history[i] = h.st
	}
	live = make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	evicted = maps.Clone(s.evicted)
	s.mu.Unlock()
	slices.SortFunc(live, func(a, b *Job) int { return a.seq - b.seq })
	return history, live, evicted
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
	defer s.mu.Unlock()
	byEngine := make(map[int]string, len(s.byEngine)+len(s.history))
	for _, h := range s.history {
		byEngine[h.engineID] = h.st.ID
	}
	for id, j := range s.byEngine {
		byEngine[id] = j.id
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

// Job is the service's record of one submitted job. Its state, Done, Err
// and Results are the engine's, read through the job's cgraph handle; the
// record keeps what only the service knows: the service ID, the spec, the
// spans, the timestamps and the live counters, and maps the engine's
// lifecycle onto the wire's.
type Job struct {
	id   string
	seq  int
	name string
	spec Spec
	h    *cgraph.Job
	// cancel ends the job's context: with ErrStopped (or the loop's error)
	// so that the engine retires the job, or with nil once it retired,
	// which releases a deadline's timer.
	cancel    context.CancelCauseFunc
	submitted time.Time

	// rootSpan ("job.submit") spans the job's full service-side lifetime;
	// queueSpan ("job.queue_wait") its wait for admission. Both are
	// assigned once at submission and never reassigned, so they are read
	// without j.mu (the Span type has its own lock).
	rootSpan  *span.Span
	queueSpan *span.Span

	mu         sync.Mutex
	iterations int
	edges      int64
	started    time.Time
	finished   time.Time
}

// stateOf maps the engine's lifecycle onto the wire's: a job retired by
// Cancel is cancelled, and one whose context ended — a deadline, or the
// service stopping — failed.
func stateOf(st cgraph.JobState, err error) State {
	switch st {
	case cgraph.JobQueued:
		return StateQueued
	case cgraph.JobRunning:
		return StateRunning
	case cgraph.JobDone:
		return StateDone
	case cgraph.JobCancelled:
		if errors.Is(err, cgraph.ErrCancelled) || errors.Is(err, context.Canceled) {
			return StateCancelled
		}
	}
	return StateFailed
}

// TraceID returns the job's trace ID in wire form (32 lowercase hex).
func (j *Job) TraceID() string { return j.rootSpan.TraceID().String() }

// ID returns the service-assigned job ID.
func (j *Job) ID() string { return j.id }

// Name returns the program name.
func (j *Job) Name() string { return j.name }

// state reads the engine's state and, once terminal, its error.
func (j *Job) state() (cgraph.JobState, error) {
	st := j.h.State()
	if !st.Terminal() {
		return st, nil
	}
	return st, j.h.Err()
}

// State returns the job's current lifecycle state.
func (j *Job) State() State { return stateOf(j.state()) }

// Err reports why the job terminated; nil before termination and after a
// clean convergence.
func (j *Job) Err() error { return j.h.Err() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.h.Done() }

// Wait blocks until the job reaches a terminal state or ctx expires; on a
// terminal state it returns Err.
func (j *Job) Wait(ctx context.Context) error { return j.h.Wait(ctx) }

// Cancel retires the job. Queued jobs cancel immediately; running jobs at
// the engine's next round boundary.
func (j *Job) Cancel() error {
	if err := j.h.Cancel(); err != nil {
		return fmt.Errorf("server: cancel: job %s already %s", j.id, j.State())
	}
	return nil
}

// Results returns the converged per-vertex values, the engine's own copy,
// which callers must not modify; an error before the job is done and once
// it is compacted.
func (j *Job) Results() ([]float64, error) {
	if st := j.State(); st != StateDone {
		return nil, fmt.Errorf("server: job %s is %s, results unavailable", j.id, st)
	}
	return j.h.Results()
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
	engState, err := j.state()
	m := j.h.Metrics()
	st := Status{
		ID:   j.id,
		Algo: j.name,
		// Cloned so a caller mutating the snapshot (in-process clients
		// skip the JSON copy HTTP clients get) cannot alter the job.
		Labels:    maps.Clone(j.spec.Labels),
		State:     stateOf(engState, err),
		Priority:  j.spec.Priority,
		Submitted: j.submitted,
		Error:     apiError(err),
		TraceID:   j.TraceID(),
	}
	j.mu.Lock()
	st.Iterations, st.EdgesProcessed = j.iterations, j.edges
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	j.mu.Unlock()
	if m != nil {
		st.Iterations = m.Iterations
		st.EdgesProcessed = m.EdgesProcessed
		st.SimulatedAccessUS = m.SimulatedAccessUS
		st.SimulatedComputeUS = m.SimulatedComputeUS
	}
	return st
}
