// Package core is the CGraph engine: the data-centric Load-Trigger-Pushing
// execution model of §3 driving concurrent iterative graph-processing jobs
// over one shared graph.
//
// Execution proceeds in rounds. A round snapshots, per job, the set of
// partitions its active vertices live in; the union is ordered by the Eq. 1
// scheduler and each partition is loaded into the (simulated) cache exactly
// once. Loading a partition triggers every job that needs it, in batches of
// Workers jobs when more jobs than workers share it (§3.2.3), with a batch's
// straggler split across idle workers (Fig. 6). A job that exhausts its
// round-set pushes (Algorithm 2), advances to its next iteration, and
// re-registers partitions for the next round — so jobs run in different
// iterations of their own algorithms while sharing every load.
//
// The two clocks see a round differently. Every (job, partition) sweep of a
// round is independent of the others — a round is one BSP superstep — so on
// the wall clock the round is one task set of whole sweeps on the
// work-stealing pool, followed by one task set of the closing jobs' pushes.
// The batches and the straggler split are not dispatched; they are priced:
// the virtual clock replays the plan afterwards, unit by unit, with each
// straggler's sweep reporting the stats of the ranges it would have been cut
// into, so the paper's figures do not depend on how the wall clock ran it.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cgraph/internal/exec"
	"cgraph/internal/graph"
	"cgraph/internal/memsim"
	"cgraph/internal/metrics"
	"cgraph/internal/pool"
	"cgraph/internal/sched"
	"cgraph/internal/span"
	"cgraph/internal/storage"
	"cgraph/internal/trace"
	"cgraph/model"
)

// ErrCancelled is the Err of a JobEvent for a job retired by Cancel (as
// opposed to one whose context expired, which carries the context's error).
var ErrCancelled = errors.New("core: job cancelled")

// JobState is the engine-side lifecycle of one submitted job.
type JobState uint8

const (
	// JobQueued: submitted, awaiting admission at the next round boundary.
	JobQueued JobState = iota
	// JobRunning: admitted into the round loop.
	JobRunning
	// JobDone: converged; results are available.
	JobDone
	// JobCancelled: retired by Cancel or an expired job context.
	JobCancelled
	// JobFailed: retired by the engine (exceeded the MaxRounds budget).
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobCancelled:
		return "cancelled"
	default:
		return "failed"
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s >= JobDone }

// JobEvent reports a job reaching a terminal state. Events fire from the
// goroutine driving Run or Serve, outside engine locks, in retirement order.
type JobEvent struct {
	JobID int
	State JobState
	// Metrics is populated for JobDone events.
	Metrics *metrics.JobMetrics
	// Err explains JobCancelled (ErrCancelled or the job context's error)
	// and JobFailed events; it is nil for JobDone.
	Err error
}

// JobProgress reports one completed job iteration: the running totals as
// of the iteration's closing push. Progress fires from the goroutine
// driving Run or Serve, outside engine locks, strictly before the job's
// terminal JobEvent.
type JobProgress struct {
	JobID int
	// Iteration is the number of completed iterations, 1-based.
	Iteration int
	// EdgesProcessed is the job's running edge total.
	EdgesProcessed int64
	// VirtualTimeUS is the engine's virtual clock at the iteration close.
	VirtualTimeUS float64
}

// Config tunes the engine.
type Config struct {
	// Workers is the number of cores (default runtime.GOMAXPROCS(0)).
	Workers int
	// Hier is the simulated memory hierarchy (default memsim.Unlimited,
	// i.e. library mode without capacity pressure).
	Hier *memsim.Hierarchy
	// Scheduler selects the partition-load order policy: the zero value is
	// sched.Priority, the Eq. 1 order; sched.Static is the Fig. 8 ablation.
	Scheduler sched.Kind
	// Balance is the granularity of the Fig. 6 straggler split as the
	// virtual clock prices it: a trigger batch's straggler counts as ranges
	// of roughly totalWeight/(Workers·Balance) scatter edges each (default
	// 4). A value at or below 1/Workers prices every sweep as one whole
	// task on one core, which turns the split off. On the wall clock every
	// sweep runs whole whatever the value.
	Balance float64
	// MaxRounds bounds the total rounds of a Run, and the per-job
	// iteration budget under Serve, as a safety net (default 1<<20).
	MaxRounds int
	// Label overrides the report's system name (default "CGraph").
	Label string
	// OnJobEvent, when set, is invoked for every job that reaches a
	// terminal state (done, cancelled, failed). It is called from the
	// Run/Serve goroutine with no engine locks held; implementations may
	// call back into the engine but must not block for long, since the
	// round loop waits on them.
	OnJobEvent func(JobEvent)
	// OnJobProgress, when set, is invoked after every completed job
	// iteration (the terminal JobEvent follows the final one). Same
	// calling discipline as OnJobEvent: round-loop goroutine, no engine
	// locks held, must not block for long.
	OnJobProgress func(JobProgress)
	// TraceDepth bounds the round-trace ring and the per-job timeline
	// length (0 disables tracing entirely; the round loop then skips all
	// per-round trace bookkeeping).
	TraceDepth int
	// Tracer, when set, receives distributed spans: one "job.round" span
	// per (job, round) and sampled "pool.task" spans, all parented to the
	// submission's span context. Nil disables span recording entirely.
	Tracer *span.Tracer
	// TaskSampleEvery records a "pool.task" span for one in every N
	// executor tasks of span-carrying jobs (0 defaults to 64; negative
	// disables task spans while keeping round spans and stolen counts).
	TaskSampleEvery int
}

type runJob struct {
	*exec.Job
	// remaining maps the UID of each partition version still to be loaded
	// this round to its index within the job's own snapshot.
	remaining map[int64]int
	m         *metrics.JobMetrics
	// ctx carries the job's cancellation/deadline; checked at round
	// boundaries (never mid-round).
	ctx context.Context
	// snapSeq is the series index of the snapshot the job bound to; the
	// engine holds a store reference under it until the job is terminal,
	// so retention GC never evicts a snapshot out from under a bound job.
	snapSeq int
	// span is the submission's span context: the parent under which the
	// engine records this job's "job.round" and "pool.task" spans. A zero
	// context (or a nil Config.Tracer) disables span recording for the job.
	span span.Context
	// spanJob is the service-level job ID the spans are attributed to.
	spanJob string
	// roundTasks counts executor tasks constructed for the job this round
	// (loop-goroutine only); roundStolen counts those that ran on a worker
	// other than their seed, incremented from pool workers via Task.Trace.
	roundTasks  int64
	roundStolen atomic.Int64
	// weight sums the frontier weights of the job's sweeps this round, the
	// weight of its push task; finish is that task's body (FinishIteration,
	// bound once), and push the summary it leaves for the price step.
	weight int64
	finish func(worker int)
	push   exec.PushSummary
}

func (rj *runJob) finishIteration(int) { rj.push = rj.FinishIteration() }

// Engine executes CGP jobs with the LTP model. It runs in two modes: the
// batch Run, which drains every submitted job and returns, and the resident
// Serve, which processes rounds while any job is active, idles when the
// queue is empty, and admits/retires jobs at round boundaries until its
// context is cancelled.
type Engine struct {
	cfg   Config
	store *storage.SnapshotStore
	sched *sched.Scheduler

	// mu guards pending, finished, state, cancelReq, nextID, snapObs,
	// lastSched, and the released counters — the fields shared between the
	// round loop and concurrent Submit / Cancel / Results / Stats callers.
	// jobs and the clocks below are touched only by the single goroutine
	// driving Run or Serve.
	mu        sync.Mutex
	pending   []*runJob
	nextID    int
	state     map[int]JobState
	cancelReq map[int]bool
	// snapObs queues snapshots added while the loop runs; the loop drains
	// it — every round, and before parking when idle — so the scheduler
	// (single-goroutine) can refit θ.
	snapObs []*graph.PGraph
	// lastSched summarizes the plan of the most recent round for the
	// control plane.
	lastSched SchedInfo
	// released compacts the state entries of Release-d jobs into counters
	// so ServeStats stays accurate while the state map stays bounded.
	releasedDone, releasedCancelled, releasedFailed int

	// wake nudges an idle Serve loop after Submit, Cancel, or AddSnapshot.
	wake chan struct{}
	// driving excludes concurrent Run/Serve calls.
	driving atomic.Bool

	// rounds and nowBits mirror the loop-private round counter and virtual
	// clock for lock-free Stats reads.
	rounds  atomic.Int64
	nowBits atomic.Uint64

	// pool is the work-stealing executor that runs every round's sweep and
	// push task sets.
	pool *pool.Pool
	// Cumulative executor counters (atomic mirrors for lock-free reads),
	// plus their loop-private per-round accumulators (rt*).
	execTasks   atomic.Int64
	execSteals  atomic.Int64
	execStolen  atomic.Int64
	execSkipped atomic.Int64
	imbBits     atomic.Uint64
	rtTasks     int64
	rtSteals    int64
	rtStolen    int64
	rtSkipped   int64
	rtImb       imbalance
	// taskSeq numbers span-eligible executor tasks across rounds for the
	// 1-in-N "pool.task" sampling; loop-goroutine only (sampling is decided
	// at task construction, not execution).
	taskSeq int64

	jobs []*runJob

	// Round-path buffers (loop-goroutine only), reused so that a
	// steady-state round allocates nothing for them. build fills
	// sweeps[:nsweeps] with the round's sweeps in plan order, units with the
	// loaded units, and pushes with the jobs closing an iteration (the jobs
	// from pushes[idle:] had nothing to do this round); scs[w] is pool worker
	// w's scratch. build sizes every scratch for the round's largest
	// frontier, so that the bytes a run allocates are a function of the
	// (deterministic) task lists alone, not of which worker ran what.
	sweeps  []*sweepTask
	nsweeps int
	units   []unitRec
	pushes  []*runJob
	idle    int
	scs     []exec.Scratch
	tasks   []pool.Task

	now      float64
	busyCore float64
	// cPrev holds last round's C(U) keyed by partition-version UID, so
	// snapshots with any partition count feed the scheduler correctly.
	cPrev map[int64]float64

	// Clock attribution (diagnostics): how much of the virtual makespan
	// went to structure loads, trigger phases, and pushes.
	ClockStruct  float64
	ClockTrigger float64
	ClockPush    float64

	// tracer records per-round and per-job traces when Config.TraceDepth
	// is set; nil when tracing is disabled. The recorder is internally
	// locked, so control-plane reads race-freely with the round loop.
	tracer *trace.Recorder
	// roundHist observes the wall-clock duration of every round (always
	// on: two clock reads and one bucket increment per round).
	roundHist *metrics.Histogram

	// prefetchCredit is the trigger time of the previous partition that
	// the loader can hide the next structure load behind: the common-order
	// stream of the LTP model makes the next partition known in advance,
	// so it is fetched into the reserve buffer (the b term of the Pg
	// formula) while cores process the current one.
	prefetchCredit float64

	finished []*runJob
}

// New builds an engine over the snapshot store. Defaults are applied for
// zero-valued Config fields.
func New(cfg Config, store *storage.SnapshotStore) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Hier == nil {
		cfg.Hier = memsim.Unlimited()
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 1 << 20
	}
	if cfg.Balance <= 0 {
		cfg.Balance = 4
	}
	if cfg.Label == "" {
		cfg.Label = "CGraph"
	}
	if cfg.TaskSampleEvery == 0 {
		cfg.TaskSampleEvery = 64
	}
	e := &Engine{
		cfg:       cfg,
		store:     store,
		sched:     sched.New(cfg.Scheduler),
		cPrev:     make(map[int64]float64),
		state:     make(map[int]JobState),
		cancelReq: make(map[int]bool),
		wake:      make(chan struct{}, 1),
		tracer:    trace.New(cfg.TraceDepth),
		roundHist: metrics.NewHistogram(metrics.LatencyBuckets()),
		pool:      pool.New(cfg.Workers),
		scs:       make([]exec.Scratch, cfg.Workers),
	}
	e.imbBits.Store(math.Float64bits(1))
	// Spans carry virtual-time edges alongside their wall stamps; the
	// tracer reads the engine clock through its atomic mirror, so the
	// closure is safe from any goroutine.
	cfg.Tracer.SetVirtualClock(e.Now)
	for _, snap := range store.Snapshots() {
		e.sched.ObserveSnapshot(snap.PG)
	}
	e.lastSched = SchedInfo{Policy: cfg.Scheduler.String(), Theta: e.sched.Theta(), ThetaRefits: e.sched.Refits()}
	return e
}

// NewSingle wraps a plain partitioned graph as a one-snapshot store.
func NewSingle(cfg Config, pg *graph.PGraph) *Engine {
	return New(cfg, storage.NewSnapshotStore(pg, 0))
}

// Submit registers a job. arrivalTS selects the snapshot: the job binds to
// the newest snapshot with timestamp ≤ arrivalTS (§3.2.1). Submit may be
// called before Run or concurrently while Run executes; runtime submissions
// are admitted at the next round boundary (Algorithm 3 "allows to add new
// jobs into SJobs at runtime"). It returns the job ID.
func (e *Engine) Submit(prog model.Program, arrivalTS int64) int {
	return e.SubmitCtx(context.Background(), prog, arrivalTS)
}

// SubmitCtx is Submit with a job-scoped context: when ctx is cancelled or
// its deadline passes, the job is retired at the next round boundary with a
// JobCancelled event carrying ctx's error.
func (e *Engine) SubmitCtx(ctx context.Context, prog model.Program, arrivalTS int64) int {
	return e.SubmitWith(ctx, prog, SubmitOpts{Arrival: arrivalTS})
}

// SubmitOpts carries the optional envelope of a submission.
type SubmitOpts struct {
	// Arrival selects the snapshot: the job binds to the newest snapshot
	// with timestamp ≤ Arrival.
	Arrival int64
	// Span is the parent span context for the job's engine-side spans; a
	// zero context leaves span recording off for this job.
	Span span.Context
	// SpanJob is the service-level job ID span records are attributed to.
	SpanJob string
}

// SubmitWith is SubmitCtx with the full submission envelope. The job takes
// a reference on the snapshot it binds to, released when it is retired, so
// snapshot retention GC cannot evict the version under a live job.
func (e *Engine) SubmitWith(ctx context.Context, prog model.Program, opts SubmitOpts) int {
	e.mu.Lock()
	id := e.nextID
	e.nextID++
	snap := e.store.Acquire(opts.Arrival)
	j := exec.NewJob(id, prog, snap.PG)
	rj := &runJob{
		Job:       j,
		remaining: make(map[int64]int),
		m:         &metrics.JobMetrics{JobID: id, Name: prog.Name()},
		ctx:       ctx,
		snapSeq:   snap.Seq,
		span:      opts.Span,
		spanJob:   opts.SpanJob,
	}
	rj.finish = rj.finishIteration
	e.pending = append(e.pending, rj)
	e.state[id] = JobQueued
	e.mu.Unlock()
	e.signalWake()
	return id
}

// Cancel requests that the job be retired at the next round boundary. It is
// an error to cancel an unknown or already-terminal job.
func (e *Engine) Cancel(jobID int) error {
	e.mu.Lock()
	st, ok := e.state[jobID]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("core: cancel: unknown job %d", jobID)
	}
	if st.Terminal() {
		e.mu.Unlock()
		return fmt.Errorf("core: cancel: job %d already %s", jobID, st)
	}
	e.cancelReq[jobID] = true
	e.mu.Unlock()
	e.signalWake()
	return nil
}

func (e *Engine) signalWake() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

func (e *Engine) admitPending() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rj := range e.pending {
		rj.SubmitTime = e.now
		rj.m.SubmitAt = e.now
		e.jobs = append(e.jobs, rj)
		e.state[rj.ID] = JobRunning
	}
	e.pending = e.pending[:0]
}

// reapRetired removes cancelled, context-expired, and (under Serve)
// over-budget jobs from the pending queue and the round loop, firing their
// terminal events. Called only at round boundaries, so a reaped job is
// never mid-round.
func (e *Engine) reapRetired(enforceBudget bool) {
	var events []JobEvent
	e.mu.Lock()
	keepPending := e.pending[:0]
	for _, rj := range e.pending {
		if ev, dead := e.retirementLocked(rj, false); dead {
			events = append(events, ev)
			continue
		}
		keepPending = append(keepPending, rj)
	}
	e.pending = keepPending
	keepJobs := e.jobs[:0]
	for _, rj := range e.jobs {
		if ev, dead := e.retirementLocked(rj, enforceBudget); dead {
			events = append(events, ev)
			continue
		}
		keepJobs = append(keepJobs, rj)
	}
	e.jobs = keepJobs
	e.mu.Unlock()
	for _, ev := range events {
		if e.tracer != nil {
			e.tracer.Retire(ev.JobID, ev.State.String())
		}
		e.fireEvent(ev)
	}
}

func (e *Engine) retirementLocked(rj *runJob, enforceBudget bool) (JobEvent, bool) {
	var err error
	state := JobCancelled
	switch {
	case e.cancelReq[rj.ID]:
		err = ErrCancelled
	case rj.ctx != nil && rj.ctx.Err() != nil:
		err = rj.ctx.Err()
	case enforceBudget && rj.Iterations >= e.cfg.MaxRounds:
		state = JobFailed
		err = fmt.Errorf("core: job %d exceeded %d iterations without convergence", rj.ID, e.cfg.MaxRounds)
	default:
		return JobEvent{}, false
	}
	delete(e.cancelReq, rj.ID)
	e.state[rj.ID] = state
	e.store.Release(rj.snapSeq)
	return JobEvent{JobID: rj.ID, State: state, Err: err}, true
}

func (e *Engine) fireEvent(ev JobEvent) {
	if e.cfg.OnJobEvent != nil {
		e.cfg.OnJobEvent(ev)
	}
}

func (e *Engine) acquireLoop(mode string) error {
	if !e.driving.CompareAndSwap(false, true) {
		return fmt.Errorf("core: %s: engine round loop already active", mode)
	}
	return nil
}

// Run executes all submitted jobs to convergence and returns the report.
// Jobs cancelled (or context-expired) before convergence are retired
// between rounds and excluded from the report.
func (e *Engine) Run() (*metrics.RunReport, error) {
	if err := e.acquireLoop("run"); err != nil {
		return nil, err
	}
	defer e.driving.Store(false)
	wall := time.Now() //cgraph:wallclock RunReport.WallClock is real elapsed time, not virtual time
	rounds := 0
	for {
		e.reapRetired(false)
		e.admitPending()
		if len(e.jobs) == 0 {
			break
		}
		if rounds++; rounds > e.cfg.MaxRounds {
			return nil, fmt.Errorf("core: exceeded %d rounds without convergence", e.cfg.MaxRounds)
		}
		e.round()
	}
	rep := &metrics.RunReport{
		System:       e.cfg.Label,
		Workers:      e.cfg.Workers,
		Makespan:     e.now,
		BusyCoreTime: e.busyCore,
		Counters:     e.cfg.Hier.Counters(),
		WallClock:    time.Since(wall), //cgraph:wallclock wall stamp paired with the Run start above
	}
	e.mu.Lock()
	for _, rj := range e.finished {
		rep.Jobs = append(rep.Jobs, *rj.m)
	}
	e.mu.Unlock()
	return rep, nil
}

// Serve runs the engine as a resident service: it processes rounds while
// any job is active, parks on the wake channel when the queue drains, and
// admits newly submitted jobs at round boundaries. Cancel requests, expired
// job contexts, and jobs exceeding the MaxRounds iteration budget are
// retired between rounds. Serve returns nil when ctx is cancelled (a
// graceful stop: in-flight jobs stay resident and a later Run or Serve
// resumes them) and an error only on misuse.
func (e *Engine) Serve(ctx context.Context) error {
	if err := e.acquireLoop("serve"); err != nil {
		return err
	}
	defer e.driving.Store(false)
	for {
		e.reapRetired(true)
		e.admitPending()
		if ctx.Err() != nil {
			return nil
		}
		if len(e.jobs) == 0 {
			// No round will drain the snapshot observations while idle.
			e.drainSnapshotObservations()
			select {
			case <-ctx.Done():
				return nil
			case <-e.wake:
			}
			continue
		}
		e.round()
	}
}

// Results returns the converged per-vertex values of the given job once it
// has finished. It is safe to call while the engine serves.
func (e *Engine) Results(jobID int) ([]float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rj := range e.finished {
		if rj.ID == jobID {
			return rj.Job.Results(), nil
		}
	}
	if st, ok := e.state[jobID]; ok {
		return nil, fmt.Errorf("core: job %d is %s, results unavailable", jobID, st)
	}
	return nil, fmt.Errorf("core: job %d not finished, released, or unknown", jobID)
}

// Release frees a terminal job's engine-side state: for finished jobs the
// private table, activity bitsets, and result backing, and for every
// terminal job its lifecycle-map entry, which is compacted into aggregate
// counters so ServeStats stays accurate while the engine's memory stays
// bounded as jobs flow through a long-lived service. Released jobs drop out
// of later Run reports and report no per-job state; releasing an unfinished
// or unknown job is a no-op.
func (e *Engine) Release(jobID int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, rj := range e.finished {
		if rj.ID == jobID {
			e.finished = append(e.finished[:i], e.finished[i+1:]...)
			delete(e.state, jobID)
			e.releasedDone++
			return
		}
	}
	switch st, ok := e.state[jobID]; {
	case !ok:
	case st == JobCancelled:
		delete(e.state, jobID)
		e.releasedCancelled++
	case st == JobFailed:
		delete(e.state, jobID)
		e.releasedFailed++
	}
}

// JobState reports the engine-side lifecycle state of a submitted job.
func (e *Engine) JobState(jobID int) (JobState, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.state[jobID]
	return st, ok
}

// AddSnapshot appends a newer graph version to the snapshot store, safely
// with respect to a concurrent Serve loop; jobs submitted afterwards with a
// matching arrival timestamp bind to it. The scheduler observes the new
// version at the next round boundary (refitting θ if its degrees demand it);
// an idle Serve loop is woken to observe it at once, so the observation
// queue never pins a snapshot the store has already evicted.
func (e *Engine) AddSnapshot(pg *graph.PGraph, timestamp int64) error {
	e.mu.Lock()
	err := e.store.Add(pg, timestamp)
	if err == nil {
		e.snapObs = append(e.snapObs, pg)
	}
	e.mu.Unlock()
	if err == nil {
		e.signalWake()
	}
	return err
}

// Stats is a point-in-time snapshot of the engine's counters — jobs by
// lifecycle state and round-loop progress — populated under Serve and after
// batch runs alike.
type Stats struct {
	Queued    int
	Running   int
	Done      int
	Cancelled int
	Failed    int
	// Rounds is the number of LTP rounds processed so far.
	Rounds int64
	// VirtualTimeUS is the engine's virtual clock in simulated microseconds.
	VirtualTimeUS float64
}

// ServeStats reports current job-state counts and loop progress. Safe to
// call concurrently with Run or Serve. Released jobs stay counted in their
// terminal bucket.
func (e *Engine) ServeStats() Stats {
	s := Stats{
		Rounds:        e.rounds.Load(),
		VirtualTimeUS: math.Float64frombits(e.nowBits.Load()),
	}
	e.mu.Lock()
	s.Done += e.releasedDone
	s.Cancelled += e.releasedCancelled
	s.Failed += e.releasedFailed
	for _, st := range e.state {
		switch st {
		case JobQueued:
			s.Queued++
		case JobRunning:
			s.Running++
		case JobDone:
			s.Done++
		case JobCancelled:
			s.Cancelled++
		case JobFailed:
			s.Failed++
		}
	}
	e.mu.Unlock()
	return s
}

// Job returns the finished exec job (testing/inspection).
func (e *Engine) Job(jobID int) (*exec.Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rj := range e.finished {
		if rj.ID == jobID {
			return rj.Job, true
		}
	}
	return nil, false
}

// Now returns the engine's virtual clock in microseconds, as of the last
// round boundary. It reads the atomic mirror of the loop-private clock, so
// it is safe to call concurrently with Run or Serve.
func (e *Engine) Now() float64 { return math.Float64frombits(e.nowBits.Load()) }

// SchedGroup reports the plan of the last scheduled round.
type SchedGroup struct {
	// JobIDs lists the engine job IDs scheduled together (Job.ID values).
	JobIDs []int
	// Parts is the unit load order: each partition's index within its own
	// snapshot, parallel to UIDs.
	Parts []int
	// UIDs identifies the partition versions loaded, in load order.
	UIDs []int64
	// MakespanUS is how much the virtual clock advanced while the group's
	// units loaded and triggered.
	MakespanUS float64
}

// SchedInfo is a point-in-time snapshot of the scheduler's state: the
// policy, the current θ fit and how often it was refitted, and the
// group/load order chosen in the most recent round.
type SchedInfo struct {
	Policy      string
	Theta       float64
	ThetaRefits int
	// Round is the round the plan below was computed for (0 before any).
	Round  int64
	Groups []SchedGroup
}

// SchedInfo reports the scheduler's latest plan. Safe to call concurrently
// with Run or Serve: recordRound replaces lastSched wholesale and published
// plans are never mutated in place, so the shared slices are immutable.
func (e *Engine) SchedInfo() SchedInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastSched
}

// round is one pass of the LTP loop, in four steps. Plan the round's
// scheduling units — each a (snapshot, partition) version keyed by UID, so
// jobs bound to snapshots with any partition count coexist — in Eq. 1
// order. Build records, unit by unit, the sweep of every job the
// unit triggers, the Fig. 6 split each trigger batch would make, and the
// jobs whose round-set the unit exhausts. Execute runs the whole round on
// the pool as two task sets: every sweep, then every closing job's push.
// Price replays the record on the virtual clock — one load per unit, its
// batches, and each push where it closed — and fires the jobs' events.
func (e *Engine) round() {
	roundStart := time.Now() //cgraph:wallclock round wall-duration histogram measures real time per round
	virtStart := e.now
	e.drainSnapshotObservations()
	e.rtTasks, e.rtSteals, e.rtStolen, e.rtSkipped, e.rtImb = 0, 0, 0, 0, imbalance{}
	plan, byID, pre := e.planRound()
	e.execute(e.build(plan, byID))
	spans := e.price(plan)

	// Collect next-round C(U) statistics, keyed by partition version.
	still := e.jobs[:0]
	for _, rj := range e.jobs {
		if !rj.Done {
			still = append(still, rj)
		}
	}
	clear(e.jobs[len(still):])
	clear(e.cPrev)
	for _, rj := range still {
		rj.DrainDeltaStats(func(pid int, sum float64) {
			e.cPrev[rj.PG.Parts[pid].UID] += sum
		})
	}
	e.jobs = still
	e.execTasks.Add(e.rtTasks)
	e.execSteals.Add(e.rtSteals)
	e.execStolen.Add(e.rtStolen)
	e.execSkipped.Add(e.rtSkipped)
	e.imbBits.Store(math.Float64bits(e.rtImb.factor(e.cfg.Workers)))
	e.recordRound(roundStart, virtStart, plan, spans, pre)
	e.rounds.Add(1)
	e.nowBits.Store(math.Float64bits(e.now))
}

// planRound registers each job's active partitions as its round-set and
// plans their loads. pre snapshots each job's counters so the tracer can
// attribute this round's deltas; it is only populated when tracing is on.
func (e *Engine) planRound() (plan []sched.Group, byID map[int]*runJob, pre []jobPreRound) {
	foot := make([]sched.JobFootprint, 0, len(e.jobs))
	byID = make(map[int]*runJob, len(e.jobs))
	for _, rj := range e.jobs {
		byID[rj.ID] = rj
		clear(rj.remaining)
		jf := sched.JobFootprint{JobID: rj.ID}
		activeParts := rj.PT.ActiveParts()
		for _, pid := range activeParts {
			p := rj.PG.Parts[pid]
			rj.remaining[p.UID] = pid
			jf.Units = append(jf.Units, p)
			jf.Active = append(jf.Active, rj.PT.ActiveCount[pid])
		}
		// Converged regions: partitions with an empty frontier never
		// become scheduling units, let alone tasks.
		skipped := len(rj.PG.Parts) - len(activeParts)
		e.rtSkipped += int64(skipped)
		foot = append(foot, jf)
		rj.roundTasks, rj.weight = 0, 0
		rj.roundStolen.Store(0)
		if e.tracer != nil || e.cfg.Tracer != nil {
			pre = append(pre, jobPreRound{
				rj:      rj,
				parts:   len(rj.remaining),
				iters:   rj.Iterations,
				access:  rj.m.AccessTime,
				compute: rj.m.ComputeTime,
				skipped: skipped,
			})
		}
		// Jobs admitted with no active vertices (degenerate programs)
		// close an iteration at the end of the round.
	}
	return e.sched.Plan(foot, e.cPrev), byID, pre
}

// jobPreRound is a job's counter snapshot at round start, for trace deltas.
type jobPreRound struct {
	rj              *runJob
	parts, iters    int
	access, compute float64
	// skipped is the job's converged-partition count this round (frontier
	// empty, excluded before scheduling).
	skipped int
}

// recordRound builds the finished round's record once and feeds every
// read-out from it: the SchedInfo snapshot for the control plane (always),
// the wall-duration histogram (always), the trace ring (Config.TraceDepth),
// and one retro-recorded "job.round" span per span-carrying job
// (Config.Tracer). Each job's per-round deltas are computed here and nowhere
// else, so the trace entry and the span attributes cannot disagree. The
// spans share the round's wall edges (one start stamp, one duration) and
// virtual edges — the raw material of the per-job resource attribution the
// service computes from the span store.
func (e *Engine) recordRound(start time.Time, virtStart float64, plan []sched.Group, spans []float64, pre []jobPreRound) {
	info := SchedInfo{
		Policy:      e.cfg.Scheduler.String(),
		Theta:       e.sched.Theta(),
		ThetaRefits: e.sched.Refits(),
		Round:       e.rounds.Load() + 1,
	}
	for gi, g := range plan {
		sg := SchedGroup{JobIDs: g.Jobs, MakespanUS: spans[gi]}
		for _, u := range g.Units {
			sg.Parts = append(sg.Parts, u.Part.ID)
			sg.UIDs = append(sg.UIDs, u.Part.UID)
		}
		info.Groups = append(info.Groups, sg)
	}
	e.mu.Lock()
	e.lastSched = info
	e.mu.Unlock()
	wall := time.Since(start) //cgraph:wallclock wall stamp paired with the round start in round()
	e.roundHist.Observe(wall.Seconds())
	traced := e.tracer != nil
	if !traced && e.cfg.Tracer == nil {
		return
	}

	var rec trace.Round
	if traced {
		rec = trace.Round{
			Round:         info.Round,
			Start:         start,
			Wall:          wall,
			VirtualTimeUS: e.now,
			Policy:        info.Policy,
			Theta:         info.Theta,
			Tasks:         e.rtTasks,
			Steals:        e.rtSteals,
			Skipped:       e.rtSkipped,
		}
		for _, sg := range info.Groups {
			rec.Groups = append(rec.Groups, trace.Group{
				JobIDs:     sg.JobIDs,
				Units:      len(sg.Parts),
				MakespanUS: sg.MakespanUS,
			})
		}
	}
	// groupSpan maps a job to its group's makespan; built on the first
	// span-carrying job, so span-less rounds pay nothing for it.
	var groupSpan map[int]float64
	for _, p := range pre {
		rj := p.rj
		jr := trace.JobRound{
			JobID:         rj.ID,
			Round:         info.Round,
			Wall:          wall,
			Parts:         p.parts,
			Pushes:        rj.Iterations - p.iters,
			AccessUS:      rj.m.AccessTime - p.access,
			ComputeUS:     rj.m.ComputeTime - p.compute,
			VirtualTimeUS: e.now,
		}
		if traced {
			rec.Jobs = append(rec.Jobs, jr)
		}
		if e.cfg.Tracer == nil || !rj.span.Valid() {
			continue
		}
		if groupSpan == nil {
			groupSpan = make(map[int]float64, len(pre))
			for _, sg := range info.Groups {
				for _, id := range sg.JobIDs {
					groupSpan[id] = sg.MakespanUS
				}
			}
		}
		attrs := []span.Attr{
			span.Int("round", jr.Round),
			span.Int("parts", int64(jr.Parts)),
			span.Int("pushes", int64(jr.Pushes)),
			span.Float("access_us", jr.AccessUS),
			span.Float("compute_us", jr.ComputeUS),
			span.Int("tasks", rj.roundTasks),
			span.Int("stolen", rj.roundStolen.Load()),
			span.Int("skipped_parts", int64(p.skipped)),
		}
		if us, ok := groupSpan[rj.ID]; ok {
			attrs = append(attrs, span.Float("group_makespan_us", us))
		}
		e.cfg.Tracer.Record(span.Data{
			Trace:          rj.span.Trace,
			Parent:         rj.span.Span,
			Name:           "job.round",
			Job:            rj.spanJob,
			StartWall:      start,
			EndWall:        start.Add(wall),
			StartVirtualUS: virtStart,
			EndVirtualUS:   e.now,
			Attrs:          attrs,
		})
	}
	if traced {
		e.tracer.RecordRound(rec)
	}
}

// RoundTraces returns up to limit of the most recent round-trace records
// (oldest first), or nil when tracing is disabled.
func (e *Engine) RoundTraces(limit int) []trace.Round {
	if e.tracer == nil {
		return nil
	}
	return e.tracer.Rounds(limit)
}

// JobTrace returns the round-by-round timeline recorded for a job — live
// while it runs, retained after it retires — or false when tracing is
// disabled or the timeline has been evicted from the terminal ring.
func (e *Engine) JobTrace(jobID int) (trace.Timeline, bool) {
	if e.tracer == nil {
		return trace.Timeline{}, false
	}
	return e.tracer.Job(jobID)
}

// TraceDepth reports the configured trace ring depth (0 = disabled).
func (e *Engine) TraceDepth() int { return e.cfg.TraceDepth }

// RoundDurations returns the wall-clock round-duration histogram.
func (e *Engine) RoundDurations() metrics.HistogramSnapshot {
	return e.roundHist.Snapshot()
}

// drainSnapshotObservations feeds snapshots added since the last drain to
// the scheduler, on the loop goroutine, so θ refits for new versions.
func (e *Engine) drainSnapshotObservations() {
	e.mu.Lock()
	obs := e.snapObs
	e.snapObs = nil
	e.mu.Unlock()
	for _, pg := range obs {
		e.sched.ObserveSnapshot(pg)
	}
}

func structID(p *graph.Partition) memsim.ItemID {
	return memsim.ItemID{Kind: memsim.Struct, UID: p.UID, Job: -1}
}

func privateID(p *graph.Partition, jobID int) memsim.ItemID {
	return memsim.ItemID{Kind: memsim.Private, UID: p.UID, Job: int32(jobID)}
}

// sweepTask is one (job, partition) sweep of the round. It runs whole on
// the wall clock, on whichever pool worker takes it, into that worker's
// scratch. When cut > 0 it is its batch's straggler, and the sweep reports
// the Stats of the Fig. 6 ranges of weight cut it would be split into, which
// the virtual clock prices. Tasks live in Engine.sweeps and are refilled
// every round; ranges keeps its capacity.
type sweepTask struct {
	rj     *runJob
	pid    int
	weight int64
	cut    int64
	stats  exec.Stats
	ranges []exec.Stats
	// scs is the engine's per-worker scratch array; run is sweep, bound once
	// when the slab entry is made so that building a pool task from it
	// allocates nothing.
	scs []exec.Scratch
	run func(worker int)
}

func (t *sweepTask) sweep(worker int) {
	t.stats, t.ranges = t.rj.SweepRanges(t.pid, &t.scs[worker], t.cut, t.ranges[:0])
}

// sweepAt returns slab entry i for the round being built.
func (e *Engine) sweepAt(i int) *sweepTask {
	if i == len(e.sweeps) {
		t := &sweepTask{scs: e.scs}
		t.run = t.sweep
		e.sweeps = append(e.sweeps, t)
	}
	return e.sweeps[i]
}

// unitRec is one loaded unit as build recorded it: its sweeps are
// sweeps[lo:hi], in the unit's job order, and the jobs whose round-set it
// exhausts are pushes[push:pushEnd].
type unitRec struct {
	p             *graph.Partition
	group         int
	lo, hi        int
	push, pushEnd int
}

// inlineWeight is the weight (1 + scatter edges per active vertex, summed
// over the round's sweeps) below which a round's task sets run on the round
// goroutine: spawning and joining the pool's workers costs more than a few
// thousand edges of work saves by sharing them. Calibrated on the
// benchmark's four workloads; the runs are in CHANGES.md.
const inlineWeight = 8192

// imbalance accumulates the load balance of a round's sweep runs, weighted
// by the work of each. Only runs dispatched to more than one worker count:
// an inline run puts all of its weight on "one worker" by construction.
type imbalance struct{ heaviest, total int64 }

func (b *imbalance) add(st pool.Stats) {
	if st.Workers > 1 {
		b.heaviest += st.MaxWorkerWeight
		b.total += st.TotalWeight
	}
}

// factor is the heaviest worker's share of the counted runs' weight,
// ×workers (1.0 = perfectly even, and when no run was dispatched).
func (b imbalance) factor(workers int) float64 {
	return pool.Stats{MaxWorkerWeight: b.heaviest, TotalWeight: b.total}.Imbalance(workers)
}

// build records the round in plan order: for every unit, one sweep per job
// it triggers, weighted by the job's frontier there, and the jobs whose last
// unit it is; then the jobs with nothing to do this round, which close an
// iteration after every unit. It sizes every worker's scratch for the
// round's largest frontier and reports whether the round weighs less than
// inlineWeight.
func (e *Engine) build(plan []sched.Group, byID map[int]*runJob) (light bool) {
	e.units, e.pushes = e.units[:0], e.pushes[:0]
	n, maxActive := 0, 0
	var roundW int64
	for gi, g := range plan {
		for _, u := range g.Units {
			lo := n
			for _, id := range u.Jobs {
				rj := byID[id]
				pid, ok := rj.remaining[u.Part.UID]
				if !ok {
					continue
				}
				t := e.sweepAt(n)
				t.rj, t.pid, t.weight = rj, pid, rj.ActiveWeight(pid)
				rj.weight += t.weight
				maxActive = max(maxActive, rj.PT.ActiveCount[pid])
				n++
			}
			if n == lo {
				continue
			}
			rec := unitRec{p: u.Part, group: gi, lo: lo, hi: n, push: len(e.pushes)}
			for b := lo; b < n; b += e.cfg.Workers {
				roundW += e.straggle(e.sweeps[b:min(b+e.cfg.Workers, n)])
			}
			for _, t := range e.sweeps[lo:n] {
				delete(t.rj.remaining, u.Part.UID)
				if len(t.rj.remaining) == 0 {
					e.pushes = append(e.pushes, t.rj)
				}
			}
			rec.pushEnd = len(e.pushes)
			e.units = append(e.units, rec)
		}
	}
	e.nsweeps, e.idle = n, len(e.pushes)
	for _, rj := range e.jobs {
		if len(rj.remaining) == 0 && !rj.PT.HasActive() {
			e.pushes = append(e.pushes, rj)
		}
	}
	for i := range e.scs {
		e.scs[i].Reset()
		e.scs[i].Grow(maxActive)
	}
	return roundW < inlineWeight
}

// straggle applies the straggler rule of Fig. 6 to one trigger batch — the
// jobs of a unit are triggered Workers at a time (§3.2.3) — and returns the
// batch's weight. A sweep no heavier than (1 + 1/Balance) × weight/Workers,
// the heaviest load the splitter itself lets a worker end up with, stays
// whole; a heavier one is priced as the ranges of weight
// weight/(Workers·Balance) that exec.Job.SliceWeighted would cut it into, so
// a hub vertex is a task of its own while runs of leaves coalesce.
func (e *Engine) straggle(batch []*sweepTask) int64 {
	var totalW int64
	for _, t := range batch {
		totalW += t.weight
	}
	target := int64(float64(totalW)/(float64(e.cfg.Workers)*e.cfg.Balance)) + 1
	whole := (1 + 1/e.cfg.Balance) * float64(totalW) / float64(e.cfg.Workers)
	for _, t := range batch {
		t.cut = 0
		if float64(t.weight) > whole {
			t.cut = target
		}
	}
	return totalW
}

// execute runs the recorded round as two task sets on the shared
// work-stealing pool, or on this goroutine when the round is light: first
// every sweep, whole — sweeps touch only their own (job, partition) state —
// then one task per job closing its iteration: Push, advance and, when the
// frontier ran dry, NextPhase, which touch only that job's tables.
func (e *Engine) execute(light bool) {
	run := e.pool.Run
	if light {
		run = pool.Inline
	}
	tasks := e.tasks[:0]
	for _, t := range e.sweeps[:e.nsweeps] {
		pt := pool.Task{Weight: t.weight, Run: t.run}
		if e.cfg.Tracer != nil && t.rj.span.Valid() {
			pt.Trace = e.taskTrace(t.rj, t.weight)
		}
		tasks = append(tasks, pt)
		t.rj.roundTasks++
	}
	sweepSt := run(tasks)
	clear(tasks)
	tasks = tasks[:0]
	for _, rj := range e.pushes {
		tasks = append(tasks, pool.Task{Weight: rj.weight, Run: rj.finish})
	}
	pushSt := run(tasks)
	clear(tasks)
	e.tasks = tasks[:0]
	e.rtTasks += sweepSt.Tasks + pushSt.Tasks
	e.rtSteals += sweepSt.Steals + pushSt.Steals
	e.rtStolen += sweepSt.Stolen + pushSt.Stolen
	e.rtImb.add(sweepSt)
}

// price replays the recorded round on the virtual clock, unit by unit in plan
// order, and returns each group's share of the clock's advance (structure
// loads, triggers, and the pushes of iterations closed while the group's
// units processed), for the /metrics makespan breakdown. The idle jobs'
// pushes follow every group.
func (e *Engine) price(plan []sched.Group) []float64 {
	spans := make([]float64, len(plan))
	units := e.units
	for gi := range plan {
		start := e.now
		for ; len(units) > 0 && units[0].group == gi; units = units[1:] {
			e.priceUnit(&units[0])
		}
		spans[gi] = e.now - start
	}
	for _, rj := range e.pushes[e.idle:] {
		e.pricePush(rj)
	}
	// The buffers outlive the round: drop their job and partition references
	// so that neither a retired job's private table nor an evicted snapshot
	// is pinned by an idle engine.
	for _, t := range e.sweeps[:e.nsweeps] {
		t.rj = nil
	}
	clear(e.units)
	clear(e.pushes)
	return spans
}

// priceUnit charges one unit: its partition's structure load, then its
// trigger batches, then the pushes of the jobs whose round-set it exhausted.
// The structure load is serial (one loader stream), but within the trigger
// phase each core pulls its job's private-table slice itself, so private
// access overlaps both across jobs (up to the channel's stream capacity) and
// with the vertex processing of jobs already running.
func (e *Engine) priceUnit(u *unitRec) {
	h := e.cfg.Hier
	streams := h.Cost().ChannelStreams
	if streams <= 0 {
		streams = 1
	}
	p, sweeps := u.p, e.sweeps[u.lo:u.hi]
	lr := h.Load(structID(p), p.StructBytes, true)
	// The loader streams partitions in a known common order, so its
	// sequential prefetch saturates the channel (lr.Time/streams), and the
	// next load hides behind banked trigger/push time (prefetch credit).
	loadTime := lr.Time / streams
	visible := loadTime - e.prefetchCredit
	if visible < 0 {
		visible = 0
	}
	e.prefetchCredit -= loadTime - visible
	e.now += visible
	e.ClockStruct += visible
	share := loadTime / float64(len(sweeps))
	for i, t := range sweeps {
		t.rj.m.AccessTime += share
		if i > 0 {
			// Each additional triggered job touches the cached copy:
			// free in time, but it is a real cache access (hit) that
			// hardware counters — and Fig. 11 — would observe.
			h.Load(structID(p), p.StructBytes, false)
		}
	}
	for start := 0; start < len(sweeps); start += e.cfg.Workers {
		batch := sweeps[start:min(start+e.cfg.Workers, len(sweeps))]
		var privAccess float64
		for _, t := range batch {
			plr := h.Load(privateID(p, t.rj.ID), t.rj.PT.Bytes[t.pid], false)
			privAccess += plr.Time
			t.rj.m.AccessTime += plr.Time
		}
		computeElapsed := e.priceBatch(batch)
		elapsed := privAccess / streams
		if computeElapsed > elapsed {
			elapsed = computeElapsed
		}
		e.now += elapsed
		e.ClockTrigger += elapsed
		e.prefetchCredit += elapsed
	}
	h.Unpin(structID(p))
	for _, rj := range e.pushes[u.push:u.pushEnd] {
		e.pricePush(rj)
	}
}

// priceBatch books a trigger batch's work on its jobs and returns the
// batch's virtual compute time: the makespan lower bound of the task set it
// would have been cut into — perfect rebalance (totalWork/Workers) unless a
// single indivisible task (a hub vertex's range, or a sweep that stays
// whole) exceeds it.
func (e *Engine) priceBatch(batch []*sweepTask) float64 {
	cost := e.cfg.Hier.Cost()
	var totalWork, maxTask float64
	for _, t := range batch {
		w := cost.ComputeTime(t.stats.Edges, t.stats.Vertices)
		t.rj.m.ComputeTime += w
		t.rj.EdgesProcessed += t.stats.Edges
		t.rj.VerticesApplied += t.stats.Vertices
		totalWork += w
		if t.cut == 0 {
			maxTask = max(maxTask, w)
		}
		for _, r := range t.ranges {
			maxTask = max(maxTask, cost.ComputeTime(r.Edges, r.Vertices))
		}
	}
	elapsed := totalWork / float64(e.cfg.Workers)
	if maxTask > elapsed {
		elapsed = maxTask
	}
	e.busyCore += totalWork
	return elapsed
}

// taskTrace builds the pool bracket for one span-carrying job's task: every
// execution feeds the job's stolen-task counter, and one task in every
// TaskSampleEvery additionally records a "pool.task" span bracketing Run.
// The bracket runs on pool workers, so it touches only the atomic stolen
// counter and the internally-locked tracer.
func (e *Engine) taskTrace(rj *runJob, weight int64) func(worker int, stolen bool) func() {
	e.taskSeq++
	sampled := e.cfg.TaskSampleEvery > 0 && e.taskSeq%int64(e.cfg.TaskSampleEvery) == 0
	return func(worker int, stolen bool) func() {
		if stolen {
			rj.roundStolen.Add(1)
		}
		if !sampled {
			return nil
		}
		sp := e.cfg.Tracer.StartSpan(rj.span, "pool.task")
		sp.SetJob(rj.spanJob)
		sp.Attr(
			span.Int("worker", int64(worker)),
			span.Bool("stolen", stolen),
			span.Int("weight", weight),
		)
		return sp.End
	}
}

// ExecStats is a point-in-time snapshot of the work-stealing executor's
// counters. Safe to call concurrently with Run or Serve.
type ExecStats struct {
	// Workers and Balance are the effective executor configuration.
	Workers int
	Balance float64
	// Tasks / Steals / Stolen are cumulative across rounds: tasks
	// executed, successful steal operations, and tasks moved by them.
	Tasks  int64
	Steals int64
	Stolen int64
	// SkippedPartitions counts (job, partition) pairs excluded before
	// scheduling because their frontier was empty (converged regions).
	SkippedPartitions int64
	// LastImbalance is the work-weighted imbalance of the last round's
	// sweep task set, if it was dispatched to more than one worker: the
	// heaviest worker's share of its weight, ×Workers (1.0 = perfectly even,
	// and 1.0 when it ran inline).
	LastImbalance float64
}

// ExecStats reports the executor's counters.
func (e *Engine) ExecStats() ExecStats {
	return ExecStats{
		Workers:           e.cfg.Workers,
		Balance:           e.cfg.Balance,
		Tasks:             e.execTasks.Load(),
		Steals:            e.execSteals.Load(),
		Stolen:            e.execStolen.Load(),
		SkippedPartitions: e.execSkipped.Load(),
		LastImbalance:     math.Float64frombits(e.imbBits.Load()),
	}
}

// pricePush charges the Push (Algorithm 2) that closed one job iteration —
// its sync entries and the private slices it touched — reports the
// iteration, and retires the job if it converged.
func (e *Engine) pricePush(rj *runJob) {
	h := e.cfg.Hier
	t := h.Cost().SyncTime(rj.push.Entries)
	for _, tp := range rj.push.TouchedParts {
		p := rj.PG.Parts[tp]
		plr := h.Load(privateID(p, rj.ID), rj.PT.Bytes[tp], false)
		t += plr.Time
	}
	e.now += t
	e.ClockPush += t
	e.prefetchCredit += t
	rj.m.AccessTime += t
	rj.m.SyncTime += t
	if e.cfg.OnJobProgress != nil {
		e.cfg.OnJobProgress(JobProgress{
			JobID:          rj.ID,
			Iteration:      rj.Iterations,
			EdgesProcessed: rj.EdgesProcessed,
			VirtualTimeUS:  e.now,
		})
	}
	if rj.Done {
		rj.FinishTime = e.now
		rj.m.FinishAt = e.now
		rj.m.Iterations = rj.Iterations
		rj.m.Edges = rj.EdgesProcessed
		rj.m.Vertices = rj.VerticesApplied
		rj.m.SyncEntries = rj.SyncEntries
		e.mu.Lock()
		e.finished = append(e.finished, rj)
		e.state[rj.ID] = JobDone
		// A cancel that raced with convergence loses: the job is done.
		delete(e.cancelReq, rj.ID)
		e.mu.Unlock()
		e.store.Release(rj.snapSeq)
		if e.tracer != nil {
			e.tracer.Retire(rj.ID, JobDone.String())
		}
		e.fireEvent(JobEvent{JobID: rj.ID, State: JobDone, Metrics: rj.m})
	}
}
