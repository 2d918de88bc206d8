package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/memsim"
	"cgraph/internal/refimpl"
	"cgraph/internal/storage"
	"cgraph/internal/testutil"
	"cgraph/model"
)

// spinProgram never converges: every vertex stays active forever. It gives
// cancellation tests a job that is deterministically still running.
type spinProgram struct{}

func (spinProgram) Name() string                { return "Spin" }
func (spinProgram) Direction() model.Direction  { return model.Out }
func (spinProgram) Identity() float64           { return 0 }
func (spinProgram) Acc(a, c float64) float64    { return a + c }
func (spinProgram) IsActive(s model.State) bool { return true }
func (spinProgram) Init(v model.VertexID, g model.GraphInfo) (model.State, bool) {
	return model.State{}, true
}
func (spinProgram) Apply(v model.VertexID, s *model.State, deg int) (float64, bool) {
	s.Delta = 0
	return 1, true
}
func (spinProgram) Contribution(seed float64, w float32) float64 { return seed }

type eventRecorder struct {
	ch chan JobEvent
}

func newEventRecorder() *eventRecorder {
	return &eventRecorder{ch: make(chan JobEvent, 64)}
}

func (r *eventRecorder) wait(t *testing.T, jobID int) JobEvent {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev := <-r.ch:
			if ev.JobID == jobID && ev.State.Terminal() {
				return ev
			}
		case <-deadline:
			t.Fatalf("no terminal event for job %d", jobID)
		}
	}
}

func startServe(t *testing.T, e *Engine) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- e.Serve(ctx) }()
	return func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve returned %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("serve did not stop")
		}
	}
}

func TestServeAdmitsSubmissionsWhileResident(t *testing.T) {
	edges := gen.RMAT(31, 300, 5000, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 300, 6, false)
	rec := newEventRecorder()
	e := NewSingle(Config{Workers: 2, Hier: smallHier(), OnJobEvent: func(ev JobEvent) { rec.ch <- ev }}, pg)
	stop := startServe(t, e)
	defer stop()

	// First job against an idle, parked loop.
	pr := e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-9}, 0)
	// Second job lands mid-flight.
	bf := e.Submit(algo.NewBFS(0), 0)

	if ev := rec.wait(t, bf); ev.State != JobDone {
		t.Fatalf("bfs terminal state = %v, want done", ev.State)
	}
	ev := rec.wait(t, pr)
	if ev.State != JobDone || ev.Metrics == nil || ev.Metrics.Iterations == 0 {
		t.Fatalf("pagerank event %+v not a populated done", ev)
	}

	res, err := e.Results(pr)
	if err != nil {
		t.Fatal(err)
	}
	want := refimpl.PageRank(graph.Build(300, edges), 0.85, 1e-12, 3000)
	for v := range res {
		if math.Abs(res[v]-want[v]) > 1e-6 {
			t.Fatalf("pagerank vertex %d: got %v want %v", v, res[v], want[v])
		}
	}
	if st, _ := e.JobState(pr); st != JobDone {
		t.Fatalf("job state = %v, want done", st)
	}
}

// TestProgressEventsPrecedeTerminal: OnJobProgress fires once per
// completed iteration with monotone totals, and the final progress update
// lands strictly before the terminal JobEvent.
func TestProgressEventsPrecedeTerminal(t *testing.T) {
	edges := gen.RMAT(33, 300, 5000, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 300, 6, false)
	var mu sync.Mutex
	var progress []JobProgress
	terminalAt, iterations := -1, -1
	e := NewSingle(Config{
		Workers: 2,
		Hier:    smallHier(),
		OnJobProgress: func(p JobProgress) {
			mu.Lock()
			progress = append(progress, p)
			mu.Unlock()
		},
		OnJobEvent: func(ev JobEvent) {
			mu.Lock()
			if ev.State.Terminal() {
				terminalAt = len(progress)
				iterations = ev.Metrics.Iterations
			}
			mu.Unlock()
		},
	}, pg)
	id := e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-9}, 0)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(progress) == 0 {
		t.Fatal("no progress events")
	}
	for i, p := range progress {
		if p.JobID != id || p.Iteration != i+1 {
			t.Fatalf("progress %d = %+v, want iteration %d", i, p, i+1)
		}
		if i > 0 && (p.EdgesProcessed < progress[i-1].EdgesProcessed || p.VirtualTimeUS < progress[i-1].VirtualTimeUS) {
			t.Fatalf("progress totals not monotone: %+v after %+v", p, progress[i-1])
		}
	}
	if terminalAt != len(progress) {
		t.Fatalf("terminal event at progress count %d, want after all %d", terminalAt, len(progress))
	}
	if final := progress[len(progress)-1]; final.Iteration != iterations {
		t.Fatalf("final progress iteration %d, job ran %d", final.Iteration, iterations)
	}
}

func TestServeCancelRetiresBetweenRounds(t *testing.T) {
	edges := gen.RMAT(32, 200, 3000, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 200, 4, false)
	rec := newEventRecorder()
	e := NewSingle(Config{Workers: 2, Hier: smallHier(), OnJobEvent: func(ev JobEvent) { rec.ch <- ev }}, pg)
	stop := startServe(t, e)
	defer stop()

	spin := e.Submit(spinProgram{}, 0)
	bf := e.Submit(algo.NewBFS(0), 0)
	rec.wait(t, bf) // engine is definitely rolling

	if err := e.Cancel(spin); err != nil {
		t.Fatal(err)
	}
	ev := rec.wait(t, spin)
	if ev.State != JobCancelled || !errors.Is(ev.Err, ErrCancelled) {
		t.Fatalf("spin event %+v, want cancelled/ErrCancelled", ev)
	}
	if _, err := e.Results(spin); err == nil {
		t.Fatal("results of a cancelled job must error")
	}
	if err := e.Cancel(spin); err == nil {
		t.Fatal("cancelling a terminal job must error")
	}
	if err := e.Cancel(12345); err == nil {
		t.Fatal("cancelling an unknown job must error")
	}
}

func TestServeJobContextDeadline(t *testing.T) {
	edges := gen.RMAT(33, 200, 3000, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 200, 4, false)
	rec := newEventRecorder()
	e := NewSingle(Config{Workers: 2, Hier: smallHier(), OnJobEvent: func(ev JobEvent) { rec.ch <- ev }}, pg)
	stop := startServe(t, e)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	spin := e.SubmitWith(ctx, spinProgram{}, SubmitOpts{})
	ev := rec.wait(t, spin)
	if ev.State != JobCancelled || !errors.Is(ev.Err, context.DeadlineExceeded) {
		t.Fatalf("deadline event %+v, want cancelled/DeadlineExceeded", ev)
	}
}

func TestServeIterationBudget(t *testing.T) {
	edges := gen.RMAT(34, 100, 1500, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 100, 4, false)
	rec := newEventRecorder()
	e := NewSingle(Config{Workers: 2, Hier: smallHier(), MaxRounds: 25, OnJobEvent: func(ev JobEvent) { rec.ch <- ev }}, pg)
	stop := startServe(t, e)
	defer stop()

	spin := e.Submit(spinProgram{}, 0)
	ev := rec.wait(t, spin)
	if ev.State != JobFailed || ev.Err == nil {
		t.Fatalf("over-budget event %+v, want failed with error", ev)
	}
}

func TestServeExcludesConcurrentLoops(t *testing.T) {
	edges := gen.RMAT(35, 100, 1500, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 100, 4, false)
	rec := newEventRecorder()
	e := NewSingle(Config{Workers: 2, Hier: smallHier(), OnJobEvent: func(ev JobEvent) { rec.ch <- ev }}, pg)
	stop := startServe(t, e)
	defer stop()
	// Prove the resident loop is active before contending with it.
	rec.wait(t, e.Submit(algo.NewBFS(0), 0))
	if err := e.Serve(context.Background()); err == nil {
		t.Fatal("second Serve must fail while the loop is active")
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("Run must fail while Serve is active")
	}
}

func TestServeStatsAndShutdownLeavesJobsResident(t *testing.T) {
	edges := gen.RMAT(36, 150, 2500, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 150, 4, false)
	rec := newEventRecorder()
	e := NewSingle(Config{Workers: 2, Hier: smallHier(), OnJobEvent: func(ev JobEvent) { rec.ch <- ev }}, pg)
	stop := startServe(t, e)

	bf := e.Submit(algo.NewBFS(0), 0)
	rec.wait(t, bf)
	spin := e.Submit(spinProgram{}, 0)

	// Wait until the spin job is admitted so the loop is mid-flight.
	testutil.WaitFor(t, 30*time.Second, func() bool {
		st, _ := e.JobState(spin)
		return st == JobRunning
	}, "spin job never admitted")
	s := e.ServeStats()
	if s.Rounds == 0 || s.VirtualTimeUS <= 0 {
		t.Fatalf("stats %+v: loop progress not mirrored", s)
	}

	// Graceful stop with the spin job mid-flight: it stays resident.
	stop()
	if st, _ := e.JobState(spin); st != JobRunning {
		t.Fatalf("post-shutdown spin state = %v, want running (resident)", st)
	}
}

// TestServeSnapshotWithDifferentPartitionCount is the regression for the
// base-snapshot-sized scheduler state: a job bound to a later snapshot with
// a different partition count used to index the engine's base-sized arrays
// out of range and panic the resident Serve loop. With unit-keyed
// scheduling it must simply converge.
func TestServeSnapshotWithDifferentPartitionCount(t *testing.T) {
	edges := gen.RMAT(41, 200, 3500, 0.57, 0.19, 0.19)
	base := buildPG(t, edges, 200, 4, false)
	rec := newEventRecorder()
	e := New(Config{Workers: 2, Hier: smallHier(), OnJobEvent: func(ev JobEvent) { rec.ch <- ev }},
		storage.NewSnapshotStore(base, 0))
	stop := startServe(t, e)

	// Warm the loop on the base snapshot.
	rec.wait(t, e.Submit(algo.NewBFS(0), 0))

	// A rewired graph, partitioned into twice as many parts.
	edges2 := gen.RMAT(42, 200, 3500, 0.57, 0.19, 0.19)
	next := buildPG(t, edges2, 200, 8, false)
	if err := e.AddSnapshot(next, 10); err != nil {
		t.Fatal(err)
	}

	// One job on the new 8-part snapshot, one concurrently on the old
	// 4-part base: both footprints schedule side by side.
	ssNew := e.Submit(algo.NewSSSP(0), 10)
	ssOld := e.Submit(algo.NewSSSP(0), 0)
	// Completion order is not deterministic; collect both events.
	states := map[int]JobState{}
	deadline := time.After(30 * time.Second)
	for len(states) < 2 {
		select {
		case ev := <-rec.ch:
			if (ev.JobID == ssNew || ev.JobID == ssOld) && ev.State.Terminal() {
				states[ev.JobID] = ev.State
			}
		case <-deadline:
			t.Fatalf("no terminal events for both sssp jobs (got %v)", states)
		}
	}
	if states[ssNew] != JobDone || states[ssOld] != JobDone {
		t.Fatalf("states new=%v old=%v, want done/done", states[ssNew], states[ssOld])
	}
	for _, c := range []struct {
		id   int
		want []float64
	}{
		{ssNew, refimpl.SSSP(graph.Build(200, edges2), 0)},
		{ssOld, refimpl.SSSP(graph.Build(200, edges), 0)},
	} {
		res, err := e.Results(c.id)
		if err != nil {
			t.Fatal(err)
		}
		for v := range res {
			if res[v] != c.want[v] && !(math.IsInf(res[v], 1) && math.IsInf(c.want[v], 1)) {
				t.Fatalf("job %d sssp vertex %d: got %v want %v", c.id, v, res[v], c.want[v])
			}
		}
	}

	// The plan must name both snapshot versions' units at some point;
	// at minimum the info endpoint stays coherent.
	info := e.SchedInfo()
	if info.Policy != "priority" {
		t.Fatalf("sched info policy %q, want priority", info.Policy)
	}
	stop()
}

// TestServeIdleSnapshotsBindNewest: snapshots added to an idle resident
// loop run no round, and a job submitted afterwards binds to the newest.
func TestServeIdleSnapshotsBindNewest(t *testing.T) {
	base := buildPG(t, gen.RMAT(44, 200, 3500, 0.57, 0.19, 0.19), 200, 4, false)
	rec := newEventRecorder()
	e := New(Config{Workers: 2, Hier: smallHier(), OnJobEvent: func(ev JobEvent) { rec.ch <- ev }},
		storage.NewSnapshotStore(base, 0))
	stop := startServe(t, e)
	defer stop()

	var newest []model.Edge
	for i := int64(1); i <= 5; i++ {
		newest = gen.RMAT(44+i, 200, 3500, 0.57, 0.19, 0.19)
		if err := e.AddSnapshot(buildPG(t, newest, 200, 4, false), 10*i); err != nil {
			t.Fatal(err)
		}
	}
	if r := e.ServeStats().Rounds; r != 0 {
		t.Fatalf("%d rounds ran with no job submitted", r)
	}

	id := e.Submit(algo.NewSSSP(0), 50)
	if ev := rec.wait(t, id); ev.State != JobDone {
		t.Fatalf("sssp on the newest snapshot ended %v (%v)", ev.State, ev.Err)
	}
	res, err := e.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	want := refimpl.SSSP(graph.Build(200, newest), 0)
	for v := range res {
		if res[v] != want[v] && !(math.IsInf(res[v], 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("sssp vertex %d: got %v want %v (job not bound to the newest snapshot)", v, res[v], want[v])
		}
	}
}

// TestServeConcurrentStatsReaders hammers the lock-free mirrors while the
// loop runs; under -race it is the regression for the unlocked Now() read.
func TestServeConcurrentStatsReaders(t *testing.T) {
	edges := gen.RMAT(43, 200, 3000, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 200, 4, false)
	rec := newEventRecorder()
	e := NewSingle(Config{Workers: 2, Hier: smallHier(), OnJobEvent: func(ev JobEvent) { rec.ch <- ev }}, pg)
	stop := startServe(t, e)
	defer stop()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = e.Now()
				_ = e.ServeStats()
				_ = e.SchedInfo()
			}
		}()
	}
	pr := e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-9}, 0)
	ev := rec.wait(t, pr)
	close(done)
	wg.Wait()
	if ev.State != JobDone {
		t.Fatalf("pagerank state %v, want done", ev.State)
	}
	if e.Now() <= 0 {
		t.Fatal("Now() did not advance with the loop")
	}
}

// TestReleaseCompactsTerminalState is the regression for the per-job state
// leak: Release must drop a terminal job's lifecycle-map entry, and leave an
// unfinished or unknown job alone.
func TestReleaseCompactsTerminalState(t *testing.T) {
	edges := gen.RMAT(44, 150, 2500, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 150, 4, false)
	rec := newEventRecorder()
	e := NewSingle(Config{Workers: 2, Hier: smallHier(), OnJobEvent: func(ev JobEvent) { rec.ch <- ev }}, pg)
	stop := startServe(t, e)
	defer stop()

	bf := e.Submit(algo.NewBFS(0), 0)
	rec.wait(t, bf)
	spin := e.Submit(spinProgram{}, 0)
	rec.wait(t, e.Submit(algo.NewBFS(1), 0)) // ensure spin admitted and rolling
	// Releasing a running job is a no-op.
	e.Release(spin)
	if st, ok := e.JobState(spin); !ok || st != JobRunning {
		t.Fatalf("release of a running job changed it: state %v, known %v", st, ok)
	}
	if err := e.Cancel(spin); err != nil {
		t.Fatal(err)
	}
	rec.wait(t, spin)

	e.Release(bf)
	e.Release(spin)
	e.Release(98765) // unknown: no-op

	for _, id := range []int{bf, spin} {
		if _, ok := e.JobState(id); ok {
			t.Fatalf("released job %d still has a state entry", id)
		}
	}
	if _, err := e.Results(bf); err == nil {
		t.Fatal("results of a released job must error")
	}
	// Double release stays a no-op.
	e.Release(bf)
}

// TestReleaseDropsPrivateItems: a resident engine's simulated cache stays
// bounded as jobs flow through it. memsim.Unlimited never evicts, so the
// cache holds the structure items plus whatever private items jobs left
// behind; a released job and a cancelled one leave none, and the cache
// after four jobs run and released equals the cache after one.
func TestReleaseDropsPrivateItems(t *testing.T) {
	edges := gen.RMAT(46, 150, 2500, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 150, 4, false)
	hier := memsim.Unlimited()
	rec := newEventRecorder()
	e := NewSingle(Config{Workers: 2, Hier: hier, OnJobEvent: func(ev JobEvent) { rec.ch <- ev }}, pg)
	stop := startServe(t, e)
	defer stop()

	var afterOne int64
	for k := range 4 {
		id := e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-3}, 0)
		rec.wait(t, id)
		e.Release(id)
		if k == 0 {
			afterOne = hier.CacheUsed()
		} else if got := hier.CacheUsed(); got != afterOne {
			t.Fatalf("cache holds %d B after %d jobs released, %d B after one", got, k+1, afterOne)
		}
	}
	spin := e.Submit(spinProgram{}, 0)
	pr := e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-3}, 0)
	rec.wait(t, pr) // spin admitted and rolling
	e.Release(pr)
	if err := e.Cancel(spin); err != nil {
		t.Fatal(err)
	}
	rec.wait(t, spin)
	if got := hier.CacheUsed(); got != afterOne {
		t.Fatalf("cache holds %d B after a cancelled job was reaped, %d B before it ran", got, afterOne)
	}
}

// TestSchedInfoDoesNotAliasEngine: SchedInfo hands out copies. A reader
// polling it while Serve plans rounds — and scribbling over every list it
// gets back — races with nothing (under -race) and never sees its own writes
// in a later read. Once the last job has retired, the round loop's plan-path
// buffers hold no job and no partition, so an idle engine pins neither a
// retired job's tables nor an evicted snapshot.
func TestSchedInfoDoesNotAliasEngine(t *testing.T) {
	edges := gen.RMAT(45, 300, 5000, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 300, 8, false)
	rec := newEventRecorder()
	e := NewSingle(Config{Workers: 2, Hier: smallHier(), TraceDepth: 8, OnJobEvent: func(ev JobEvent) { rec.ch <- ev }}, pg)
	stop := startServe(t, e)

	done := make(chan struct{})
	var planned, scribbled int
	var bad []string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			info := e.SchedInfo()
			if len(info.Parts) != len(info.UIDs) {
				bad = append(bad, "Parts and UIDs differ in length")
			}
			for _, id := range info.JobIDs {
				if id < 0 {
					bad = append(bad, "a job ID written by an earlier caller")
				}
			}
			for i := range info.Parts {
				if info.Parts[i] < 0 || info.UIDs[i] < 0 {
					bad = append(bad, "a unit written by an earlier caller")
				}
			}
			if len(info.JobIDs) > 0 {
				planned++
			}
			for i := range info.JobIDs {
				info.JobIDs[i] = -1
			}
			for i := range info.Parts {
				info.Parts[i], info.UIDs[i] = -1, -1
				scribbled++
			}
		}
	}()
	ids := []int{
		e.Submit(algo.NewBFS(0), 0),
		e.Submit(algo.NewSSSP(1), 0),
		e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-6}, 0),
	}
	for _, id := range ids {
		if ev := rec.wait(t, id); ev.State != JobDone {
			t.Fatalf("job %d ended %v", id, ev.State)
		}
	}
	close(done)
	wg.Wait()
	stop()
	if len(bad) > 0 {
		t.Fatalf("SchedInfo aliased engine state: %s (and %d more)", bad[0], len(bad)-1)
	}
	if planned == 0 || scribbled == 0 {
		t.Fatalf("setup: the reader saw %d plans with jobs, scribbled on %d units", planned, scribbled)
	}

	info := e.SchedInfo()
	if len(info.JobIDs) == 0 || len(info.Parts) == 0 {
		t.Fatalf("setup: the last plan is empty: %+v", info)
	}
	want := SchedInfo{JobIDs: slices.Clone(info.JobIDs), Parts: slices.Clone(info.Parts), UIDs: slices.Clone(info.UIDs)}
	info.JobIDs[0], info.Parts[0], info.UIDs[0] = -1, -1, -1
	again := e.SchedInfo()
	if !slices.Equal(again.JobIDs, want.JobIDs) || !slices.Equal(again.Parts, want.Parts) || !slices.Equal(again.UIDs, want.UIDs) {
		t.Fatalf("a caller's write reached the engine: read %+v, want %+v", again, want)
	}

	// Serve has returned, so the loop-goroutine fields are safe to read.
	for i, jf := range e.foot[:cap(e.foot)] {
		for _, p := range jf.Units[:cap(jf.Units)] {
			if p != nil {
				t.Fatalf("footprint %d still holds partition %d (UID %d)", i, p.ID, p.UID)
			}
		}
	}
	for i, p := range e.pre[:cap(e.pre)] {
		if p.rj != nil {
			t.Fatalf("pre-round entry %d still holds job %d", i, p.rj.ID)
		}
	}
	for i, tk := range e.sweeps {
		if tk.rj != nil {
			t.Fatalf("sweep %d still holds job %d", i, tk.rj.ID)
		}
	}
	for i, rj := range e.planned[:cap(e.planned)] {
		if rj != nil {
			t.Fatalf("planned entry %d still holds job %d", i, rj.ID)
		}
	}
}

// TestDoneEventFollowsRoundRecord: a job's terminal event fires after the
// round it converged in is recorded, so a listener that reads the round
// ring on hearing it is done finds every iteration of the job there — and a
// service that closes the job's span tree then has its last job.round span.
func TestDoneEventFollowsRoundRecord(t *testing.T) {
	edges := gen.RMAT(46, 200, 3000, 0.57, 0.19, 0.19)
	var e *Engine
	traced, iterations := map[int]int{}, map[int]int{}
	e = NewSingle(Config{Workers: 2, TraceDepth: 1 << 10, OnJobEvent: func(ev JobEvent) {
		if ev.State != JobDone {
			return
		}
		for _, rd := range e.RoundTraces(0) {
			for _, jr := range rd.Jobs {
				if jr.JobID == ev.JobID {
					traced[ev.JobID] += jr.Pushes
				}
			}
		}
		iterations[ev.JobID] = ev.Metrics.Iterations
	}}, buildPG(t, edges, 200, 4, false))
	ids := []int{e.Submit(algo.NewBFS(0), 0), e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-6}, 0)}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if traced[id] != iterations[id] || traced[id] == 0 {
			t.Errorf("job %d: its done event saw %d traced iterations of %d", id, traced[id], iterations[id])
		}
	}
}
