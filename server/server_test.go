package server_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"cgraph"
	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/internal/graph"
	"cgraph/internal/refimpl"
	"cgraph/internal/testutil"
	"cgraph/model"
	"cgraph/server"
)

// spinProgram never converges, giving cancellation and backpressure tests a
// job that is deterministically still in flight.
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

func testEdges() []model.Edge {
	return gen.RMAT(41, 300, 5000, 0.57, 0.19, 0.19)
}

func startService(t *testing.T, cfg server.Config, edges []model.Edge, n int) *server.Service {
	t.Helper()
	sys := cgraph.NewSystem(cgraph.WithWorkers(2), cgraph.WithCoreSubgraph(false))
	if err := sys.LoadEdges(n, edges); err != nil {
		t.Fatal(err)
	}
	svc := server.New(sys, cfg)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Stop(ctx)
	})
	return svc
}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestServiceSubmitWhileRunningAndResultsAfterDone(t *testing.T) {
	edges := testEdges()
	svc := startService(t, server.Config{}, edges, 300)

	pr, err := svc.Submit(server.Spec{Program: &algo.PageRank{Damping: 0.85, Epsilon: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	// Second job lands while the first iterates.
	ss, err := svc.Submit(server.Spec{Program: algo.NewSSSP(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Wait(waitCtx(t)); err != nil {
		t.Fatalf("pagerank wait: %v", err)
	}
	if err := ss.Wait(waitCtx(t)); err != nil {
		t.Fatalf("sssp wait: %v", err)
	}

	g := graph.Build(300, edges)
	prRes, err := pr.Results()
	if err != nil {
		t.Fatal(err)
	}
	wantPR := refimpl.PageRank(g, 0.85, 1e-12, 3000)
	for v := range prRes {
		if math.Abs(prRes[v]-wantPR[v]) > 1e-6 {
			t.Fatalf("pagerank vertex %d: got %v want %v", v, prRes[v], wantPR[v])
		}
	}
	ssRes, err := ss.Results()
	if err != nil {
		t.Fatal(err)
	}
	wantSS := refimpl.SSSP(g, 0)
	for v := range ssRes {
		if ssRes[v] != wantSS[v] && !(math.IsInf(ssRes[v], 1) && math.IsInf(wantSS[v], 1)) {
			t.Fatalf("sssp vertex %d: got %v want %v", v, ssRes[v], wantSS[v])
		}
	}

	st := pr.Status()
	if st.State != server.StateDone || st.Iterations == 0 || st.Started == nil || st.Finished == nil {
		t.Fatalf("done status not populated: %+v", st)
	}
}

func TestServiceCancelRunningJob(t *testing.T) {
	svc := startService(t, server.Config{}, testEdges(), 300)
	spin, err := svc.Submit(server.Spec{Program: spinProgram{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(spin.ID()); err != nil {
		t.Fatal(err)
	}
	if err := spin.Wait(waitCtx(t)); !errors.Is(err, cgraph.ErrCancelled) {
		t.Fatalf("wait after cancel = %v, want ErrCancelled", err)
	}
	if spin.State() != server.StateCancelled {
		t.Fatalf("state = %v, want cancelled", spin.State())
	}
	if _, err := spin.Results(); err == nil {
		t.Fatal("results of a cancelled job must error")
	}
	if err := spin.Cancel(); err == nil {
		t.Fatal("cancelling a terminal job must error")
	}
	if err := svc.Cancel("job-999"); err == nil {
		t.Fatal("cancelling an unknown id must error")
	}
}

func TestServiceDeadlineExpiry(t *testing.T) {
	svc := startService(t, server.Config{}, testEdges(), 300)
	spin, err := svc.Submit(server.Spec{Program: spinProgram{}, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := spin.Wait(waitCtx(t)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait = %v, want DeadlineExceeded", err)
	}
	if spin.State() != server.StateFailed {
		t.Fatalf("state = %v, want failed", spin.State())
	}
}

func TestServiceFIFOBackpressure(t *testing.T) {
	svc := startService(t, server.Config{MaxInFlight: 1}, testEdges(), 300)
	spin, err := svc.Submit(server.Spec{Program: spinProgram{}})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := svc.Submit(server.Spec{Program: algo.NewBFS(0)})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := svc.Submit(server.Spec{Program: algo.NewBFS(1)})
	if err != nil {
		t.Fatal(err)
	}
	if b1.State() != server.StateQueued || b2.State() != server.StateQueued {
		t.Fatalf("queued states = %v/%v, want queued/queued", b1.State(), b2.State())
	}

	// Cancelling a queued job resolves it immediately, without a slot.
	if err := b2.Cancel(); err != nil {
		t.Fatal(err)
	}
	if b2.State() != server.StateCancelled {
		t.Fatalf("queued-cancel state = %v", b2.State())
	}

	// Freeing the slot launches the queue head.
	if err := spin.Cancel(); err != nil {
		t.Fatal(err)
	}
	if err := b1.Wait(waitCtx(t)); err != nil {
		t.Fatalf("queued job never ran: %v", err)
	}
	if _, err := b1.Results(); err != nil {
		t.Fatal(err)
	}
}

// TestServicePriorityAdmission: at the in-flight cap, waiting jobs leave
// the queue highest priority first, FIFO within a priority.
func TestServicePriorityAdmission(t *testing.T) {
	svc := startService(t, server.Config{MaxInFlight: 1}, testEdges(), 300)
	spin, err := svc.Submit(server.Spec{Program: spinProgram{}})
	if err != nil {
		t.Fatal(err)
	}
	low, err := svc.Submit(server.Spec{Program: algo.NewBFS(0)})
	if err != nil {
		t.Fatal(err)
	}
	high, err := svc.Submit(server.Spec{Program: algo.NewBFS(1), Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	high2, err := svc.Submit(server.Spec{Program: algo.NewBFS(2), Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := spin.Cancel(); err != nil {
		t.Fatal(err)
	}
	// With one slot, completion order is admission order: both priority-5
	// jobs (in submission order) before the earlier priority-0 one.
	for _, j := range []*server.Job{high, high2, low} {
		if err := j.Wait(waitCtx(t)); err != nil {
			t.Fatal(err)
		}
	}
	started := func(j *server.Job) time.Time {
		st := j.Status()
		if st.Started == nil {
			t.Fatalf("job %s never started", j.ID())
		}
		return *st.Started
	}
	if !(started(high).Before(started(high2)) && started(high2).Before(started(low))) {
		t.Fatalf("admission order wrong: high=%v high2=%v low=%v",
			started(high), started(high2), started(low))
	}
}

func TestServiceSnapshotIngestionWhileServing(t *testing.T) {
	edges := testEdges()
	svc := startService(t, server.Config{}, edges, 300)

	// Converge one job against the base snapshot first.
	ss, err := svc.Submit(server.Spec{Program: algo.NewSSSP(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}

	// Reject malformed snapshots: the edge list must keep the base length.
	if err := svc.AddSnapshot(edges[:len(edges)-5], 10); err == nil {
		t.Fatal("short snapshot edge list must be rejected")
	}

	mut, _ := gen.Mutate(edges, 0.05, 300, 7)
	if err := svc.AddSnapshot(mut, 10); err != nil {
		t.Fatal(err)
	}
	ts := int64(10)
	ss2, err := svc.Submit(server.Spec{Program: algo.NewSSSP(0), Arrival: &ts})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss2.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	res, err := ss2.Results()
	if err != nil {
		t.Fatal(err)
	}
	want := refimpl.SSSP(graph.Build(300, mut), 0)
	for v := range res {
		if res[v] != want[v] && !(math.IsInf(res[v], 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("post-snapshot sssp vertex %d: got %v want %v", v, res[v], want[v])
		}
	}
}

func TestServiceStopFailsResidentJobs(t *testing.T) {
	edges := testEdges()
	sys := cgraph.NewSystem(cgraph.WithWorkers(2), cgraph.WithCoreSubgraph(false))
	if err := sys.LoadEdges(300, edges); err != nil {
		t.Fatal(err)
	}
	svc := server.New(sys, server.Config{MaxInFlight: 1})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	spin, err := svc.Submit(server.Spec{Program: spinProgram{}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(server.Spec{Program: algo.NewBFS(0)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*server.Job{spin, queued} {
		if err := j.Wait(ctx); !errors.Is(err, server.ErrStopped) {
			t.Fatalf("job %s after stop: err = %v, want ErrStopped", j.ID(), err)
		}
		if j.State() != server.StateFailed {
			t.Fatalf("job %s state = %v, want failed", j.ID(), j.State())
		}
	}
	if _, err := svc.Submit(server.Spec{Program: algo.NewBFS(0)}); !errors.Is(err, server.ErrStopped) {
		t.Fatalf("submit after stop = %v, want ErrStopped", err)
	}
	if err := svc.Start(); err == nil {
		t.Fatal("restart after stop must error")
	}
}

func TestServiceStatusList(t *testing.T) {
	svc := startService(t, server.Config{}, testEdges(), 300)
	j1, _ := svc.Submit(server.Spec{Program: algo.NewBFS(0)})
	j2, _ := svc.Submit(server.Spec{Program: algo.NewBFS(1)})
	if err := j1.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	list := svc.List()
	if len(list) != 2 || list[0].ID != j1.ID() || list[1].ID != j2.ID() {
		t.Fatalf("list wrong: %+v", list)
	}
	for _, st := range list {
		if st.State != server.StateDone {
			t.Fatalf("job %s state %v, want done", st.ID, st.State)
		}
	}
}

func TestServiceQueuedJobHonoursDeadline(t *testing.T) {
	svc := startService(t, server.Config{MaxInFlight: 1}, testEdges(), 300)
	spin, err := svc.Submit(server.Spec{Program: spinProgram{}})
	if err != nil {
		t.Fatal(err)
	}
	// The slot never frees, so the deadline must fire while queued.
	queued, err := svc.Submit(server.Spec{Program: algo.NewBFS(0), Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if queued.State() != server.StateQueued {
		t.Fatalf("state = %v, want queued", queued.State())
	}
	if err := queued.Wait(waitCtx(t)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued wait = %v, want DeadlineExceeded", err)
	}
	if queued.State() != server.StateFailed {
		t.Fatalf("state = %v, want failed", queued.State())
	}
	// The spinner is unaffected and the slot accounting survives: cancel
	// it and run a fresh job through.
	if err := spin.Cancel(); err != nil {
		t.Fatal(err)
	}
	after, err := svc.Submit(server.Spec{Program: algo.NewBFS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := after.Wait(waitCtx(t)); err != nil {
		t.Fatalf("post-deadline job: %v", err)
	}
}

func TestServiceSurfacesDeadRoundLoop(t *testing.T) {
	edges := testEdges()
	sys := cgraph.NewSystem(cgraph.WithWorkers(2), cgraph.WithCoreSubgraph(false))
	if err := sys.LoadEdges(300, edges); err != nil {
		t.Fatal(err)
	}
	// Occupy the engine loop directly, so the service's Serve fails.
	serveDone := make(chan error, 1)
	go func() { serveDone <- sys.Serve(context.Background()) }()
	probe, err := sys.Submit(algo.NewBFS(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}

	svc := server.New(sys, server.Config{})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	// The loop failure lands asynchronously; submissions must start
	// failing with the cause rather than hanging forever.
	testutil.WaitFor(t, 30*time.Second, func() bool {
		_, err := svc.Submit(server.Spec{Program: algo.NewBFS(0)})
		if err != nil && errors.Is(err, server.ErrStopped) {
			t.Fatalf("got bare ErrStopped, want the loop's own error")
		}
		return err != nil
	}, "submissions kept succeeding on a dead service")
	if err := sys.Shutdown(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	<-serveDone
}

func TestServiceReleasesEngineStateAfterDone(t *testing.T) {
	svc := startService(t, server.Config{}, testEdges(), 300)
	j, err := svc.Submit(server.Spec{Program: algo.NewBFS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	// The engine keeps the results until retention compacts the job.
	res, err := j.Results()
	if err != nil || len(res) != 300 {
		t.Fatalf("retained results broken: %d values, err %v", len(res), err)
	}
	if st := j.Status(); st.Iterations == 0 {
		t.Fatalf("metrics lost on release: %+v", st)
	}
}

// TestServiceRunsNoGoroutinePerJob: admission, progress and retirement
// reach the service as callbacks on the engine's round loop, so running
// jobs cost the process no goroutines of their own.
func TestServiceRunsNoGoroutinePerJob(t *testing.T) {
	svc := startService(t, server.Config{}, testEdges(), 300)
	before := runtime.NumGoroutine()
	const n = 32
	jobs := make([]*server.Job, n)
	for i := range jobs {
		j, err := svc.Submit(server.Spec{Program: spinProgram{}})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	testutil.WaitFor(t, 30*time.Second, func() bool {
		for _, j := range jobs {
			if j.State() != server.StateRunning {
				return false
			}
		}
		return true
	}, "spinning jobs never all admitted")
	// The round loop's pool spawns its workers per round; allow for them.
	if after := runtime.NumGoroutine(); after-before > 4 {
		t.Fatalf("%d running jobs raised the goroutine count %d → %d", n, before, after)
	}
	for _, j := range jobs {
		if err := j.Cancel(); err != nil {
			t.Fatal(err)
		}
	}
}
