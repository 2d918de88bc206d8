package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/internal/storage"
	"cgraph/internal/testutil"
	"cgraph/model"
)

// TestCancelAtEveryLifecycleEdge retires a job bound to the base snapshot
// at each edge of its lifecycle — queued over the cap, just admitted,
// mid-run, converged but not yet released — either by Cancel or the way a
// service stops: ending the job's context, then the loop's. Each time the
// job's snapshot reference must be released, which retention shows (with
// retention 1 and a newer snapshot added, the base is evicted), and exactly
// one terminal event must fire for it.
func TestCancelAtEveryLifecycleEdge(t *testing.T) {
	edges := gen.RMAT(47, 200, 3000, 0.57, 0.19, 0.19)
	errStop := errors.New("service stopped")
	// The spinner is submitted first and the target second, so their IDs
	// are known before either event can fire.
	const spinner, target = 0, 1
	for _, at := range []string{"queued", "admitted", "mid-run", "converged"} {
		for _, how := range []string{"cancel", "stop"} {
			t.Run(at+"/"+how, func(t *testing.T) {
				store := storage.NewSnapshotStore(buildPG(t, edges, 200, 4, false), 0)
				loopCtx, stopLoop := context.WithCancel(context.Background())
				jobCtx, endJob := context.WithCancelCause(context.Background())
				defer stopLoop()
				// retire is what the test does at the chosen edge; it may
				// run on the round loop, from an event callback.
				var e *Engine
				retire := func() {
					if how == "cancel" {
						if err := e.Cancel(target); err != nil && at != "converged" {
							t.Errorf("cancel: %v", err)
						}
						return
					}
					endJob(errStop)
					stopLoop()
				}
				var mu sync.Mutex
				var terminal []JobEvent
				e = New(Config{
					Workers: 2,
					Hier:    smallHier(),
					OnJobEvent: func(ev JobEvent) {
						switch {
						case ev.JobID != target:
						case ev.State.Terminal():
							mu.Lock()
							terminal = append(terminal, ev)
							mu.Unlock()
						case at == "admitted":
							retire()
						}
					},
					OnJobProgress: func(p JobProgress) {
						if p.JobID == target && p.Iteration == 1 && at == "mid-run" {
							retire()
						}
					},
				}, store)
				if err := e.AddSnapshot(buildPG(t, gen.RMAT(48, 200, 3000, 0.57, 0.19, 0.19), 200, 4, false), 10); err != nil {
					t.Fatal(err)
				}
				capacity := 0
				if at == "queued" {
					capacity = 1
				}
				var prog model.Program = spinProgram{}
				if at == "converged" {
					prog = algo.NewBFS(0)
				}
				e.SubmitWith(context.Background(), spinProgram{}, SubmitOpts{Arrival: 10, MaxRunning: capacity})
				e.SubmitWith(jobCtx, prog, SubmitOpts{Arrival: 0, MaxRunning: capacity})
				// Only the target holds the base now.
				store.SetRetention(1)
				if store.Evicted() != 0 {
					t.Fatal("setup: the base snapshot was evicted under its job")
				}
				served := make(chan error, 1)
				go func() { served <- e.Serve(loopCtx) }()

				events := func() []JobEvent {
					mu.Lock()
					defer mu.Unlock()
					return append([]JobEvent(nil), terminal...)
				}
				switch at {
				case "queued":
					testutil.WaitFor(t, 30*time.Second, func() bool {
						st, _ := e.JobState(spinner)
						return st == JobRunning
					}, "spinner never admitted")
					if st, _ := e.JobState(target); st != JobQueued {
						t.Fatalf("target is %v, want queued over the cap", st)
					}
					retire()
				case "converged":
					testutil.WaitFor(t, 30*time.Second, func() bool { return len(events()) == 1 }, "target never converged")
					if store.Evicted() != 1 {
						t.Fatal("a converged job still holds its snapshot")
					}
					retire()
				}
				testutil.WaitFor(t, 30*time.Second, func() bool { return len(events()) > 0 }, "target never retired")
				if how == "cancel" {
					// The spinner keeps the loop turning until here.
					stopLoop()
				}
				select {
				case err := <-served:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("serve did not stop")
				}
				if at == "converged" {
					e.Release(target)
				}

				evs := events()
				if len(evs) != 1 {
					t.Fatalf("%d terminal events for the target, want exactly one: %+v", len(evs), evs)
				}
				wantState, wantErr := JobCancelled, ErrCancelled
				switch {
				case at == "converged":
					wantState, wantErr = JobDone, nil
				case how == "stop":
					wantErr = errStop
				}
				if evs[0].State != wantState || !errors.Is(evs[0].Err, wantErr) {
					t.Fatalf("terminal event %+v, want %v with %v", evs[0], wantState, wantErr)
				}
				if n := store.Evicted(); n != 1 {
					t.Fatalf("%d snapshots evicted, want the base: the retired job still references it", n)
				}
			})
		}
	}
}
