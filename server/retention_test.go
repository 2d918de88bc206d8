package server

import (
	"context"
	"testing"
	"time"

	"cgraph"
	"cgraph/algo"
	"cgraph/internal/gen"
	"cgraph/model"
)

// TestRetentionReleasesEngineResults: with RetainTerminal R, after 4R jobs
// the engine holds results for the R newest terminal jobs only; the
// compacted jobs' handles answer Results with an error.
func TestRetentionReleasesEngineResults(t *testing.T) {
	const retain = 2
	sys := cgraph.NewSystem(cgraph.WithWorkers(2), cgraph.WithCoreSubgraph(false))
	if err := sys.LoadEdges(300, gen.RMAT(41, 300, 5000, 0.57, 0.19, 0.19)); err != nil {
		t.Fatal(err)
	}
	svc := New(sys, Config{RetainTerminal: retain})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer svc.Stop(ctx)

	var jobs []*Job
	for i := range 4 * retain {
		j, err := svc.Submit(Spec{Program: algo.NewBFS(model.VertexID(i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	held := 0
	for i, j := range jobs {
		_, err := j.h.Results()
		compacted := i < len(jobs)-retain
		switch {
		case err == nil:
			held++
			if compacted {
				t.Errorf("compacted job %s still has engine-side results", j.id)
			}
		case !compacted:
			t.Errorf("retained job %s lost its results: %v", j.id, err)
		}
	}
	if held > retain {
		t.Fatalf("the engine holds results for %d terminal jobs, want at most %d", held, retain)
	}
}
