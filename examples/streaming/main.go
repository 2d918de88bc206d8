// Streaming ingestion: an evolving graph served as a continuous stream of
// small edge-mutation batches instead of full snapshot uploads. A feed
// goroutine applies deltas through the client's ApplyDelta — the pipeline
// coalesces them and materializes overlay snapshots on its batching window,
// so each new version costs O(N + rebuilt chunks) and shares every untouched partition
// with its predecessor — while analyst jobs (PageRank and SSSP) keep
// arriving against the rolling snapshot series. Retention GC keeps the
// series bounded: old versions are evicted once no job is bound to them.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"cgraph"
	"cgraph/api"
	"cgraph/internal/gen"
	"cgraph/server"
)

func main() {
	const (
		numVertices = 1200
		numEdges    = 30000
		ticks       = 6
		batchSize   = 40
	)
	base := gen.Web(7, numVertices, numEdges)

	// Deltas require slot-stable plain partitioning; the retention cap
	// keeps at most 4 snapshots alive once jobs release old versions.
	sys := cgraph.NewSystem(
		cgraph.WithWorkers(4),
		cgraph.WithCoreSubgraph(false),
		cgraph.WithIngestBatch(64),
		cgraph.WithIngestWindow(50*time.Millisecond),
		cgraph.WithRetainSnapshots(4),
	)
	if err := sys.LoadEdges(numVertices, base); err != nil {
		log.Fatal(err)
	}
	svc := server.New(sys, server.Config{MaxInFlight: 8, RetainTerminal: 32})
	if err := svc.Start(); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Same code runs remote: swap for client.New("http://…").
	var c cgraph.Client = server.NewLocalClient(svc, nil)

	// The crawler streams clustered link rewrites; analysts keep asking
	// for rankings and distances against whatever version is current.
	rng := rand.New(rand.NewSource(42))
	var jobs []string
	for tick := 1; tick <= ticks; tick++ {
		delta := api.Delta{Flush: true}
		start := rng.Intn(numEdges - batchSize)
		for i := 0; i < batchSize; i++ {
			delta.Mutations = append(delta.Mutations, api.Mutation{
				Slot: start + i,
				Edge: [3]float64{float64(rng.Intn(numVertices)), float64(rng.Intn(numVertices)), 1},
			})
		}
		ack, err := c.ApplyDelta(ctx, delta)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tick %d: streamed %d mutations -> snapshot t=%d\n", tick, ack.Accepted, ack.Timestamp)

		for _, spec := range []api.JobSpec{
			{Algo: "pagerank", Labels: map[string]string{"feed": "stream"}},
			{Algo: "sssp", Source: uint32(rng.Intn(numVertices)), Labels: map[string]string{"feed": "stream"}},
		} {
			st, err := c.Submit(ctx, spec)
			if err != nil {
				log.Fatal(err)
			}
			jobs = append(jobs, st.ID)
		}
	}

	// Drain every submitted job through its event stream.
	for _, id := range jobs {
		events, err := c.Watch(ctx, id)
		if err != nil {
			log.Fatal(err)
		}
		for range events {
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	ing := m.Ingest
	fmt.Printf("\ningest: %d batches, %d mutations, %d flushes -> %d snapshots built\n",
		ing.Batches, ing.Mutations, ing.Flushes, ing.SnapshotsBuilt)
	fmt.Printf("overlay sharing: %d partitions rebuilt, %d shared (ratio %.2f)\n",
		ing.PartsRebuilt, ing.PartsShared, ing.SharedRatio)
	fmt.Printf("snapshot lifecycle: %d live (cap %d), %d evicted by retention GC\n",
		ing.SnapshotsLive, ing.RetainSnapshots, ing.SnapshotsEvicted)

	done, err := c.List(ctx, api.ListOptions{State: api.JobDone, Labels: map[string]string{"feed": "stream"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("jobs converged against the rolling series: %d/%d\n", done.Total, len(jobs))

	if err := svc.Stop(context.Background()); err != nil {
		log.Fatal(err)
	}
}
