// Package baseline re-implements the comparator systems of §4 on the shared
// substrate, driven by the deterministic discrete-event simulator. Each
// system keeps the paper's defining data-access discipline:
//
//   - Seraph: one graph copy in (simulated) memory shared by all jobs, but
//     every job traverses partitions in its own order and loads them into
//     the cache individually. Snapshots are stored as full per-version
//     copies (no incremental sharing).
//   - Seraph-VT: Seraph plus Version-Traveler-style incremental snapshot
//     storage — unchanged partitions are shared across versions.
//   - NXgraph: a single-job-optimized engine with destination-sorted
//     sub-shards: excellent streaming locality but one private structure
//     copy per job.
//   - CLIP: out-of-core engine with per-job copies, reentry of loaded
//     partitions (for idempotent min/max programs) and beyond-neighborhood
//     accesses into a flat global state array, charged as random block
//     touches.
//   - Sequential: jobs executed one after another on the Seraph discipline
//     with all cores — the normalization baseline of Fig. 2 and Fig. 19.
//
// All systems compute through internal/exec, so their results are identical
// to CGraph's; only orchestration and data movement differ.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"cgraph/internal/des"
	"cgraph/internal/exec"
	"cgraph/internal/graph"
	"cgraph/internal/memsim"
	"cgraph/internal/metrics"
	"cgraph/internal/storage"
	"cgraph/model"
)

// System names a baseline engine.
type System string

// The comparator systems of §4.
const (
	Seraph     System = "Seraph"
	SeraphVT   System = "Seraph-VT"
	NXgraph    System = "NXgraph"
	CLIP       System = "CLIP"
	Sequential System = "Sequential"
)

// Config tunes a baseline run.
type Config struct {
	System  System
	Workers int
	Hier    *memsim.Hierarchy
	// MaxIterations bounds each job (default 1<<20).
	MaxIterations int
	// ClipMaxPasses bounds CLIP's reentry sweeps (default 16).
	ClipMaxPasses int
}

// JobSpec is one job to run: the program plus the arrival timestamp used
// for snapshot binding.
type JobSpec struct {
	Prog    model.Program
	Arrival int64
}

type runState struct {
	cfg      Config
	sim      *des.Sim
	busyCore float64
	err      error
}

// bwContention is the processor-sharing factor on the data-access channel:
// n concurrently running jobs each see 1/n of the bandwidth (§2.1's
// "contention among the jobs for the data access channel").
func (rs *runState) bwContention() float64 {
	active := rs.sim.Active()
	if active < 1 {
		active = 1
	}
	streams := rs.cfg.Hier.Cost().ChannelStreams
	if streams <= 0 {
		streams = 1
	}
	f := float64(active) / streams
	if f < 1 {
		return 1
	}
	return f
}

func (rs *runState) coresPerJob() float64 {
	active := rs.sim.Active()
	if active < 1 {
		active = 1
	}
	c := float64(rs.cfg.Workers) / float64(active)
	if c < 1 {
		c = 1
	}
	if c > float64(rs.cfg.Workers) {
		c = float64(rs.cfg.Workers)
	}
	return c
}

// bjob is one baseline job as a DES process.
type bjob struct {
	rs      *runState
	sys     System
	job     *exec.Job
	snapIdx int
	m       *metrics.JobMetrics
	queue   []int
	sc      exec.Scratch
	numJobs int
	iters   int
}

func (b *bjob) structItem(p *graph.Partition) memsim.ItemID {
	switch b.sys {
	case Seraph, Sequential:
		// Shared in-memory copy, but one full copy per snapshot version:
		// encode the snapshot index so versions never alias.
		return memsim.ItemID{Kind: memsim.Struct, UID: p.UID, Job: int32(-1000 - b.snapIdx)}
	case SeraphVT:
		// Incremental versions: unchanged partitions alias across
		// snapshots via the shared UID.
		return memsim.ItemID{Kind: memsim.Struct, UID: p.UID, Job: -1}
	default: // NXgraph, CLIP: per-job private copies.
		return memsim.ItemID{Kind: memsim.Struct, UID: p.UID, Job: int32(b.job.ID)}
	}
}

func (b *bjob) privateItem(p *graph.Partition) memsim.ItemID {
	return memsim.ItemID{Kind: memsim.Private, UID: p.UID, Job: int32(b.job.ID)}
}

// buildQueue registers this iteration's active partitions in the job's own
// traversal order: each job starts at a different offset, modelling the
// "individual manner along different graph paths" of §2.1.
func (b *bjob) buildQueue() {
	parts := b.job.PT.ActiveParts()
	if len(parts) == 0 {
		b.queue = nil
		return
	}
	total := len(b.job.PG.Parts)
	offset := 0
	if b.numJobs > 0 {
		offset = b.job.ID * total / b.numJobs
	}
	sort.Slice(parts, func(i, j int) bool {
		a := (parts[i] + total - offset) % total
		c := (parts[j] + total - offset) % total
		return a < c
	})
	b.queue = parts
}

// Step processes one partition or, when the iteration's queue is drained,
// one push/sync phase.
func (b *bjob) Step(now float64) (float64, bool) {
	h := b.rs.cfg.Hier
	cost := h.Cost()

	if len(b.queue) == 0 {
		// End of iteration: Algorithm 2 push, then either converge or
		// start the next iteration.
		sum := b.job.FinishIteration()
		t := cost.SyncTime(sum.Entries)
		for _, tp := range sum.TouchedParts {
			p := b.job.PG.Parts[tp]
			lr := h.Load(b.privateItem(p), b.job.PT.Bytes[tp], false)
			t += lr.Time * b.rs.bwContention()
		}
		b.m.AccessTime += t
		b.m.SyncTime += t
		if b.iters++; b.iters > b.rs.cfg.MaxIterations && !b.job.Done {
			b.rs.err = fmt.Errorf("baseline %s: job %s exceeded %d iterations", b.sys, b.job.Prog.Name(), b.rs.cfg.MaxIterations)
			b.job.Done = true
		}
		if b.job.Done {
			b.finish(now + t)
			return t, true
		}
		b.buildQueue()
		return t, false
	}

	pid := b.queue[0]
	b.queue = b.queue[1:]
	p := b.job.PG.Parts[pid]

	bw := b.rs.bwContention()
	lr := h.Load(b.structItem(p), p.StructBytes, false)
	plr := h.Load(b.privateItem(p), b.job.PT.Bytes[pid], false)
	access := (lr.Time + plr.Time) * bw
	t := access

	var stats exec.Stats
	if b.sys == CLIP {
		stats = b.job.ProcessPartitionReentrant(pid, b.rs.cfg.ClipMaxPasses)
		// Beyond-neighborhood accesses: scattered state touches into the
		// job's flat global vertex array.
		blocks := stats.Edges / 4
		hit := clipHitFraction(h, b.job.PG.G.N, b.rs.sim.Active())
		rt := h.RandomTouch(blocks, hit) * bw
		t += rt
		access += rt
	} else {
		stats = b.job.ProcessPartition(pid, &b.sc)
	}

	work := cost.ComputeTime(stats.Edges, stats.Vertices)
	t += work / b.rs.coresPerJob()
	b.rs.busyCore += work
	b.m.AccessTime += access
	b.m.ComputeTime += work
	return t, false
}

func (b *bjob) finish(at float64) {
	b.m.FinishAt = at
	b.m.Iterations = b.job.Iterations
	b.m.Edges = b.job.EdgesProcessed
	b.m.Vertices = b.job.VerticesApplied
	b.m.SyncEntries = b.job.SyncEntries
}

// clipHitFraction estimates how much of the flat per-job state arrays stays
// cache-resident when `active` CLIP jobs compete for the cache.
func clipHitFraction(h *memsim.Hierarchy, numVertices, active int) float64 {
	if active < 1 {
		active = 1
	}
	stateBytes := int64(numVertices) * 16 * int64(active)
	if stateBytes <= 0 {
		return 1
	}
	f := float64(h.Config().CacheBytes) / 4 / float64(stateBytes)
	if f > 1 {
		f = 1
	}
	return f
}

// Run executes the job specs under the configured baseline system and
// returns the report plus the finished jobs (for result extraction).
func Run(cfg Config, store *storage.SnapshotStore, specs []JobSpec) (*metrics.RunReport, []*exec.Job, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Hier == nil {
		cfg.Hier = memsim.Unlimited()
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 1 << 20
	}
	if cfg.ClipMaxPasses <= 0 {
		cfg.ClipMaxPasses = 16
	}
	wall := time.Now()

	rs := &runState{cfg: cfg, sim: des.New()}
	var jobs []*bjob
	for i, spec := range specs {
		snap, idx := store.ResolveIndex(spec.Arrival)
		j := exec.NewJob(i, spec.Prog, snap.PG)
		b := &bjob{
			rs:      rs,
			sys:     cfg.System,
			job:     j,
			snapIdx: idx,
			m:       &metrics.JobMetrics{JobID: i, Name: spec.Prog.Name()},
			numJobs: len(specs),
		}
		b.buildQueue()
		jobs = append(jobs, b)
	}

	var makespan float64
	if cfg.System == Sequential {
		// One job at a time, all cores each.
		var at float64
		for _, b := range jobs {
			b.m.SubmitAt = at
			b.numJobs = 1
			b.buildQueue()
			rs.sim.Spawn(b, at)
			at = rs.sim.Run()
		}
		makespan = at
	} else {
		for _, b := range jobs {
			b.m.SubmitAt = 0
			rs.sim.Spawn(b, 0)
		}
		makespan = rs.sim.Run()
	}
	if rs.err != nil {
		return nil, nil, rs.err
	}

	rep := &metrics.RunReport{
		System:       string(cfg.System),
		Workers:      cfg.Workers,
		Makespan:     makespan,
		BusyCoreTime: rs.busyCore,
		Counters:     cfg.Hier.Counters(),
		WallClock:    time.Since(wall),
	}
	var finished []*exec.Job
	for _, b := range jobs {
		rep.Jobs = append(rep.Jobs, *b.m)
		finished = append(finished, b.job)
	}
	return rep, finished, nil
}
