// Package trace keeps the concurrent engine's bounded round ring: one
// compact record per LTP round (wall time, units loaded and simulated
// makespan, per-job work split), the newest depth rounds only, so a
// resident service tracing forever never grows without bound. It keeps no
// per-job state: a job's own round history is its "job.round" spans in the
// span store.
package trace

import (
	"sync"
	"time"
)

// JobRound is one job's share of one round.
type JobRound struct {
	// JobID is the engine job ID the entry belongs to.
	JobID int
	// Round is the 1-based engine round index.
	Round int64
	// Wall is the measured wall-clock duration of the whole round.
	Wall time.Duration
	// Parts is the number of active partitions the job had scheduled.
	Parts int
	// Pushes is the number of iterations the job closed (sync pushes).
	Pushes int
	// AccessUS / ComputeUS are the job's simulated access and compute time
	// charged during the round.
	AccessUS  float64
	ComputeUS float64
	// VirtualTimeUS is the engine's simulated clock at round end.
	VirtualTimeUS float64
}

// Round is the per-round trace record (one per engine round while the
// recorder's depth is positive).
type Round struct {
	// Round is the 1-based engine round index.
	Round int64
	// Start is the wall-clock time the round began.
	Start time.Time
	// Wall is the measured wall-clock duration of the round.
	Wall time.Duration
	// VirtualTimeUS is the engine's simulated clock at round end.
	VirtualTimeUS float64
	// Units is the number of (snapshot, partition) units the round loaded.
	Units int
	// MakespanUS is how much the round advanced the simulated clock.
	MakespanUS float64
	// Jobs is the per-job work split, one entry per job active this round.
	Jobs []JobRound
	// Tasks / Steals are the work-stealing executor's counts for the
	// round's task set: one task per sweep (a job's push runs inside its
	// last sweep) plus one close per job with no sweep, and the successful
	// steal operations among them.
	Tasks  int64
	Steals int64
	// Skipped counts the (job, partition) pairs whose frontier was empty
	// at round start — converged regions excluded before scheduling.
	Skipped int64
}

// Recorder holds the bounded round ring. A nil *Recorder is the disabled
// tracer (methods on it are not safe — callers gate on nil).
type Recorder struct {
	mu     sync.Mutex
	depth  int
	rounds []Round
}

// New returns a recorder keeping the last depth rounds, or nil when
// depth <= 0 (tracing disabled).
func New(depth int) *Recorder {
	if depth <= 0 {
		return nil
	}
	return &Recorder{depth: depth}
}

// RecordRound appends a round record, dropping the oldest beyond depth.
func (r *Recorder) RecordRound(rd Round) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds = append(r.rounds, rd)
	if len(r.rounds) > r.depth {
		r.rounds = r.rounds[1:]
	}
}

// Rounds returns up to limit of the most recent round records, oldest
// first. limit <= 0 returns everything retained.
func (r *Recorder) Rounds(limit int) []Round {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.rounds)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Round, n)
	copy(out, r.rounds[len(r.rounds)-n:])
	return out
}
