// Package trace keeps bounded, in-memory execution traces for the
// concurrent engine: one compact record per LTP round (wall time, units
// loaded and simulated makespan, per-job work split) in a ring of
// configurable depth, plus a per-job round-by-round timeline that survives
// job retirement so a compacted job's history can still be queried.
// Everything is fixed-size — a resident service tracing forever never grows
// without bound.
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

// Timeline is one job's retained round-by-round history.
type Timeline struct {
	// JobID is the engine job ID.
	JobID int
	// State is the terminal state name once the job retired, "" while it
	// runs.
	State string
	// Dropped counts rounds truncated off the front of the timeline, which
	// is bounded by the recorder depth.
	Dropped int
	// Rounds is the retained timeline, oldest first.
	Rounds []JobRound
}

// Recorder holds the bounded rings. The zero value is unusable; a nil
// *Recorder is the disabled tracer (methods on it are not safe — callers
// gate on nil).
type Recorder struct {
	mu     sync.Mutex
	depth  int
	rounds []Round
	live   map[int]*Timeline
	// retired keeps the most recent terminal-job timelines (ring of depth)
	// so traces stay retrievable after the service compacts the job.
	retired    []*Timeline
	retiredIdx map[int]*Timeline
}

// New returns a recorder keeping the last depth rounds per ring, or nil
// when depth <= 0 (tracing disabled).
func New(depth int) *Recorder {
	if depth <= 0 {
		return nil
	}
	return &Recorder{
		depth:      depth,
		live:       make(map[int]*Timeline),
		retiredIdx: make(map[int]*Timeline),
	}
}

// RecordRound appends a round record and folds its per-job entries into
// the job timelines.
func (r *Recorder) RecordRound(rd Round) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds = append(r.rounds, rd)
	if len(r.rounds) > r.depth {
		r.rounds = r.rounds[1:]
	}
	for _, jr := range rd.Jobs {
		tl, ok := r.live[jr.JobID]
		if !ok {
			// Completion is detected mid-round, before the round record is
			// cut, so a job's final round arrives after its Retire. Fold it
			// into the retained timeline rather than resurrecting a live one
			// (which would shadow the full history on lookup).
			if rtl, retired := r.retiredIdx[jr.JobID]; retired {
				tl = rtl
			} else {
				tl = &Timeline{JobID: jr.JobID}
				r.live[tl.JobID] = tl
			}
		}
		tl.Rounds = append(tl.Rounds, jr)
		if len(tl.Rounds) > r.depth {
			tl.Rounds = tl.Rounds[1:]
			tl.Dropped++
		}
	}
}

// Retire moves a job's timeline into the retained terminal ring and stamps
// its terminal state. Unknown jobs (never traced, or already evicted from
// the ring) get an empty retained timeline so state is still recorded.
func (r *Recorder) Retire(jobID int, state string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tl, ok := r.live[jobID]
	if !ok {
		// No live timeline: the job never traced a round, or this is a
		// repeat Retire after its final round folded into the retained
		// timeline — keep the retained rounds and just restamp the state.
		if old, dup := r.retiredIdx[jobID]; dup {
			old.State = state
			return
		}
		tl = &Timeline{JobID: jobID}
	} else {
		delete(r.live, jobID)
	}
	tl.State = state
	if old, dup := r.retiredIdx[jobID]; dup {
		// Replace in place (re-retire of a resubmitted engine ID).
		*old = *tl
		return
	}
	r.retired = append(r.retired, tl)
	r.retiredIdx[jobID] = tl
	if len(r.retired) > r.depth {
		delete(r.retiredIdx, r.retired[0].JobID)
		r.retired[0] = nil
		r.retired = r.retired[1:]
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

// Job returns a copy of the job's timeline — live if the job is still
// running, else from the retained terminal ring.
func (r *Recorder) Job(jobID int) (Timeline, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tl, ok := r.live[jobID]
	if !ok {
		tl, ok = r.retiredIdx[jobID]
	}
	if !ok {
		return Timeline{}, false
	}
	out := *tl
	out.Rounds = append([]JobRound(nil), tl.Rounds...)
	return out, true
}
