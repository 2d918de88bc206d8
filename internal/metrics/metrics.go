// Package metrics defines the per-job and per-run measurements every engine
// reports: the virtual-time breakdown between data access and vertex
// processing (Fig. 10/17), completion times (Fig. 2/8/9/14/16), CPU
// utilization (Fig. 15), and the memory-hierarchy counters behind
// Figs. 11–13 and 18–19.
package metrics

import (
	"time"

	"cgraph/internal/memsim"
)

// JobMetrics is one job's account of a run. Times are simulated
// microseconds.
type JobMetrics struct {
	JobID int
	Name  string

	// AccessTime is time spent moving data (partition and private-table
	// loads, disk reads, sync traffic).
	AccessTime float64
	// ComputeTime is pure vertex-processing time.
	ComputeTime float64
	// SyncTime is the Push/state-synchronization share of AccessTime
	// bookkeeping (already included in AccessTime).
	SyncTime float64

	SubmitAt   float64
	FinishAt   float64
	Iterations int

	Edges       int64
	Vertices    int64
	SyncEntries int64
}

// ExecTime is the job's virtual wall time from submission to convergence.
func (m JobMetrics) ExecTime() float64 { return m.FinishAt - m.SubmitAt }

// AccessRatio is the fraction of the access+compute total spent on data
// access (the paper's "ratio of data access cost to computation").
func (m JobMetrics) AccessRatio() float64 {
	total := m.AccessTime + m.ComputeTime
	if total == 0 {
		return 0
	}
	return m.AccessTime / total
}

// RunReport aggregates one engine run.
type RunReport struct {
	System  string
	Workers int

	Jobs []JobMetrics
	// Makespan is the virtual time at which the last job converged.
	Makespan float64
	// BusyCoreTime is Σ per-core compute microseconds actually used.
	BusyCoreTime float64
	// Counters snapshots the memory hierarchy at the end of the run.
	Counters memsim.Counters
	// WallClock is the real elapsed time, reported for sanity only.
	WallClock time.Duration
}

// SumExecTime is the sequential-equivalent total (sum of per-job times).
func (r *RunReport) SumExecTime() float64 {
	var sum float64
	for _, j := range r.Jobs {
		sum += j.ExecTime()
	}
	return sum
}

// AvgExecTime is the mean per-job execution time (Fig. 2a).
func (r *RunReport) AvgExecTime() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	return r.SumExecTime() / float64(len(r.Jobs))
}

// AvgAccessTime is the mean per-job data-access time (Fig. 2b).
func (r *RunReport) AvgAccessTime() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	var sum float64
	for _, j := range r.Jobs {
		sum += j.AccessTime
	}
	return sum / float64(len(r.Jobs))
}

// CPUUtilization is the fraction of core-time doing vertex processing over
// the makespan (Fig. 15), in percent.
func (r *RunReport) CPUUtilization() float64 {
	if r.Makespan == 0 || r.Workers == 0 {
		return 0
	}
	u := 100 * r.BusyCoreTime / (r.Makespan * float64(r.Workers))
	if u > 100 {
		u = 100
	}
	return u
}

// AccessComputeBreakdown returns the run-level (access%, compute%) split.
func (r *RunReport) AccessComputeBreakdown() (access, compute float64) {
	var a, c float64
	for _, j := range r.Jobs {
		a += j.AccessTime
		c += j.ComputeTime
	}
	total := a + c
	if total == 0 {
		return 0, 0
	}
	return 100 * a / total, 100 * c / total
}

// Job returns the metrics of the named job (first match), or nil.
func (r *RunReport) Job(name string) *JobMetrics {
	for i := range r.Jobs {
		if r.Jobs[i].Name == name {
			return &r.Jobs[i]
		}
	}
	return nil
}
