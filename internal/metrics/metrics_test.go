package metrics

import (
	"testing"
	"testing/quick"
)

func sample() *RunReport {
	return &RunReport{
		System:  "X",
		Workers: 4,
		Jobs: []JobMetrics{
			{JobID: 0, Name: "A", AccessTime: 60, ComputeTime: 40, SubmitAt: 0, FinishAt: 100},
			{JobID: 1, Name: "B", AccessTime: 20, ComputeTime: 20, SubmitAt: 0, FinishAt: 50},
		},
		Makespan:     100,
		BusyCoreTime: 120,
	}
}

func TestExecAndAccessAggregates(t *testing.T) {
	r := sample()
	if r.Makespan != 100 {
		t.Fatalf("Makespan = %v", r.Makespan)
	}
	if r.SumExecTime() != 150 {
		t.Fatalf("SumExecTime = %v", r.SumExecTime())
	}
	if r.AvgExecTime() != 75 {
		t.Fatalf("AvgExecTime = %v", r.AvgExecTime())
	}
	if r.AvgAccessTime() != 40 {
		t.Fatalf("AvgAccessTime = %v", r.AvgAccessTime())
	}
}

func TestCPUUtilization(t *testing.T) {
	r := sample()
	if got := r.CPUUtilization(); got != 30 {
		t.Fatalf("CPUUtilization = %v, want 30", got)
	}
	r.BusyCoreTime = 1e9
	if got := r.CPUUtilization(); got != 100 {
		t.Fatalf("CPUUtilization must clamp at 100, got %v", got)
	}
	empty := &RunReport{}
	if empty.CPUUtilization() != 0 {
		t.Fatal("zero report utilization must be 0")
	}
}

func TestBreakdownAndRatio(t *testing.T) {
	r := sample()
	a, c := r.AccessComputeBreakdown()
	if a+c < 99.99 || a+c > 100.01 {
		t.Fatalf("breakdown doesn't sum to 100: %v + %v", a, c)
	}
	jm := r.Job("A")
	if jm == nil || jm.AccessRatio() != 0.6 {
		t.Fatalf("Job/AccessRatio broken: %+v", jm)
	}
	if r.Job("missing") != nil {
		t.Fatal("missing job must be nil")
	}
	if (JobMetrics{}).AccessRatio() != 0 {
		t.Fatal("empty ratio must be 0")
	}
}

func TestAggregatesNonNegativeQuick(t *testing.T) {
	f := func(access, compute, finish []float64) bool {
		r := &RunReport{Workers: 2, Makespan: 1}
		for i := range access {
			a := abs(access[i])
			var c, fin float64
			if i < len(compute) {
				c = abs(compute[i])
			}
			if i < len(finish) {
				fin = abs(finish[i])
			}
			r.Jobs = append(r.Jobs, JobMetrics{AccessTime: a, ComputeTime: c, FinishAt: fin})
			r.BusyCoreTime += c
		}
		aPct, cPct := r.AccessComputeBreakdown()
		if aPct < 0 || aPct > 100 || cPct < 0 || cPct > 100 {
			return false
		}
		u := r.CPUUtilization()
		return u >= 0 && u <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 || x != x { // negatives and NaN normalize to 0
		return 0
	}
	if x > 1e12 { // clamp so sums cannot overflow to +Inf
		return 1e12
	}
	return x
}

func TestEmptyAverages(t *testing.T) {
	r := &RunReport{}
	if r.AvgExecTime() != 0 || r.AvgAccessTime() != 0 {
		t.Fatal("empty report averages must be 0")
	}
}
