package exec

import (
	"fmt"
	"math"

	"cgraph/model"
)

// CheckReplicaConsistency verifies the Push invariant: after a push every
// replica of every vertex holds the same value.
func (j *Job) CheckReplicaConsistency() error {
	for v := 0; v < j.PG.G.N; v++ {
		locs := j.PG.ReplicaLocations(model.VertexID(v))
		if len(locs) < 2 {
			continue
		}
		first := j.PT.States[locs[0].Part][locs[0].Local].Value
		for _, loc := range locs[1:] {
			got := j.PT.States[loc.Part][loc.Local].Value
			if got != first && !(math.IsNaN(got) && math.IsNaN(first)) {
				return fmt.Errorf("vertex %d: replica value %v != master value %v", v, got, first)
			}
		}
	}
	return nil
}

// RunToConvergence drives the job with synchronous whole-graph rounds until
// completion — the minimal correct engine the kernel tests run jobs on. It
// fails if the job does not converge within maxRounds iterations.
func RunToConvergence(j *Job, maxRounds int) error {
	sc := &Scratch{}
	for r := 0; r < maxRounds; r++ {
		if j.Done {
			return nil
		}
		for pid := range j.PG.Parts {
			if j.PT.ActiveCount[pid] > 0 {
				j.ProcessPartition(pid, sc)
			}
		}
		j.FinishIteration()
	}
	if j.Done {
		return nil
	}
	return fmt.Errorf("exec: job %s did not converge in %d rounds", j.Prog.Name(), maxRounds)
}
