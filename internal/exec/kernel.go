package exec

import (
	"math"

	"cgraph/internal/bitset"
	"cgraph/internal/graph"
	"cgraph/model"
)

// The edge loops of the BSP kernel: one set, shared by Sweep, ApplyRange and
// Merge. A job whose program declared its arithmetic
// (model.Algebraic) runs loops with model.Algebra's Fold and Along inlined;
// a Filterer, and a program that declared nothing, runs the loops that call
// Acc, Contribution and Accept through the interface. Either way a loop visits
// edges in the same order and performs the same float operations, so the two
// paths leave identical bits.

// algebraOf returns the arithmetic the kernel may run in place of prog's
// methods, or the zero Algebra when it must call them.
func algebraOf(prog model.Program) model.Algebra {
	if _, filtered := prog.(model.Filterer); filtered {
		return model.Algebra{}
	}
	if a, ok := prog.(model.Algebraic); ok {
		if alg := a.Algebra(); alg.Declared() {
			return alg
		}
	}
	return model.Algebra{}
}

// csr is one direction of a partition's local adjacency.
type csr struct {
	off, dst []uint32
	w        []float32
}

// view is one (job, partition) as the kernel's loops read it, resolved once
// per call so that no loop chases the job's pointers per vertex or tests the
// direction per edge.
type view struct {
	prog   model.Program
	g      *graph.DegreeTable
	p      *graph.Partition
	dir    model.Direction
	states []model.State
	// adj[:nadj] are the CSRs a scattering vertex walks, out before in.
	adj  [2]csr
	nadj int
}

func (j *Job) view(pid int) view {
	p := j.PG.Parts[pid]
	v := view{prog: j.Prog, g: j.PG.G, p: p, dir: j.Dir, states: j.PT.States[pid]}
	if j.Dir != model.In {
		v.adj[v.nadj] = csr{p.OutOff, p.OutDst, p.OutW}
		v.nadj++
	}
	if j.Dir != model.Out {
		v.adj[v.nadj] = csr{p.InOff, p.InDst, p.InW}
		v.nadj++
	}
	return v
}

// apply applies local li, returning its scatter seed and whether it scatters.
func (v *view) apply(li uint32) (float64, bool) {
	g := v.p.Globals[li]
	return v.prog.Apply(g, &v.states[li], v.g.Degree(g, v.dir))
}

// buffer appends what local li scatters from seed to sc, one (destination,
// contribution) pair per edge, and returns the number of edges.
func (j *Job) buffer(sc *Scratch, v *view, li uint32, seed float64) int64 {
	n := len(sc.dst)
	alg := j.alg
	for _, e := range v.adj[:v.nadj] {
		lo, hi := e.off[li], e.off[li+1]
		sc.dst = append(sc.dst, e.dst[lo:hi]...)
		if alg.Declared() {
			for _, w := range e.w[lo:hi] {
				sc.contrib = append(sc.contrib, alg.Along(seed, w))
			}
			continue
		}
		for _, w := range e.w[lo:hi] {
			sc.contrib = append(sc.contrib, j.Prog.Contribution(seed, w))
		}
	}
	return int64(len(sc.dst) - n)
}

// foldBuffered folds the pairs buffer appended into states, marking
// receivers, and returns sum plus their |contribution|s.
func (j *Job) foldBuffered(states []model.State, recv *bitset.Set, dst []uint32, contrib []float64, sum float64) float64 {
	if alg := j.alg; alg.Declared() {
		for i, d := range dst {
			c := contrib[i]
			states[d].Delta = alg.Fold(states[d].Delta, c)
			recv.Set(int(d))
			sum += math.Abs(c)
		}
		return sum
	}
	filter := j.filter
	for i, d := range dst {
		c := contrib[i]
		if filter != nil && !filter.Accept(states[d], c) {
			continue
		}
		states[d].Delta = j.Prog.Acc(states[d].Delta, c)
		recv.Set(int(d))
		sum += math.Abs(c)
	}
	return sum
}

// scatter folds what the vertices locals[i] scatter from seeds[i] straight
// into the partition's states, marking receivers, and returns the
// |contribution| sum. It visits the vertices in the order given (ascending
// local), each one's out-edges before its in-edges, each in CSR order: the
// order buffer appends pairs in and foldBuffered folds them in.
func (j *Job) scatter(v *view, recv *bitset.Set, locals []uint32, seeds []float64) float64 {
	if v.nadj == 1 {
		return j.fold(v.states, recv, locals, seeds, &v.adj[0], 0)
	}
	var sum float64
	for i := range locals {
		sum = j.fold(v.states, recv, locals[i:i+1], seeds[i:i+1], &v.adj[0], sum)
		sum = j.fold(v.states, recv, locals[i:i+1], seeds[i:i+1], &v.adj[1], sum)
	}
	return sum
}

// fold is scatter along one CSR, continuing the running sum: the declared
// arithmetic in line, or the program's methods per edge.
func (j *Job) fold(states []model.State, recv *bitset.Set, locals []uint32, seeds []float64, e *csr, sum float64) float64 {
	if j.alg.Declared() {
		return foldDeclared(j.alg, states, recv, locals, seeds, e, sum)
	}
	off, dsts, ws := e.off, e.dst, e.w
	filter := j.filter
	for i, li := range locals {
		seed := seeds[i]
		for ei := off[li]; ei < off[li+1]; ei++ {
			c := j.Prog.Contribution(seed, ws[ei])
			d := dsts[ei]
			if filter != nil && !filter.Accept(states[d], c) {
				continue
			}
			states[d].Delta = j.Prog.Acc(states[d].Delta, c)
			recv.Set(int(d))
			sum += math.Abs(c)
		}
	}
	return sum
}

// foldDeclared is fold for a declared algebra; a function of its own so that
// the loop keeps its operands in registers.
func foldDeclared(alg model.Algebra, states []model.State, recv *bitset.Set, locals []uint32, seeds []float64, e *csr, sum float64) float64 {
	for i, li := range locals {
		seed := seeds[i]
		lo, hi := e.off[li], e.off[li+1]
		to, w := e.dst[lo:hi], e.w[lo:hi]
		for k, d := range to {
			c := alg.Along(seed, w[k])
			states[d].Delta = alg.Fold(states[d].Delta, c)
			recv.Set(int(d))
			sum += math.Abs(c)
		}
	}
	return sum
}
