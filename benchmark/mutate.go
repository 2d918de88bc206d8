package main

import (
	"math/rand"

	"cgraph"
	"cgraph/api"
	"cgraph/model"
)

// mutation is one generated edge mutation, before it is put into the wire
// (api) or the in-process (cgraph) form.
type mutation struct {
	op   api.MutationOp
	slot int
	edge model.Edge
}

func pairKey(e model.Edge) uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }

// mirror is the benchmark's own copy of the evolving edge list, kept without
// knowing how the system lays edges out in slots. Even slots of the base
// list are only ever rewritten, so the mirror tracks them by slot; every
// other edge (odd base slots, added edges) is only ever removed or added by
// endpoint pair, so the mirror tracks those as a multiset. pairs counts the
// live copies of each endpoint pair over both parts: the generator removes
// only pairs that are unique, so the system cannot remove a different copy
// than the mirror does.
type mirror struct {
	numV  int
	even  []model.Edge         // even[i] is the edge in base slot 2i
	dyn   map[uint64][]float32 // weights of the live copies of a pair
	pairs map[uint64]int
}

func newMirror(numV int, base []model.Edge) *mirror {
	m := &mirror{numV: numV, dyn: map[uint64][]float32{}, pairs: map[uint64]int{}}
	for slot, e := range base {
		if slot%2 == 0 {
			m.even = append(m.even, e)
		} else {
			m.dyn[pairKey(e)] = append(m.dyn[pairKey(e)], e.Weight)
		}
		m.pairs[pairKey(e)]++
	}
	return m
}

func (m *mirror) apply(mu mutation) {
	k := pairKey(mu.edge)
	switch mu.op {
	case api.MutationRewrite:
		m.pairs[pairKey(m.even[mu.slot/2])]--
		m.even[mu.slot/2] = mu.edge
		m.pairs[k]++
	case api.MutationAdd:
		m.dyn[k] = append(m.dyn[k], mu.edge.Weight)
		m.pairs[k]++
	case api.MutationRemove:
		delete(m.dyn, k)
		m.pairs[k]--
	}
}

// edges lists the mirror's live edges. The dynamic part comes out in map
// order, which only moves the summation order of the sum programs (they are
// compared under a tolerance); the min/max programs do not depend on it.
func (m *mirror) edges() []model.Edge {
	out := append([]model.Edge(nil), m.even...)
	for k, ws := range m.dyn {
		for _, w := range ws {
			out = append(out, model.Edge{Src: model.VertexID(k >> 32), Dst: model.VertexID(uint32(k)), Weight: w})
		}
	}
	return out
}

// deltaStructureSeed fixes which slots, pairs and endpoints the delta stream
// touches, for every run.
const deltaStructureSeed = 20180712

// mutator generates the delta stream of one run and applies it to its
// mirror as it goes. A batch is 40 % rewrites, 30 % removals and 30 %
// additions; 80 % of it lands in one hot 1/32 of the slot space, the share
// of a partition, so most flushes rebuild one partition and share the rest.
// Like the RMAT topology it mutates, the stream's structure is the same for
// every seed, and the seed draws the weights of the edges it writes: 20 s of
// it replace a sixth of the graph, and a reseeded stream moved the bytes
// allocated per job by 4 % either way.
type mutator struct {
	*mirror
	rng          *rand.Rand // structure: slots, pairs, endpoints, hot or cold
	weights      *rand.Rand // seeded: the weights of rewritten and added edges
	baseLen      int
	hotLo, hotHi int
	// hot and cold hold the pairs that removals draw from. Entries go stale
	// when a pair stops being unique; picks validate against the mirror.
	hot, cold []uint64
}

func newMutator(seed int64, numV int, base []model.Edge) *mutator {
	rng := rand.New(rand.NewSource(deltaStructureSeed))
	chunk := (len(base) + numPartitions - 1) / numPartitions
	part := rng.Intn(numPartitions)
	mu := &mutator{mirror: newMirror(numV, base), rng: rng, weights: rand.New(rand.NewSource(seed)),
		baseLen: len(base), hotLo: part * chunk, hotHi: min((part+1)*chunk, len(base))}
	for slot := 1; slot < len(base); slot += 2 {
		if slot >= mu.hotLo && slot < mu.hotHi {
			mu.hot = append(mu.hot, pairKey(base[slot]))
		} else {
			mu.cold = append(mu.cold, pairKey(base[slot]))
		}
	}
	return mu
}

// freshEdge draws an edge whose endpoint pair is neither live in the mirror
// nor used earlier in the batch.
func (mu *mutator) freshEdge(touched map[uint64]bool) model.Edge {
	for {
		e := model.Edge{
			Src:    model.VertexID(mu.rng.Intn(mu.numV)),
			Dst:    model.VertexID(mu.rng.Intn(mu.numV)),
			Weight: float32(1 + mu.weights.Intn(9)),
		}
		if k := pairKey(e); mu.pairs[k] == 0 && !touched[k] {
			touched[k] = true
			return e
		}
	}
}

// takeRemovable pops a pair that is live exactly once, among the dynamic
// edges, and untouched by this batch, from the preferred pool and then from
// the other one. ok is false when both pools ran dry.
func (mu *mutator) takeRemovable(preferHot bool, touched map[uint64]bool) (k uint64, ok bool) {
	pools := []*[]uint64{&mu.cold, &mu.hot}
	if preferHot {
		pools[0], pools[1] = pools[1], pools[0]
	}
	for _, p := range pools {
		for len(*p) > 0 {
			i := mu.rng.Intn(len(*p))
			k = (*p)[i]
			(*p)[i] = (*p)[len(*p)-1]
			*p = (*p)[:len(*p)-1]
			if mu.pairs[k] == 1 && len(mu.dyn[k]) == 1 && !touched[k] {
				touched[k] = true
				return k, true
			}
		}
	}
	return 0, false
}

// batch generates the next n mutations and applies them to the mirror.
func (mu *mutator) batch(n int) []mutation {
	nRew := n * 4 / 10
	nRem := (n - nRew) / 2
	touched := map[uint64]bool{}
	usedSlot := map[int]bool{}
	var out []mutation
	emit := func(m mutation) {
		mu.apply(m)
		out = append(out, m)
	}
	for i := 0; i < nRew; i++ {
		lo, hi := 0, mu.baseLen
		if mu.rng.Float64() < 0.8 {
			lo, hi = mu.hotLo, mu.hotHi
		}
		slot := (lo + mu.rng.Intn(hi-lo)) &^ 1
		if usedSlot[slot] {
			continue // a batch a little short of rewrites, rather than one slot twice
		}
		usedSlot[slot] = true
		touched[pairKey(mu.even[slot/2])] = true
		emit(mutation{op: api.MutationRewrite, slot: slot, edge: mu.freshEdge(touched)})
	}
	removed := 0
	for i := 0; i < nRem; i++ {
		k, ok := mu.takeRemovable(mu.rng.Float64() < 0.8, touched)
		if !ok {
			break
		}
		removed++
		emit(mutation{op: api.MutationRemove, edge: model.Edge{Src: model.VertexID(k >> 32), Dst: model.VertexID(uint32(k))}})
	}
	// As many additions as removals: the freed slots are refilled and the
	// edge list neither grows nor drifts towards hole compaction.
	for i := 0; i < removed; i++ {
		e := mu.freshEdge(touched)
		emit(mutation{op: api.MutationAdd, edge: e})
		if mu.rng.Float64() < 0.8 {
			mu.hot = append(mu.hot, pairKey(e))
		} else {
			mu.cold = append(mu.cold, pairKey(e))
		}
	}
	return out
}

func wireDelta(muts []mutation) api.Delta {
	d := api.Delta{Flush: true, Mutations: make([]api.Mutation, len(muts))}
	for i, m := range muts {
		d.Mutations[i] = api.Mutation{Op: m.op, Slot: m.slot,
			Edge: [3]float64{float64(m.edge.Src), float64(m.edge.Dst), float64(m.edge.Weight)}}
	}
	return d
}

func libraryDelta(muts []mutation) cgraph.Delta {
	ops := map[api.MutationOp]cgraph.MutationOp{
		api.MutationRewrite: cgraph.MutationRewrite,
		api.MutationAdd:     cgraph.MutationAdd,
		api.MutationRemove:  cgraph.MutationRemove,
	}
	d := cgraph.Delta{Flush: true, Mutations: make([]cgraph.Mutation, len(muts))}
	for i, m := range muts {
		d.Mutations[i] = cgraph.Mutation{Op: ops[m.op], Slot: m.slot, Edge: m.edge}
	}
	return d
}
