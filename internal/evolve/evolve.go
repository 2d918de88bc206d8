// Package evolve owns the state of an evolving graph's snapshot series
// (§3.2.1, Fig. 5): the authoritative edge list, the vertex-space size, the
// free-slot list of removal holes, the lazy remove index and the compaction
// count. Its core is one step that turns that state plus a batch of edge
// mutations into the next snapshot, derived from the previous one through
// graph.Restructure so every partition the batch did not touch stays
// pointer-shared. A step is all or nothing: an undo journal restores the
// state exactly when the batch, the derivation or the publish fails.
//
// The property each step keeps ("Formal Foundations of Continuous Graph
// Processing"): a snapshot in the series equals a Cut of a batch build of
// the same edge list — its degree table (vertex space, slot and live-edge
// counts, per-vertex degrees) exactly, and each partition field by field —
// except that a shared partition keeps the AvgDegree it was built with.
package evolve

import (
	"errors"
	"fmt"
	"slices"

	"cgraph/internal/graph"
	"cgraph/internal/ingest"
	"cgraph/model"
)

const (
	// CompactRatio is the hole-compaction trigger: when a delta step is
	// about to derive a snapshot and at least this share of the edge slots
	// are removal holes, the list is compacted in place first, so a long
	// remove-heavy stream cannot leave the partitions scanning mostly-dead
	// slots forever. Compaction recuts every partition at or after the
	// first hole, so it is deliberately rare.
	CompactRatio = 0.25
	// MaxVertexGrowth bounds how far beyond the current vertex space one
	// batch's mutations may reach: vertex tables are dense up to the
	// largest id, so one tiny add_vertex naming id 2^32-2 would otherwise
	// force a multi-gigabyte allocation.
	MaxVertexGrowth = 1 << 20
)

// Series is the mutable state behind a snapshot series. It is not safe for
// concurrent use; its owner serializes calls.
type Series struct {
	edges       []model.Edge
	numVertices int
	// free lists the slots holding removal holes (model.HoleEdge). Removes
	// punch holes instead of swapping the tail in, so a remove touches only
	// its own slot's chunk; adds refill the most recently freed slot first.
	free []int
	// index maps an endpoint pair (edgeKey) to the slots holding it, for
	// removes. Built on the first remove, maintained incrementally, dropped
	// by compaction.
	index       map[uint64][]int
	compactions int64
}

// New starts a series over a copy of edges with the given vertex-space
// size (the base snapshot's N).
func New(edges []model.Edge, numVertices int) *Series {
	return &Series{edges: slices.Clone(edges), numVertices: numVertices}
}

// Slots returns the edge list's length, holes included.
func (s *Series) Slots() int { return len(s.edges) }

// NumVertices returns the vertex-space size of the latest snapshot.
func (s *Series) NumVertices() int { return s.numVertices }

// Compactions counts the hole-compaction passes delta steps have run.
func (s *Series) Compactions() int64 { return s.compactions }

// Edges returns a copy of the edge list, holes included.
func (s *Series) Edges() []model.Edge { return slices.Clone(s.edges) }

// Step reports one step.
type Step struct {
	// Result counts the step's slots and partitions; Built is set with PG,
	// and Timestamp is left to the publisher.
	ingest.Result
	// PG is the derived snapshot; nil when the step failed or every
	// mutation was a no-op.
	PG *graph.PGraph
	// Path names the snapshot's shape: "overlay" when the slot count and
	// vertex space are unchanged, "restructure" when either moved, and ""
	// when no snapshot was derived.
	Path string
}

// CheckGrowth rejects a batch whose edge endpoints or added vertices reach
// past MaxVertexGrowth beyond a vertex space of numVertices (and so the
// model.NoVertex sentinel). Remove endpoints never grow the space — an
// absent edge just misses — so they are exempt.
func CheckGrowth(numVertices int, muts []ingest.Mutation) error {
	maxID := model.VertexID(min(int64(numVertices)+MaxVertexGrowth-1, int64(model.NoVertex)-1))
	for _, m := range muts {
		v := m.Vertex
		switch m.Op {
		case ingest.Rewrite, ingest.AddEdge:
			v = max(m.Edge.Src, m.Edge.Dst)
		case ingest.RemoveEdge:
			continue
		}
		if v > maxID {
			return fmt.Errorf("evolve: vertex id %d exceeds the vertex-space growth bound %d (current space %d + max growth %d)",
				v, maxID, numVertices, MaxVertexGrowth)
		}
	}
	return nil
}

// Apply is one delta step: it applies a coalesced batch (rewrites by
// ascending slot, then removes, adds and vertex growth, the order
// ingest flushes in) to the edge list in place — O(|batch|), never
// O(|E|); safe because a snapshot copies edge data into its own CSRs, so
// none aliases the list — runs hole compaction when the holes reach
// CompactRatio, derives the next snapshot from prev and hands it to
// publish. A batch in which every op is a no-op derives nothing and reports
// only its misses.
func (s *Series) Apply(prev *graph.PGraph, muts []ingest.Mutation, publish func(*graph.PGraph) error) (Step, error) {
	return s.step(prev, muts, true, false, publish)
}

// Replace is the full-list step: edges must have the current slot count,
// and the slots it rewrites become Rewrite mutations of one step that
// always derives a snapshot — even for an identical list — and never
// compacts, so the caller's next list still lines up slot for slot. A slot
// rewritten to model.HoleEdge joins the free list.
func (s *Series) Replace(prev *graph.PGraph, edges []model.Edge, publish func(*graph.PGraph) error) (Step, error) {
	if len(edges) != len(s.edges) {
		return Step{}, fmt.Errorf("evolve: snapshot edge list has %d slots, the series %d (snapshots are slot rewrites of the current list)", len(edges), len(s.edges))
	}
	var muts []ingest.Mutation
	for i, e := range edges {
		if !same(s.edges[i], e) {
			muts = append(muts, ingest.Mutation{Op: ingest.Rewrite, Slot: i, Edge: e})
		}
	}
	return s.step(prev, muts, false, true, publish)
}

// same compares two slot contents; holes carry a NaN weight, so two holes
// are equal only by IsHole.
func same(a, b model.Edge) bool { return a == b || a.IsHole() && b.IsHole() }

// edgeKey packs an edge's endpoint pair into the remove index's key.
func edgeKey(e model.Edge) uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }

// journal records what a step changed, so undo can restore the series
// exactly.
type journal struct {
	writes      []write
	preCompact  []model.Edge // the whole list, when compaction ran
	free        []int
	index       map[uint64][]int
	keys        map[uint64][]int // pre-step slot lists of touched index keys; nil = absent
	numVertices int
	compactions int64
}

// write is one journaled slot change; append marks a slot appended at the
// end of the list.
type write struct {
	slot   int
	old    model.Edge
	append bool
}

// step is the one step Apply and Replace share: compact enables hole
// compaction, always derives a snapshot even when no mutation changed the
// list or the vertex space.
func (s *Series) step(prev *graph.PGraph, muts []ingest.Mutation, compact, always bool, publish func(*graph.PGraph) error) (Step, error) {
	j := &journal{
		free:        slices.Clone(s.free),
		index:       s.index,
		keys:        make(map[uint64][]int),
		numVertices: s.numVertices,
		compactions: s.compactions,
	}
	prevLen := len(s.edges)
	changed := make([]int, 0, len(muts))
	misses := 0
	for _, m := range muts {
		switch m.Op {
		case ingest.Rewrite:
			if m.Slot >= len(s.edges) {
				misses++
				continue
			}
			old := s.edges[m.Slot]
			if same(old, m.Edge) {
				continue
			}
			if old.IsHole() {
				// Reviving a freed slot takes it off the free list, so an
				// add cannot claim it too.
				s.free = swapDelete(s.free, m.Slot)
			} else {
				s.indexDrop(j, old, m.Slot)
			}
			s.set(j, m.Slot, m.Edge)
			changed = append(changed, m.Slot)
		case ingest.RemoveEdge:
			slot, ok := s.indexTake(j, m.Edge)
			if !ok {
				misses++
				continue
			}
			s.set(j, slot, model.HoleEdge())
			changed = append(changed, slot)
		case ingest.AddEdge:
			slot := len(s.edges)
			if n := len(s.free); n > 0 {
				slot = s.free[n-1]
				s.free = s.free[:n-1]
			}
			s.set(j, slot, m.Edge)
			changed = append(changed, slot)
		case ingest.AddVertex:
			s.grow(m.Vertex)
		}
	}
	slices.Sort(changed)
	changed = slices.Compact(changed)
	grew := s.numVertices > j.numVertices
	if len(changed) == 0 && !grew && !always {
		return Step{Result: ingest.Result{Misses: misses}}, nil
	}
	if len(s.edges) == len(s.free) {
		s.undo(j)
		return Step{}, errors.New("evolve: batch would remove every edge; at least one must remain")
	}
	if compact && len(s.free) > 0 && float64(len(s.free)) >= CompactRatio*float64(len(s.edges)) {
		changed = s.compact(j, changed)
	}
	path := "overlay"
	if len(s.edges) != prevLen || grew {
		path = "restructure"
	}
	pg, rebuilt, err := graph.Restructure(prev, s.numVertices, s.edges, changed)
	if err == nil {
		err = publish(pg)
	}
	if err != nil {
		s.undo(j)
		return Step{Path: path}, err
	}
	return Step{
		Result: ingest.Result{
			Built:   true,
			Applied: len(changed),
			Rebuilt: len(rebuilt),
			Shared:  len(pg.Parts) - len(rebuilt),
			Misses:  misses,
		},
		PG:   pg,
		Path: path,
	}, nil
}

// set writes e into slot (slot == len appends), journals the old content
// and keeps the free list, the remove index and the vertex space in step
// with a live edge or hole arriving there. The caller has already taken
// the slot's old content off the free list or the index.
func (s *Series) set(j *journal, slot int, e model.Edge) {
	if slot == len(s.edges) {
		s.edges = append(s.edges, e)
		j.writes = append(j.writes, write{append: true})
	} else {
		j.writes = append(j.writes, write{slot: slot, old: s.edges[slot]})
		s.edges[slot] = e
	}
	if e.IsHole() {
		s.free = append(s.free, slot)
		return
	}
	s.indexAdd(j, e, slot)
	s.grow(e.Src)
	s.grow(e.Dst)
}

func (s *Series) grow(v model.VertexID) {
	s.numVertices = max(s.numVertices, int(v)+1)
}

// compact squeezes the holes out of the list. Every live slot at or after
// the first hole shifts down, so those slots replace the changed ones from
// there on; slots below it keep their positions and their chunks stay
// shared. Returns the new changed list, ascending.
func (s *Series) compact(j *journal, changed []int) []int {
	j.preCompact = slices.Clone(s.edges)
	first := slices.IndexFunc(s.edges, model.Edge.IsHole)
	s.edges = slices.DeleteFunc(s.edges, model.Edge.IsHole)
	changed = slices.DeleteFunc(changed, func(slot int) bool { return slot >= first })
	for slot := first; slot < len(s.edges); slot++ {
		changed = append(changed, slot)
	}
	s.free = s.free[:0]
	s.index = nil // slot positions moved; rebuilt on the next remove
	s.compactions++
	return changed
}

// undo restores the series to the state j was opened on.
func (s *Series) undo(j *journal) {
	if j.preCompact != nil {
		// The journaled writes name pre-compaction positions.
		s.edges = j.preCompact
	}
	for i := len(j.writes) - 1; i >= 0; i-- {
		if w := j.writes[i]; w.append {
			s.edges = s.edges[:len(s.edges)-1]
		} else {
			s.edges[w.slot] = w.old
		}
	}
	s.free = j.free
	s.index = j.index
	if s.index != nil {
		for k, slots := range j.keys {
			if slots == nil {
				delete(s.index, k)
			} else {
				s.index[k] = slots
			}
		}
	}
	s.numVertices = j.numVertices
	s.compactions = j.compactions
}

// touch journals key k's slot list before its first change in the step.
func (j *journal) touch(idx map[uint64][]int, k uint64) {
	if _, seen := j.keys[k]; !seen {
		j.keys[k] = slices.Clone(idx[k])
	}
}

// indexAdd and indexDrop maintain the remove index when it exists; with
// none built yet they no-op, and the next remove builds it from the list.
func (s *Series) indexAdd(j *journal, e model.Edge, slot int) {
	if s.index == nil {
		return
	}
	k := edgeKey(e)
	j.touch(s.index, k)
	s.index[k] = append(s.index[k], slot)
}

func (s *Series) indexDrop(j *journal, e model.Edge, slot int) {
	if s.index == nil {
		return
	}
	k := edgeKey(e)
	j.touch(s.index, k)
	s.setKey(k, swapDelete(s.index[k], slot))
}

// swapDelete removes x from xs by moving the last element into its place.
func swapDelete(xs []int, x int) []int {
	if i := slices.Index(xs, x); i >= 0 {
		xs[i] = xs[len(xs)-1]
		xs = xs[:len(xs)-1]
	}
	return xs
}

// indexTake pops one slot holding an edge with e's endpoints, building the
// index first if needed; ok is false when there is none.
func (s *Series) indexTake(j *journal, e model.Edge) (slot int, ok bool) {
	if s.index == nil {
		s.index = buildIndex(s.edges)
	}
	k := edgeKey(e)
	slots := s.index[k]
	if len(slots) == 0 {
		return 0, false
	}
	j.touch(s.index, k)
	slot = slots[len(slots)-1]
	s.setKey(k, slots[:len(slots)-1])
	return slot, true
}

func (s *Series) setKey(k uint64, slots []int) {
	if len(slots) == 0 {
		delete(s.index, k)
	} else {
		s.index[k] = slots
	}
}

// buildIndex maps every live edge's endpoint pair to its slots, ascending.
func buildIndex(edges []model.Edge) map[uint64][]int {
	idx := make(map[uint64][]int, len(edges))
	for i, e := range edges {
		if !e.IsHole() {
			k := edgeKey(e)
			idx[k] = append(idx[k], i)
		}
	}
	return idx
}
