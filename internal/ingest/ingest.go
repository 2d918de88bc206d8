// Package ingest is the streaming delta-ingestion pipeline for evolving
// graphs: instead of re-shipping the full edge list per version (O(|E|)
// per snapshot), callers stream small edge mutation batches. The pipeline
// coalesces them in a bounded per-key buffer — last op wins per key, and
// an add-then-remove of the same edge cancels to nothing — and
// materializes one snapshot per flush, so snapshot cost is O(N + rebuilt
// chunks), never O(|E|), and unchanged partitions stay pointer-shared
// across the series (the Fig. 5 incremental global table).
//
// Mutations come in two families. Rewrite keeps the §3.2.1 slot-rewrite
// semantics: the edge occupying an existing slot is replaced in place, and
// rewrites coalesce per slot. The structural ops change the graph's shape:
// AddEdge appends a new edge slot, RemoveEdge deletes one edge matching a
// (src, dst) pair, and AddVertex grows the vertex space — these coalesce
// per edge endpoint pair (or per vertex), so the buffer holds the net
// structural intent of a batch window, not its history.
//
// Flushes trigger three ways: the buffer reaching MaxBatch distinct keys
// (count trigger), the oldest buffered mutation aging past Window (age
// trigger, on a timer), or an explicit Flush (manual trigger, also used by
// a batch's Flush flag). When MaxPending is set, Apply sheds whole batches
// with ErrSaturated once the buffer is at the cap, so a slow materializer
// surfaces as backpressure instead of unbounded memory. Materialization
// itself — applying the coalesced ops to the authoritative edge list and
// deriving the snapshot (internal/evolve) — is delegated to the
// Materialize callback, so the pipeline stays free of storage and
// engine dependencies.
package ingest

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cgraph/internal/span"
	"cgraph/model"
)

// ErrSaturated is returned (wrapped) by Apply when Config.MaxPending is set
// and the coalescing buffer is full; the batch was shed, nothing was
// buffered, and the caller should retry after a flush drains the buffer.
var ErrSaturated = errors.New("ingest: coalescing buffer saturated")

// Op is the kind of one edge mutation.
type Op uint8

const (
	// Rewrite replaces the edge occupying an existing slot of the current
	// list, keeping slot count and chunk boundaries stable.
	Rewrite Op = iota
	// AddEdge appends a new edge slot (the vertex space grows to cover its
	// endpoints).
	AddEdge
	// RemoveEdge deletes one edge whose (Src, Dst) match Edge's; weight is
	// ignored. Removing an absent edge is a counted no-op.
	RemoveEdge
	// AddVertex grows the vertex space to include Vertex, without edges.
	AddVertex
)

// String names the op as it appears on the wire.
func (o Op) String() string {
	switch o {
	case Rewrite:
		return "rewrite"
	case AddEdge:
		return "add_edge"
	case RemoveEdge:
		return "remove_edge"
	case AddVertex:
		return "add_vertex"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Mutation is one edge mutation. Slot is meaningful for Rewrite, Edge for
// Rewrite/AddEdge/RemoveEdge, Vertex for AddVertex.
type Mutation struct {
	Op     Op
	Slot   int
	Edge   model.Edge
	Vertex model.VertexID
}

// key identifies a mutation's coalescing bucket: rewrites coalesce per
// slot, structural edge ops per (src, dst) endpoint pair, vertex adds per
// vertex. Last op wins within a bucket, except that a RemoveEdge landing
// on a buffered AddEdge of the same pair cancels both.
type key struct {
	kind uint8
	a, b uint32
}

func keyOf(m Mutation) key {
	switch m.Op {
	case Rewrite:
		return key{kind: 0, a: uint32(m.Slot)}
	case AddVertex:
		return key{kind: 2, a: uint32(m.Vertex)}
	default:
		return key{kind: 1, a: uint32(m.Edge.Src), b: uint32(m.Edge.Dst)}
	}
}

// opRank orders a flushed batch: in-place rewrites first (their slots are
// valid against the pre-batch layout), then removes, then adds, then
// vertex growth — so slot indices never shift under an op that uses them.
func opRank(o Op) int {
	switch o {
	case Rewrite:
		return 0
	case RemoveEdge:
		return 1
	case AddEdge:
		return 2
	default:
		return 3
	}
}

// Origin identifies the request that opened a batch window: the span
// context and request ID of the first batch buffered since the last
// flush. A flush's span is parented to its window's origin, and the
// origin's request ID rides along on the flush observation so log lines
// can be joined back to the request that caused them.
type Origin struct {
	Span      span.Context
	RequestID string
}

// Result reports one materialized flush.
type Result struct {
	// Built is false when every buffered op was a no-op (rewrote the edge
	// already in place, removed an absent edge), in which case no snapshot
	// was added.
	Built bool
	// Timestamp is the new snapshot's timestamp (when Built).
	Timestamp int64
	// Applied counts the slots whose edges actually changed.
	Applied int
	// Rebuilt and Shared split the snapshot's partitions into rebuilt ones
	// and ones pointer-shared with the previous snapshot.
	Rebuilt int
	Shared  int
	// Misses counts removes of absent edges and rewrites of slots that
	// vanished under a structural remove (both no-ops).
	Misses int
}

// Config tunes a Pipeline.
type Config struct {
	// Slots reports the current number of edge slots; Rewrite mutations
	// are validated against it on arrival. Required. It is called without
	// pipeline locks held, so it may take the materializer's own locks.
	Slots func() int
	// MaxBatch flushes when the buffer holds that many distinct keys
	// (default 256).
	MaxBatch int
	// MaxPending, when positive, caps the coalescing buffer: an Apply
	// whose batch would grow the buffer beyond the cap is shed with
	// ErrSaturated instead of buffering unboundedly (batches count by
	// mutation record, conservatively ignoring coalescing). Zero disables
	// admission control.
	MaxPending int
	// Window flushes the buffer once its oldest mutation is that old; 0
	// disables the age trigger (count and manual triggers only).
	Window time.Duration
	// Materialize applies one coalesced batch (rewrites by ascending slot,
	// then removes, adds, and vertex growth) and builds the snapshot. minTS is the lowest acceptable snapshot timestamp (0 when
	// no batch requested one). sc is the flush span's context, for
	// parenting a materialize span (zero when tracing is off). Required.
	Materialize func(muts []Mutation, minTS int64, sc span.Context) (Result, error)
	// Observe, when set, is called after every flush attempt with the
	// trigger ("manual", "count", "age"), the wall-clock materialize
	// latency, the coalesced batch size, the result (zero-valued when
	// the materialization failed), and the origin of the flushed window.
	// It runs with the pipeline lock held, so it must be fast and must
	// not call back into the pipeline.
	Observe func(trigger string, d time.Duration, batch int, res Result, o Origin)
	// Tracer, when set, records one "ingest.flush" span per flush attempt,
	// parented to the window's origin span.
	Tracer *span.Tracer
}

// Stats is a point-in-time snapshot of the pipeline's counters.
type Stats struct {
	// Batches counts accepted Apply calls; Mutations the accepted mutation
	// records; Coalesced how many of those were superseded in the buffer
	// before a flush (a later op on an already-pending key).
	Batches   int64
	Mutations int64
	Coalesced int64
	// Accepted mutation records by op.
	Rewrites    int64
	EdgeAdds    int64
	EdgeRemoves int64
	VertexAdds  int64
	// Cancelled counts add/remove pairs of the same edge that annihilated
	// in the buffer (each pair removes two records from the flush).
	Cancelled int64
	// Shed counts whole batches rejected by the MaxPending admission cap.
	Shed int64
	// Flushes counts materializations by trigger.
	Flushes       int64
	CountFlushes  int64
	AgeFlushes    int64
	ManualFlushes int64
	// Failures counts flushes whose materialization errored; the buffer is
	// kept and retried on the next trigger.
	Failures int64
	// SnapshotsBuilt counts flushes that produced a snapshot (a flush of
	// nothing but no-op rewrites builds none).
	SnapshotsBuilt int64
	// Applied sums the slots actually changed across built snapshots;
	// PartsRebuilt/PartsShared sum the overlay split, so
	// PartsShared/(PartsShared+PartsRebuilt) is the shared-partition ratio
	// the incremental store achieves. Misses sums removes of absent edges
	// (and rewrites of vanished slots) across flushes.
	Applied      int64
	PartsRebuilt int64
	PartsShared  int64
	Misses       int64
	// Pending is the current buffer size (distinct keys).
	Pending int
	// LastTimestamp is the newest materialized snapshot's timestamp.
	LastTimestamp int64
}

// SharedRatio is PartsShared over all partitions of built snapshots (1 when
// nothing was built yet: an empty series shares everything trivially).
func (s Stats) SharedRatio() float64 {
	total := s.PartsShared + s.PartsRebuilt
	if total == 0 {
		return 1
	}
	return float64(s.PartsShared) / float64(total)
}

// Ack confirms one accepted batch.
type Ack struct {
	// Accepted is the number of mutations taken from this batch; Pending
	// the buffer size after it (0 if the batch flushed).
	Accepted int
	Pending  int
	// Flushed reports whether this Apply materialized a snapshot (count
	// trigger or the batch's flush request); Timestamp is its timestamp.
	Flushed   bool
	Timestamp int64
}

// Pipeline coalesces mutation batches and materializes them into snapshots.
// Safe for concurrent use; flushes are serialized.
type Pipeline struct {
	cfg Config

	mu sync.Mutex
	// pending coalesces buffered mutations per key (last op wins, add+
	// remove pairs cancel); minTS is the highest snapshot timestamp
	// requested by any buffered batch.
	pending map[key]Mutation
	minTS   int64
	// origin is the first batch origin buffered since the last successful
	// flush — the request the current window's flush will be attributed to.
	origin Origin
	timer  *time.Timer
	closed bool
	stats  Stats
}

// New builds a pipeline. Config.Slots and Config.Materialize are required.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Slots == nil {
		return nil, fmt.Errorf("ingest: Config.Slots is required")
	}
	if cfg.Materialize == nil {
		return nil, fmt.Errorf("ingest: Config.Materialize is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	return &Pipeline{cfg: cfg, pending: make(map[key]Mutation)}, nil
}

// countOpLocked attributes one accepted mutation record to its op counter.
func (p *Pipeline) countOpLocked(o Op) {
	switch o {
	case Rewrite:
		p.stats.Rewrites++
	case AddEdge:
		p.stats.EdgeAdds++
	case RemoveEdge:
		p.stats.EdgeRemoves++
	case AddVertex:
		p.stats.VertexAdds++
	}
}

// Apply buffers one mutation batch. The whole batch is validated before any
// of it is buffered, so a bad slot or op rejects the batch atomically, and
// admission control sheds the whole batch with ErrSaturated when the buffer
// is at its cap. minTS, when positive, is the lowest timestamp acceptable
// for the snapshot that will include this batch. flushNow forces
// materialization after buffering; otherwise the count trigger decides.
// When a triggered flush fails, the error is returned but the batch (and
// the rest of the buffer) stays retained — the returned Ack's
// Accepted/Pending report that — and the age timer re-arms so the window
// keeps retrying.
func (p *Pipeline) Apply(muts []Mutation, minTS int64, flushNow bool) (Ack, error) {
	return p.ApplyFrom(Origin{}, muts, minTS, flushNow)
}

// ApplyFrom is Apply with the batch's origin: the first origin buffered
// into an empty window becomes the window's, so the eventual flush span
// and observation are attributed to the request that opened the window.
func (p *Pipeline) ApplyFrom(o Origin, muts []Mutation, minTS int64, flushNow bool) (Ack, error) {
	slots := p.cfg.Slots()
	for _, m := range muts {
		switch m.Op {
		case Rewrite:
			if m.Slot < 0 || m.Slot >= slots {
				return Ack{}, fmt.Errorf("ingest: slot %d out of range [0,%d)", m.Slot, slots)
			}
		case AddEdge, RemoveEdge, AddVertex:
		default:
			return Ack{}, fmt.Errorf("ingest: unsupported mutation op %d", m.Op)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return Ack{}, fmt.Errorf("ingest: pipeline closed")
	}
	if p.cfg.MaxPending > 0 && len(muts) > 0 && len(p.pending)+len(muts) > p.cfg.MaxPending {
		p.stats.Shed++
		return Ack{Pending: len(p.pending)}, fmt.Errorf(
			"%w: %d pending + %d incoming exceeds cap %d; retry after a flush",
			ErrSaturated, len(p.pending), len(muts), p.cfg.MaxPending)
	}
	if p.origin == (Origin{}) {
		p.origin = o
	}
	for _, m := range muts {
		k := keyOf(m)
		p.countOpLocked(m.Op)
		if prev, dup := p.pending[k]; dup {
			if prev.Op == AddEdge && m.Op == RemoveEdge {
				// The buffered add never materialized, so adding then
				// removing the same edge nets to nothing.
				delete(p.pending, k)
				p.stats.Cancelled++
				continue
			}
			p.stats.Coalesced++
		}
		p.pending[k] = m
	}
	p.stats.Batches++
	p.stats.Mutations += int64(len(muts))
	if minTS > p.minTS {
		p.minTS = minTS
	}
	ack := Ack{Accepted: len(muts)}

	var trigger *int64
	switch {
	case flushNow && len(p.pending) > 0:
		trigger = &p.stats.ManualFlushes
	case len(p.pending) >= p.cfg.MaxBatch:
		trigger = &p.stats.CountFlushes
	}
	if trigger != nil {
		res, err := p.flushLocked(trigger)
		if err != nil {
			// The batch is buffered and retried by the next trigger (the
			// age timer was re-armed by flushLocked).
			ack.Pending = len(p.pending)
			return ack, err
		}
		ack.Flushed, ack.Timestamp = res.Built, res.Timestamp
	}
	p.armTimerLocked()
	ack.Pending = len(p.pending)
	return ack, nil
}

// Flush materializes the buffer now (manual trigger). With an empty buffer
// it is a no-op reporting Built false.
func (p *Pipeline) Flush() (Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pending) == 0 {
		return Result{}, nil
	}
	return p.flushLocked(&p.stats.ManualFlushes)
}

// armTimerLocked schedules the age-trigger flush whenever the buffer is
// non-empty and no timer is already pending; it no-ops otherwise, so every
// path that can leave mutations buffered (first enqueue, a failed flush)
// just calls it.
func (p *Pipeline) armTimerLocked() {
	if p.cfg.Window <= 0 || p.timer != nil || p.closed || len(p.pending) == 0 {
		return
	}
	p.timer = time.AfterFunc(p.cfg.Window, func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.timer = nil
		if p.closed || len(p.pending) == 0 {
			return
		}
		// Errors here have no caller to land on: flushLocked counts the
		// failure, keeps the buffer, and re-arms this timer to retry.
		p.flushLocked(&p.stats.AgeFlushes)
	})
}

// flushLocked materializes the buffered mutations: ordered by op class
// (rewrites by ascending slot, then removes, adds, and vertex growth, each
// sorted for determinism), handed to the Materialize callback, and — on
// success — the buffer resets and the age timer disarms. On failure the
// buffer is kept for the next trigger and the age timer re-arms so the
// retry does not depend on further traffic.
func (p *Pipeline) flushLocked(trigger *int64) (Result, error) {
	muts := make([]Mutation, 0, len(p.pending))
	for _, m := range p.pending {
		muts = append(muts, m)
	}
	sort.Slice(muts, func(i, j int) bool {
		a, b := muts[i], muts[j]
		if ra, rb := opRank(a.Op), opRank(b.Op); ra != rb {
			return ra < rb
		}
		switch a.Op {
		case Rewrite:
			return a.Slot < b.Slot
		case AddVertex:
			return a.Vertex < b.Vertex
		default:
			if a.Edge.Src != b.Edge.Src {
				return a.Edge.Src < b.Edge.Src
			}
			return a.Edge.Dst < b.Edge.Dst
		}
	})
	p.stats.Flushes++
	*trigger++
	o := p.origin
	sp := p.cfg.Tracer.StartSpan(o.Span, "ingest.flush")
	sp.Attr(span.Str("trigger", p.triggerName(trigger)), span.Int("batch", int64(len(muts))))
	start := time.Now()
	res, err := p.cfg.Materialize(muts, p.minTS, sp.Context())
	sp.Attr(span.Bool("built", res.Built), span.Bool("failed", err != nil))
	sp.End()
	if p.cfg.Observe != nil {
		p.cfg.Observe(p.triggerName(trigger), time.Since(start), len(muts), res, o)
	}
	if err != nil {
		p.stats.Failures++
		p.armTimerLocked()
		return Result{}, fmt.Errorf("ingest: materialize: %w", err)
	}
	clear(p.pending)
	p.minTS = 0
	p.origin = Origin{}
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	p.stats.Misses += int64(res.Misses)
	if res.Built {
		p.stats.SnapshotsBuilt++
		p.stats.Applied += int64(res.Applied)
		p.stats.PartsRebuilt += int64(res.Rebuilt)
		p.stats.PartsShared += int64(res.Shared)
		p.stats.LastTimestamp = res.Timestamp
	}
	return res, nil
}

// triggerName maps a flush-trigger counter to its exposition label.
func (p *Pipeline) triggerName(trigger *int64) string {
	switch trigger {
	case &p.stats.ManualFlushes:
		return "manual"
	case &p.stats.CountFlushes:
		return "count"
	case &p.stats.AgeFlushes:
		return "age"
	}
	return "unknown"
}

// Stats reports the pipeline's counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Pending = len(p.pending)
	return s
}

// Close flushes any buffered mutations and stops the age timer; further
// Apply calls fail. The flush error, if any, is returned (the mutations are
// dropped regardless — the pipeline is closing).
func (p *Pipeline) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	var err error
	if len(p.pending) > 0 {
		_, err = p.flushLocked(&p.stats.ManualFlushes)
	}
	p.closed = true
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	return err
}
