// Package storage implements the two table families of §3.2.1: the global
// table (a series of timestamped graph snapshots stored incrementally, where
// a job binds to the newest snapshot not younger than its arrival) and the
// per-job private tables holding vertex states with the active-set
// bookkeeping every engine shares.
package storage

import (
	"fmt"
	"sort"
	"sync"

	"cgraph/internal/bitset"
	"cgraph/internal/graph"
	"cgraph/model"
)

// Snapshot is one timestamped global-table version.
type Snapshot struct {
	// Seq is the snapshot's stable position in the series (append order,
	// starting at 0 for the base). Unlike a slice index it survives
	// retention eviction, so references held by bound jobs stay valid.
	Seq       int
	Timestamp int64
	PG        *graph.PGraph
}

// SnapshotStore keeps the snapshot series in timestamp order. Unchanged
// partitions are shared by pointer between consecutive snapshots (built via
// graph.Restructure), which is the incremental storage scheme of Fig. 5.
//
// The store also owns snapshot lifecycle: jobs binding to a snapshot take a
// reference (Acquire/Release), and a retention policy (SetRetention) evicts
// the oldest unreferenced snapshots beyond the cap so a resident service
// ingesting deltas forever does not grow without bound. Eviction is
// oldest-first and stops at the first referenced snapshot, so a job bound to
// a retained old version is never evicted out from under it, and the latest
// snapshot is never evicted. All methods are safe for concurrent use.
type SnapshotStore struct {
	mu sync.Mutex
	// snaps is the retained window, timestamp-ascending; snaps[i].Seq ==
	// base+i, where base is the seq of the oldest retained snapshot.
	snaps []Snapshot
	base  int
	// refs counts bound jobs per retained snapshot seq.
	refs map[int]int
	// retain caps the retained window (0 = keep every snapshot).
	retain  int
	evicted int
	// onEvict, when set, observes every GC eviction. Called with the store
	// lock held (and possibly the locks of whoever triggered the Add), so
	// it must be fast and must never call back into the store.
	onEvict func(seq int, timestamp int64)
}

// NewSnapshotStore starts the series with a base snapshot.
func NewSnapshotStore(pg *graph.PGraph, timestamp int64) *SnapshotStore {
	return &SnapshotStore{
		snaps: []Snapshot{{Seq: 0, Timestamp: timestamp, PG: pg}},
		refs:  make(map[int]int),
	}
}

// SetRetention caps the retained snapshot window at n (0 disables eviction)
// and applies the policy immediately.
func (s *SnapshotStore) SetRetention(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	s.retain = n
	s.gcLocked()
}

// Retention returns the configured retained-window cap (0 = unbounded).
func (s *SnapshotStore) Retention() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retain
}

// gcLocked evicts the oldest unreferenced snapshots beyond the retention
// cap. It walks from the front and stops at the first referenced snapshot
// (evicting a middle snapshot would change which version old arrivals
// resolve to) and never evicts the latest.
func (s *SnapshotStore) gcLocked() {
	if s.retain <= 0 {
		return
	}
	for len(s.snaps) > s.retain && len(s.snaps) > 1 && s.refs[s.snaps[0].Seq] == 0 {
		seq, ts := s.snaps[0].Seq, s.snaps[0].Timestamp
		s.snaps[0] = Snapshot{}
		s.snaps = s.snaps[1:]
		s.base++
		s.evicted++
		if s.onEvict != nil {
			s.onEvict(seq, ts)
		}
	}
}

// SetEvictObserver registers fn to observe every retention-GC eviction
// (seq and timestamp of the evicted snapshot). fn is called with the store
// lock held — it must be fast and must not call back into the store. Pass
// nil to clear.
func (s *SnapshotStore) SetEvictObserver(fn func(seq int, timestamp int64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onEvict = fn
}

// Add appends a newer snapshot; timestamps must strictly increase. The
// retention policy runs afterwards, so an Add can evict older unreferenced
// snapshots.
func (s *SnapshotStore) Add(pg *graph.PGraph, timestamp int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := s.snaps[len(s.snaps)-1]
	if timestamp <= last.Timestamp {
		return fmt.Errorf("storage: snapshot timestamp %d not after %d", timestamp, last.Timestamp)
	}
	s.snaps = append(s.snaps, Snapshot{Seq: last.Seq + 1, Timestamp: timestamp, PG: pg})
	s.gcLocked()
	return nil
}

// resolveLocked binary-searches the timestamp-ordered window for the newest
// snapshot whose timestamp does not exceed arrival. An arrival older than
// every retained snapshot sees the oldest retained one (the base, until
// retention evicts it).
func (s *SnapshotStore) resolveLocked(arrival int64) Snapshot {
	// First retained snapshot with Timestamp > arrival; its predecessor is
	// the newest with Timestamp <= arrival.
	i := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].Timestamp > arrival })
	if i == 0 {
		return s.snaps[0]
	}
	return s.snaps[i-1]
}

// Resolve returns the newest snapshot whose timestamp does not exceed the
// job's arrival time; a job older than every retained snapshot sees the
// oldest retained one.
func (s *SnapshotStore) Resolve(arrival int64) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolveLocked(arrival)
}

// ResolveIndex is Resolve plus the snapshot's stable series index (its Seq).
func (s *SnapshotStore) ResolveIndex(arrival int64) (Snapshot, int) {
	snap := s.Resolve(arrival)
	return snap, snap.Seq
}

// Acquire resolves the newest snapshot not younger than arrival and takes a
// reference on it, protecting it from retention eviction until Release.
func (s *SnapshotStore) Acquire(arrival int64) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.resolveLocked(arrival)
	s.refs[snap.Seq]++
	return snap
}

// Release drops one reference taken by Acquire and re-applies the retention
// policy, so snapshots pinned only by retired jobs get evicted promptly.
// Releasing an evicted or never-acquired seq is a no-op.
func (s *SnapshotStore) Release(seq int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.refs[seq]; ok {
		if n <= 1 {
			delete(s.refs, seq)
		} else {
			s.refs[seq] = n - 1
		}
	}
	s.gcLocked()
}

// Window reports the retained window's bounds: the oldest and newest
// retained snapshots. Jobs arriving with timestamps before the oldest
// bound are served by the oldest retained version.
func (s *SnapshotStore) Window() (oldest, newest Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snaps[0], s.snaps[len(s.snaps)-1]
}

// Latest returns the newest snapshot.
func (s *SnapshotStore) Latest() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snaps[len(s.snaps)-1]
}

// At returns the retained snapshot with series index (Seq) seq; ok is false
// if it was evicted or never existed.
func (s *SnapshotStore) At(seq int) (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := seq - s.base
	if i < 0 || i >= len(s.snaps) {
		return Snapshot{}, false
	}
	return s.snaps[i], true
}

// Len returns the number of retained snapshots.
func (s *SnapshotStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.snaps)
}

// Evicted returns how many snapshots the retention policy has evicted.
func (s *SnapshotStore) Evicted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// PrivateTable is one job's vertex-state table, laid out per partition of
// the snapshot the job is bound to, with the three activity sets the
// engines maintain: Active (this iteration), Next (activations discovered at
// sync), and Received (locals that accumulated deltas this iteration).
type PrivateTable struct {
	JobID int
	PG    *graph.PGraph

	States   [][]model.State
	Active   []*bitset.Set
	Next     []*bitset.Set
	Received []*bitset.Set
	// ActiveCount caches Active[p].Count() per partition; it feeds N(P)
	// in the Eq. 1 scheduler and the straggler detector for free.
	ActiveCount []int
	// Bytes is the simulated size of each private partition (the sp·N term
	// of the Pg formula).
	Bytes []int64
}

// NewPrivateTable initializes states by running prog.Init on every replica
// and activates the replicas of initially-active vertices.
func NewPrivateTable(jobID int, pg *graph.PGraph, prog model.Program) *PrivateTable {
	np := len(pg.Parts)
	pt := &PrivateTable{
		JobID:       jobID,
		PG:          pg,
		States:      make([][]model.State, np),
		Active:      make([]*bitset.Set, np),
		Next:        make([]*bitset.Set, np),
		Received:    make([]*bitset.Set, np),
		ActiveCount: make([]int, np),
		Bytes:       make([]int64, np),
	}
	for pi, p := range pg.Parts {
		n := p.NumVertices()
		pt.States[pi] = make([]model.State, n)
		pt.Active[pi] = bitset.New(n)
		pt.Next[pi] = bitset.New(n)
		pt.Received[pi] = bitset.New(n)
		pt.Bytes[pi] = 64 + int64(n)*16
		for li, v := range p.Globals {
			s, active := prog.Init(v, pg.G)
			pt.States[pi][li] = s
			if active {
				pt.Active[pi].Set(li)
			}
		}
		pt.ActiveCount[pi] = pt.Active[pi].Count()
	}
	return pt
}

// HasActive reports whether any partition has active vertices.
func (pt *PrivateTable) HasActive() bool {
	for _, c := range pt.ActiveCount {
		if c > 0 {
			return true
		}
	}
	return false
}

// ActiveParts returns the IDs of partitions with at least one active vertex.
func (pt *PrivateTable) ActiveParts() []int {
	var out []int
	for pi, c := range pt.ActiveCount {
		if c > 0 {
			out = append(out, pi)
		}
	}
	return out
}

// Advance moves the job to its next iteration: Next becomes Active, and Next
// and Received are cleared. counts[p] is the number of bits set in Next[p],
// tallied by the caller where it set them; it becomes ActiveCount[p], so no
// partition is recounted, and counts is zeroed for the next tally.
func (pt *PrivateTable) Advance(counts []int) {
	for pi := range pt.Active {
		pt.Active[pi].Swap(pt.Next[pi])
		pt.Next[pi].Reset()
		pt.Received[pi].Reset()
	}
	copy(pt.ActiveCount, counts)
	clear(counts)
}

// Result returns the converged value of vertex v: its master replica's
// value, or the program's init state with the initial delta applied for
// edge-less vertices. Programs implementing model.Resulter override the
// extraction.
func (pt *PrivateTable) Result(v model.VertexID, prog model.Program) float64 {
	r, _ := prog.(model.Resulter)
	return pt.result(v, prog, r)
}

// Results materializes the per-vertex values for all vertices.
func (pt *PrivateTable) Results(prog model.Program) []float64 {
	r, _ := prog.(model.Resulter)
	out := make([]float64, pt.PG.G.N)
	for v := range out {
		out[v] = pt.result(model.VertexID(v), prog, r)
	}
	return out
}

// result is Result with prog's Resulter, or nil, resolved by the caller.
func (pt *PrivateTable) result(v model.VertexID, prog model.Program, r model.Resulter) float64 {
	var s model.State
	if m := pt.PG.MasterOf[v]; m.Part >= 0 {
		s = pt.States[m.Part][m.Local]
	} else {
		s = edgelessState(v, prog, pt.PG.G)
	}
	if r != nil {
		return r.Result(v, s)
	}
	return s.Value
}

// edgelessState is the state an edge-less vertex converges to: its init
// state after absorbing its initial delta (e.g. an isolated vertex's
// PageRank is 1-d). Kept out of result because &s escapes into prog.Apply,
// which would cost every vertex, not only edge-less ones, a heap State.
func edgelessState(v model.VertexID, prog model.Program, g *graph.DegreeTable) model.State {
	s, _ := prog.Init(v, g)
	prog.Apply(v, &s, 0)
	return s
}
