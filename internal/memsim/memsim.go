// Package memsim simulates the memory hierarchy the paper measures with a
// real 20 MB LLC, 64 GB of DRAM and a disk: a capacity-limited cache with LRU
// replacement and pinning, a capacity-limited memory level that spills to an
// unbounded disk, block-granularity hit/miss accounting, and a cost model
// that converts bytes moved and edges processed into simulated microseconds.
//
// Go offers no control over the hardware LLC, so every engine in this
// reproduction routes its partition accesses through a Hierarchy; the
// differences the paper observes between systems (who reloads shared
// partitions, how often, from where) fall out of the same mechanism.
package memsim

import (
	"fmt"
	"sync"
)

// Kind distinguishes cacheable item classes.
type Kind uint8

const (
	// Struct is graph-structure data (a partition of the global table).
	Struct Kind = iota
	// Private is a job's private-table slice for one partition.
	Private
)

func (k Kind) String() string {
	if k == Struct {
		return "struct"
	}
	return "private"
}

// ItemID identifies one cacheable item. Shared structure partitions carry
// Job == -1 and the partition's process-unique UID, so snapshots that share
// a partition and jobs that share a snapshot hit the same cache entry.
// Engines that keep per-job structure copies (NXgraph, CLIP) set Job to the
// job ID, which models the duplicated storage those systems pay for.
type ItemID struct {
	Kind Kind
	UID  int64
	Job  int32
}

func (id ItemID) String() string {
	return fmt.Sprintf("%s/u%d/j%d", id.Kind, id.UID, id.Job)
}

// CostModel converts simulated data movement and computation into
// microseconds. The defaults are calibrated so that, at the reproduction's
// default scale, a baseline job's execution is dominated by data access
// while CGraph's is dominated by vertex processing — the regime of Fig. 10.
type CostModel struct {
	// MemBandwidth is memory→cache bandwidth in bytes/µs.
	MemBandwidth float64
	// MemLatency is the fixed cost of one memory→cache load operation, µs.
	MemLatency float64
	// DiskBandwidth is disk→memory bandwidth in bytes/µs.
	DiskBandwidth float64
	// DiskLatency is the fixed cost of one disk read, µs.
	DiskLatency float64
	// EdgeCost is the compute cost of processing one edge, µs.
	EdgeCost float64
	// VertexCost is the compute cost of applying one vertex, µs.
	VertexCost float64
	// SyncEntryCost is the cost of handling one Snew sync entry, µs.
	SyncEntryCost float64
	// ChannelStreams is how many concurrent access streams the memory
	// channel sustains at full per-stream speed before contention: one
	// compute-interleaved job does not saturate the channel, which is why
	// concurrent execution beats sequential in Fig. 2 despite contention.
	ChannelStreams float64
}

// DefaultCost returns the calibrated default cost model.
func DefaultCost() CostModel {
	return CostModel{
		MemBandwidth:   500,
		MemLatency:     2,
		DiskBandwidth:  25,
		DiskLatency:    200,
		EdgeCost:       0.02,
		VertexCost:     0.01,
		SyncEntryCost:  0.05,
		ChannelStreams: 1.6,
	}
}

// LoadTime is the simulated time to move bytes from memory into the cache.
func (c CostModel) LoadTime(bytes int64) float64 {
	return c.MemLatency + float64(bytes)/c.MemBandwidth
}

// DiskTime is the simulated time to move bytes from disk into memory.
func (c CostModel) DiskTime(bytes int64) float64 {
	return c.DiskLatency + float64(bytes)/c.DiskBandwidth
}

// ComputeTime is the simulated time to process edges and apply vertices.
func (c CostModel) ComputeTime(edges, vertices int64) float64 {
	return float64(edges)*c.EdgeCost + float64(vertices)*c.VertexCost
}

// SyncTime is the simulated time to push one batch of sync entries.
func (c CostModel) SyncTime(entries int64) float64 {
	return float64(entries) * c.SyncEntryCost
}

// Config sizes the hierarchy.
type Config struct {
	// CacheBytes is the simulated LLC capacity.
	CacheBytes int64
	// MemoryBytes is the simulated DRAM capacity; 0 means unlimited (no
	// disk spill ever happens after the initial load).
	MemoryBytes int64
	// BlockBytes is the cache-line size for miss-rate accounting
	// (default 64).
	BlockBytes int64
	Cost       CostModel
}

// Counters aggregates the hierarchy's observations over a run.
type Counters struct {
	// AccessBlocks counts cache blocks touched by loads (hits + misses).
	AccessBlocks int64
	// MissBlocks counts blocks that had to be brought into the cache.
	MissBlocks int64
	// BytesIntoCache is the volume swapped into the cache (Fig. 12).
	BytesIntoCache int64
	// BytesFromDisk is the disk→memory I/O volume (Fig. 13).
	BytesFromDisk int64
	LoadOps       int64
	DiskOps       int64
	Evictions     int64
}

// MissRate returns the block miss ratio in percent (Fig. 11/18).
func (c Counters) MissRate() float64 {
	if c.AccessBlocks == 0 {
		return 0
	}
	return 100 * float64(c.MissBlocks) / float64(c.AccessBlocks)
}

// TotalAccessedBytes is the Fig. 19 "total accessed data": disk→memory plus
// memory→cache traffic.
func (c Counters) TotalAccessedBytes() int64 {
	return c.BytesIntoCache + c.BytesFromDisk
}

// LoadResult reports the effect of one Load.
type LoadResult struct {
	// Hit is true when the item was already fully cache-resident.
	Hit bool
	// BytesLoaded entered the cache (0 on a hit).
	BytesLoaded int64
	// DiskBytes were read from disk because the item was not
	// memory-resident.
	DiskBytes int64
	// Time is the simulated access time in µs (0 on a hit).
	Time float64
}

// slot is one item's record in the hierarchy's slab, for as long as the
// item is resident in the cache, in memory, or both. Each level has its own
// LRU list (int32 links into the slab, -1 for none), its own copy of the
// item's size — a resize reloads the cache copy while memory may keep the old
// one — and its own membership flag, so one lookup finds both.
type slot struct {
	key  key
	pins int
	lv   [levels]place
}

// place is a slot's membership of one level.
type place struct {
	in         bool
	bytes      int64
	prev, next int32
}

// The levels a slot can be resident in.
const (
	cacheLv = iota
	memLv
	levels
)

// lru is one level's list over the slab, front = most recent.
type lru struct{ head, tail int32 }

// Hierarchy is the simulated cache + memory + disk stack. It is safe for
// concurrent use.
type Hierarchy struct {
	mu  sync.Mutex
	cfg Config

	// index maps the key of each item with a slot to it.
	index map[key]int32
	slots []slot
	// free heads the list of unused slots, linked through their cache next.
	free int32

	lists [levels]lru
	used  [levels]int64

	counters Counters
}

// New builds a hierarchy. A zero BlockBytes defaults to 64.
func New(cfg Config) *Hierarchy {
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 64
	}
	return &Hierarchy{
		cfg:   cfg,
		index: make(map[key]int32),
		free:  -1,
		lists: [levels]lru{{-1, -1}, {-1, -1}},
	}
}

// Unlimited returns a hierarchy so large nothing ever misses after first
// touch, for library use without simulation pressure.
func Unlimited() *Hierarchy {
	return New(Config{CacheBytes: 1 << 60, MemoryBytes: 0, Cost: DefaultCost()})
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Cost returns the cost model.
func (h *Hierarchy) Cost() CostModel { return h.cfg.Cost }

func (h *Hierarchy) blocks(bytes int64) int64 {
	return (bytes + h.cfg.BlockBytes - 1) / h.cfg.BlockBytes
}

// Load touches the whole item, bringing it into the cache if absent, pulling
// it from disk if it is not memory-resident, and optionally pinning it
// against eviction. Pins nest; every pinned Load needs a matching Unpin.
func (h *Hierarchy) Load(id ItemID, bytes int64, pin bool) LoadResult {
	h.mu.Lock()
	defer h.mu.Unlock()

	h.counters.AccessBlocks += h.blocks(bytes)
	h.counters.LoadOps++

	s := h.slotOf(id)
	if c := &h.slots[s].lv[cacheLv]; c.in {
		// Size change (snapshot swap or private-table growth) forces a
		// reload of the difference; same size is a pure hit.
		if c.bytes == bytes {
			h.moveFront(cacheLv, s)
			if pin {
				h.slots[s].pins++
			}
			h.touchMemory(s, bytes)
			return LoadResult{Hit: true}
		}
		h.evictCache(s)
	}

	var res LoadResult
	// Job-specific data (private tables, sync buffers) is memory-resident
	// by construction — jobs allocate it, only the far larger shared graph
	// structure pages to and from disk (§2: structure is 71-83% of the
	// footprint). So only Struct items are read from disk on a miss. A
	// Private item still enters the memory LRU on its first cache hit
	// (touchMemory), without evicting anything; from then on its bytes count
	// against MemoryBytes beside the structure's.
	if id.Kind == Struct {
		res.DiskBytes = h.ensureMemory(s, bytes)
	}
	res.BytesLoaded = bytes
	res.Time = h.cfg.Cost.LoadTime(bytes)
	if res.DiskBytes > 0 {
		res.Time += h.cfg.Cost.DiskTime(res.DiskBytes)
	}
	h.counters.MissBlocks += h.blocks(bytes)
	h.counters.BytesIntoCache += bytes

	// Items larger than the cache stream through without residency.
	if bytes <= h.cfg.CacheBytes {
		h.makeRoom(bytes)
		if pin {
			h.slots[s].pins = 1 // an item out of the cache holds no pins
		}
		h.insert(cacheLv, s, bytes)
	} else {
		h.release(s)
	}
	return res
}

// Unpin releases one pin on the item; unpinned items become evictable.
func (h *Hierarchy) Unpin(id ItemID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s, ok := h.lookup(id); ok && h.slots[s].lv[cacheLv].in && h.slots[s].pins > 0 {
		h.slots[s].pins--
	}
}

// Drop invalidates an item at every level (a snapshot replaced the
// partition, or a private table was re-laid-out).
func (h *Hierarchy) Drop(id ItemID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.lookup(id)
	if !ok {
		return
	}
	if h.slots[s].lv[cacheLv].in {
		h.evictCache(s)
	}
	if h.slots[s].lv[memLv].in {
		h.remove(memLv, s)
	}
	h.release(s)
}

// Resident reports whether the item is currently cache-resident.
func (h *Hierarchy) Resident(id ItemID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.lookup(id)
	return ok && h.slots[s].lv[cacheLv].in
}

// Counters returns a snapshot of the aggregate counters.
func (h *Hierarchy) Counters() Counters {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counters
}

// CacheUsed returns the bytes currently cache-resident.
func (h *Hierarchy) CacheUsed() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.used[cacheLv]
}

// key is an ItemID without padding: a probe hashes its 16 bytes in one go
// and compares them as two words, where a padded struct key is hashed and
// compared field by field.
type key struct{ uid, tag int64 }

func keyOf(id ItemID) key { return key{id.UID, int64(id.Job)<<8 | int64(id.Kind)} }

// lookup returns the item's slot, if it has one.
func (h *Hierarchy) lookup(id ItemID) (int32, bool) {
	s, ok := h.index[keyOf(id)]
	return s, ok
}

// slotOf returns the item's slot, taking a free one if it has none.
func (h *Hierarchy) slotOf(id ItemID) int32 {
	k := keyOf(id)
	if s, ok := h.index[k]; ok {
		return s
	}
	var s int32
	if h.free >= 0 {
		s = h.free
		h.free = h.slots[s].lv[cacheLv].next
	} else {
		s = int32(len(h.slots))
		h.slots = append(h.slots, slot{})
	}
	h.slots[s] = slot{key: k}
	h.index[k] = s
	return s
}

// release frees slot s once the item is resident at no level.
func (h *Hierarchy) release(s int32) {
	sl := &h.slots[s]
	if sl.lv[cacheLv].in || sl.lv[memLv].in {
		return
	}
	delete(h.index, sl.key)
	sl.lv[cacheLv].next = h.free
	h.free = s
}

// insert makes slot s resident at level lv, most recent first.
func (h *Hierarchy) insert(lv int, s int32, bytes int64) {
	p := &h.slots[s].lv[lv]
	p.in, p.bytes = true, bytes
	h.pushFront(lv, s)
	h.used[lv] += bytes
}

// remove takes slot s out of level lv; the caller releases the slot.
func (h *Hierarchy) remove(lv int, s int32) {
	p := &h.slots[s].lv[lv]
	h.unlink(lv, s)
	p.in = false
	h.used[lv] -= p.bytes
}

func (h *Hierarchy) pushFront(lv int, s int32) {
	l, p := &h.lists[lv], &h.slots[s].lv[lv]
	p.prev, p.next = -1, l.head
	if l.head >= 0 {
		h.slots[l.head].lv[lv].prev = s
	}
	l.head = s
	if l.tail < 0 {
		l.tail = s
	}
}

func (h *Hierarchy) unlink(lv int, s int32) {
	l, p := &h.lists[lv], &h.slots[s].lv[lv]
	if p.prev >= 0 {
		h.slots[p.prev].lv[lv].next = p.next
	} else {
		l.head = p.next
	}
	if p.next >= 0 {
		h.slots[p.next].lv[lv].prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next = -1, -1
}

func (h *Hierarchy) moveFront(lv int, s int32) {
	if h.lists[lv].head == s {
		return
	}
	h.unlink(lv, s)
	h.pushFront(lv, s)
}

// evictCache takes slot s out of the cache; its memory residency stays.
func (h *Hierarchy) evictCache(s int32) {
	h.remove(cacheLv, s)
	h.slots[s].pins = 0
	h.counters.Evictions++
}

// makeRoom evicts LRU unpinned entries until bytes fit. If pinned entries
// block eviction the cache is allowed to overflow: engines size partitions
// with the Pg formula precisely so this stays rare.
func (h *Hierarchy) makeRoom(bytes int64) {
	for h.used[cacheLv]+bytes > h.cfg.CacheBytes {
		s := h.lists[cacheLv].tail
		for s >= 0 && h.slots[s].pins > 0 {
			s = h.slots[s].lv[cacheLv].prev
		}
		if s < 0 {
			return
		}
		h.evictCache(s)
		h.release(s)
	}
}

// ensureMemory makes slot s memory-resident at bytes, returning the disk
// bytes read (0 if it was already resident at that size). Memory eviction to
// disk is free (write traffic is not modelled).
func (h *Hierarchy) ensureMemory(s int32, bytes int64) int64 {
	if m := &h.slots[s].lv[memLv]; m.in {
		if m.bytes == bytes {
			h.moveFront(memLv, s)
			return 0
		}
		h.remove(memLv, s)
	}
	if h.cfg.MemoryBytes > 0 {
		for h.used[memLv]+bytes > h.cfg.MemoryBytes && h.lists[memLv].tail >= 0 {
			t := h.lists[memLv].tail
			h.remove(memLv, t)
			h.release(t)
		}
	}
	h.insert(memLv, s, bytes)
	h.counters.BytesFromDisk += bytes
	h.counters.DiskOps++
	return bytes
}

// touchMemory refreshes the memory-LRU position on cache hits so hot items
// stay memory-resident. A cache-resident item not tracked in memory — every
// Private item on its first hit, or an item memory evicted — is registered
// at its cache size without disk charge and without evicting anything, so
// memory may then hold more than MemoryBytes until the next Struct miss
// makes room.
func (h *Hierarchy) touchMemory(s int32, bytes int64) {
	if h.slots[s].lv[memLv].in {
		h.moveFront(memLv, s)
		return
	}
	h.insert(memLv, s, bytes)
}

// RandomTouch models block-granularity scattered accesses into a flat array
// much larger than any partition (CLIP's beyond-neighborhood vertex-state
// accesses): blocks are touched, of which hitFraction find their line
// resident. Missed blocks count into the swap volume and miss-rate
// accounting; the returned simulated time covers the misses at memory
// bandwidth with burst-amortized latency.
func (h *Hierarchy) RandomTouch(blocks int64, hitFraction float64) float64 {
	if blocks <= 0 {
		return 0
	}
	if hitFraction < 0 {
		hitFraction = 0
	}
	if hitFraction > 1 {
		hitFraction = 1
	}
	misses := int64(float64(blocks) * (1 - hitFraction))
	h.mu.Lock()
	h.counters.AccessBlocks += blocks
	h.counters.MissBlocks += misses
	bytes := misses * h.cfg.BlockBytes
	h.counters.BytesIntoCache += bytes
	cost := h.cfg.Cost
	h.mu.Unlock()
	return float64(bytes)/cost.MemBandwidth + float64(misses)*cost.MemLatency/16
}
