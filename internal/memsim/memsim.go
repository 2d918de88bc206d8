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

type entry struct {
	id    ItemID
	bytes int64
	pins  int
	// LRU list links.
	prev, next *entry
}

// lruList is an intrusive doubly-linked LRU list (front = most recent).
type lruList struct {
	head, tail *entry
}

func (l *lruList) pushFront(e *entry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lruList) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lruList) moveFront(e *entry) {
	l.remove(e)
	l.pushFront(e)
}

// Hierarchy is the simulated cache + memory + disk stack. It is safe for
// concurrent use.
type Hierarchy struct {
	mu  sync.Mutex
	cfg Config

	cacheUsed  int64
	cacheItems map[ItemID]*entry
	cacheLRU   lruList

	memUsed  int64
	memItems map[ItemID]*entry
	memLRU   lruList

	counters Counters
}

// New builds a hierarchy. A zero BlockBytes defaults to 64.
func New(cfg Config) *Hierarchy {
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 64
	}
	return &Hierarchy{
		cfg:        cfg,
		cacheItems: make(map[ItemID]*entry),
		memItems:   make(map[ItemID]*entry),
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

	if e, ok := h.cacheItems[id]; ok {
		// Size change (snapshot swap or private-table growth) forces a
		// reload of the difference; same size is a pure hit.
		if e.bytes == bytes {
			h.cacheLRU.moveFront(e)
			if pin {
				e.pins++
			}
			h.touchMemory(id, bytes)
			return LoadResult{Hit: true}
		}
		h.evictCacheEntry(e)
	}

	var res LoadResult
	// Job-specific data (private tables, sync buffers) is memory-resident
	// by construction — jobs allocate it, only the far larger shared graph
	// structure pages to and from disk (§2: structure is 71-83% of the
	// footprint). Only Struct items traverse the memory level.
	if id.Kind == Struct {
		res.DiskBytes = h.ensureMemory(id, bytes)
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
		e := &entry{id: id, bytes: bytes}
		if pin {
			e.pins = 1
		}
		h.cacheItems[id] = e
		h.cacheLRU.pushFront(e)
		h.cacheUsed += bytes
	}
	return res
}

// Unpin releases one pin on the item; unpinned items become evictable.
func (h *Hierarchy) Unpin(id ItemID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.cacheItems[id]; ok && e.pins > 0 {
		e.pins--
	}
}

// Drop invalidates an item at every level (a snapshot replaced the
// partition, or a private table was re-laid-out).
func (h *Hierarchy) Drop(id ItemID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.cacheItems[id]; ok {
		h.evictCacheEntry(e)
	}
	if e, ok := h.memItems[id]; ok {
		h.memLRU.remove(e)
		delete(h.memItems, id)
		h.memUsed -= e.bytes
	}
}

// Resident reports whether the item is currently cache-resident.
func (h *Hierarchy) Resident(id ItemID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.cacheItems[id]
	return ok
}

// Counters returns a snapshot of the aggregate counters.
func (h *Hierarchy) Counters() Counters {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counters
}

// ResetCounters zeroes the counters, keeping residency state.
func (h *Hierarchy) ResetCounters() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counters = Counters{}
}

// CacheUsed returns the bytes currently cache-resident.
func (h *Hierarchy) CacheUsed() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cacheUsed
}

func (h *Hierarchy) evictCacheEntry(e *entry) {
	h.cacheLRU.remove(e)
	delete(h.cacheItems, e.id)
	h.cacheUsed -= e.bytes
	h.counters.Evictions++
}

// makeRoom evicts LRU unpinned entries until bytes fit. If pinned entries
// block eviction the cache is allowed to overflow: engines size partitions
// with the Pg formula precisely so this stays rare.
func (h *Hierarchy) makeRoom(bytes int64) {
	for h.cacheUsed+bytes > h.cfg.CacheBytes {
		e := h.cacheLRU.tail
		for e != nil && e.pins > 0 {
			e = e.prev
		}
		if e == nil {
			return
		}
		h.evictCacheEntry(e)
	}
}

// ensureMemory makes the item memory-resident, returning the disk bytes read
// (0 if it was already resident). Memory eviction to disk is free (write
// traffic is not modelled).
func (h *Hierarchy) ensureMemory(id ItemID, bytes int64) int64 {
	if e, ok := h.memItems[id]; ok && e.bytes == bytes {
		h.memLRU.moveFront(e)
		return 0
	}
	if e, ok := h.memItems[id]; ok {
		h.memLRU.remove(e)
		delete(h.memItems, id)
		h.memUsed -= e.bytes
	}
	if h.cfg.MemoryBytes > 0 {
		for h.memUsed+bytes > h.cfg.MemoryBytes && h.memLRU.tail != nil {
			t := h.memLRU.tail
			h.memLRU.remove(t)
			delete(h.memItems, t.id)
			h.memUsed -= t.bytes
		}
	}
	e := &entry{id: id, bytes: bytes}
	h.memItems[id] = e
	h.memLRU.pushFront(e)
	h.memUsed += bytes
	h.counters.BytesFromDisk += bytes
	h.counters.DiskOps++
	return bytes
}

// touchMemory refreshes the memory-LRU position on cache hits so hot items
// stay memory-resident.
func (h *Hierarchy) touchMemory(id ItemID, bytes int64) {
	if e, ok := h.memItems[id]; ok {
		h.memLRU.moveFront(e)
		return
	}
	// Cache-resident but not tracked in memory (e.g. after a Drop race);
	// re-register without disk charge.
	e := &entry{id: id, bytes: bytes}
	h.memItems[id] = e
	h.memLRU.pushFront(e)
	h.memUsed += bytes
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
