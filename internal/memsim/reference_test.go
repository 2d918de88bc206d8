package memsim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refHierarchy is the map-based Hierarchy the slab replaced, kept verbatim
// apart from its names as the oracle of TestHierarchyMatchesReference: two
// maps keyed by ItemID, one per level, each entry its own heap object on an
// intrusive LRU list.
type refHierarchy struct {
	cfg Config

	cacheUsed  int64
	cacheItems map[ItemID]*refEntry
	cacheLRU   refList

	memUsed  int64
	memItems map[ItemID]*refEntry
	memLRU   refList

	counters Counters
}

type refEntry struct {
	id         ItemID
	bytes      int64
	pins       int
	prev, next *refEntry
}

type refList struct{ head, tail *refEntry }

func (l *refList) pushFront(e *refEntry) {
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

func (l *refList) remove(e *refEntry) {
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

func (l *refList) moveFront(e *refEntry) {
	l.remove(e)
	l.pushFront(e)
}

func newRef(cfg Config) *refHierarchy {
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 64
	}
	return &refHierarchy{cfg: cfg, cacheItems: map[ItemID]*refEntry{}, memItems: map[ItemID]*refEntry{}}
}

func (h *refHierarchy) blocks(bytes int64) int64 {
	return (bytes + h.cfg.BlockBytes - 1) / h.cfg.BlockBytes
}

func (h *refHierarchy) Load(id ItemID, bytes int64, pin bool) LoadResult {
	h.counters.AccessBlocks += h.blocks(bytes)
	h.counters.LoadOps++
	if e, ok := h.cacheItems[id]; ok {
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
	if bytes <= h.cfg.CacheBytes {
		h.makeRoom(bytes)
		e := &refEntry{id: id, bytes: bytes}
		if pin {
			e.pins = 1
		}
		h.cacheItems[id] = e
		h.cacheLRU.pushFront(e)
		h.cacheUsed += bytes
	}
	return res
}

func (h *refHierarchy) Unpin(id ItemID) {
	if e, ok := h.cacheItems[id]; ok && e.pins > 0 {
		e.pins--
	}
}

func (h *refHierarchy) Drop(id ItemID) {
	if e, ok := h.cacheItems[id]; ok {
		h.evictCacheEntry(e)
	}
	if e, ok := h.memItems[id]; ok {
		h.memLRU.remove(e)
		delete(h.memItems, id)
		h.memUsed -= e.bytes
	}
}

func (h *refHierarchy) Resident(id ItemID) bool {
	_, ok := h.cacheItems[id]
	return ok
}

func (h *refHierarchy) evictCacheEntry(e *refEntry) {
	h.cacheLRU.remove(e)
	delete(h.cacheItems, e.id)
	h.cacheUsed -= e.bytes
	h.counters.Evictions++
}

func (h *refHierarchy) makeRoom(bytes int64) {
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

func (h *refHierarchy) ensureMemory(id ItemID, bytes int64) int64 {
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
	e := &refEntry{id: id, bytes: bytes}
	h.memItems[id] = e
	h.memLRU.pushFront(e)
	h.memUsed += bytes
	h.counters.BytesFromDisk += bytes
	h.counters.DiskOps++
	return bytes
}

func (h *refHierarchy) touchMemory(id ItemID, bytes int64) {
	if e, ok := h.memItems[id]; ok {
		h.memLRU.moveFront(e)
		return
	}
	e := &refEntry{id: id, bytes: bytes}
	h.memItems[id] = e
	h.memLRU.pushFront(e)
	h.memUsed += bytes
}

func (h *refHierarchy) RandomTouch(blocks int64, hitFraction float64) float64 {
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
	h.counters.AccessBlocks += blocks
	h.counters.MissBlocks += misses
	bytes := misses * h.cfg.BlockBytes
	h.counters.BytesIntoCache += bytes
	return float64(bytes)/h.cfg.Cost.MemBandwidth + float64(misses)*h.cfg.Cost.MemLatency/16
}

// TestHierarchyMatchesReference drives the slab Hierarchy and the map-based
// reference with the same seeded random operations — Loads pinned and not,
// at an item's last size or a new one, Unpins, Drops and RandomTouches — on
// configurations with cache pressure, memory pressure, both, and none
// (Unlimited). Every LoadResult, the counters, the cache and memory bytes in
// use, and every item's residency must agree after every operation. The item
// set mixes Struct and Private items, shared (Job -1) and per-job ones, and
// IDs at the edges of their fields' ranges, which the slab's key must keep
// apart.
func TestHierarchyMatchesReference(t *testing.T) {
	configs := map[string]Config{
		"cache":     {CacheBytes: 4096, BlockBytes: 64, Cost: DefaultCost()},
		"memory":    {CacheBytes: 1024, MemoryBytes: 3072, BlockBytes: 64, Cost: DefaultCost()},
		"both":      {CacheBytes: 2048, MemoryBytes: 5000, BlockBytes: 32, Cost: DefaultCost()},
		"tiny":      {CacheBytes: 300, MemoryBytes: 600, Cost: DefaultCost()},
		"unlimited": Unlimited().Config(),
	}
	var ids []ItemID
	for uid := int64(1); uid <= 12; uid++ {
		ids = append(ids, ItemID{Kind: Struct, UID: uid, Job: -1})
		for job := int32(0); job < 3; job++ {
			ids = append(ids, ItemID{Kind: Private, UID: uid, Job: job})
		}
	}
	ids = append(ids,
		ItemID{Kind: Struct, UID: 3, Job: 7},     // a per-job structure copy
		ItemID{Kind: Struct, UID: 3, Job: -1003}, // a per-snapshot copy
		ItemID{Kind: Struct, UID: -1, Job: -1},   // UIDs at the ends of int64
		ItemID{Kind: Struct, UID: 1<<63 - 1, Job: -1},
		ItemID{Kind: Private, UID: 5, Job: 1<<31 - 1}, // Jobs at the ends of int32
		ItemID{Kind: Private, UID: 5, Job: -1 << 31},
		ItemID{Kind: 255, UID: 5, Job: -1}, // Kind's top value beside Job -1
		ItemID{Kind: 255, UID: 5, Job: 0},
	)
	for name, cfg := range configs {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				checkAgainstReference(t, cfg, ids, rand.New(rand.NewSource(seed)), 4000)
			})
		}
	}
}

func checkAgainstReference(t *testing.T, cfg Config, ids []ItemID, rng *rand.Rand, ops int) {
	t.Helper()
	h, ref := New(cfg), newRef(cfg)
	sizes := map[ItemID]int64{}
	for op := 0; op < ops; op++ {
		id := ids[rng.Intn(len(ids))]
		var what string
		switch r := rng.Intn(20); {
		case r < 14:
			bytes, ok := sizes[id]
			if !ok || rng.Intn(6) == 0 {
				bytes = int64(64 + rng.Intn(40)*32)
				if rng.Intn(40) == 0 {
					bytes = 8192 // larger than every bounded cache: streams through
				}
				sizes[id] = bytes
			}
			pin := rng.Intn(12) == 0
			what = fmt.Sprintf("Load(%v, %d, %v)", id, bytes, pin)
			if got, want := h.Load(id, bytes, pin), ref.Load(id, bytes, pin); got != want {
				t.Fatalf("op %d %s = %+v, reference %+v", op, what, got, want)
			}
		case r < 17:
			what = fmt.Sprintf("Unpin(%v)", id)
			h.Unpin(id)
			ref.Unpin(id)
		case r < 19:
			what = fmt.Sprintf("Drop(%v)", id)
			h.Drop(id)
			ref.Drop(id)
		default:
			blocks, hit := int64(rng.Intn(200)), rng.Float64()*1.2-0.1
			what = fmt.Sprintf("RandomTouch(%d, %v)", blocks, hit)
			if got, want := h.RandomTouch(blocks, hit), ref.RandomTouch(blocks, hit); got != want {
				t.Fatalf("op %d %s = %v, reference %v", op, what, got, want)
			}
		}
		if got, want := h.Counters(), ref.counters; got != want {
			t.Fatalf("op %d %s: counters %+v, reference %+v", op, what, got, want)
		}
		if got, want := h.CacheUsed(), ref.cacheUsed; got != want {
			t.Fatalf("op %d %s: CacheUsed %d, reference %d", op, what, got, want)
		}
		if got, want := h.used[memLv], ref.memUsed; got != want {
			t.Fatalf("op %d %s: memory used %d, reference %d", op, what, got, want)
		}
		for _, x := range ids {
			if got, want := h.Resident(x), ref.Resident(x); got != want {
				t.Fatalf("op %d %s: Resident(%v) = %v, reference %v", op, what, x, got, want)
			}
		}
	}
}
