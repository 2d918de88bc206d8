package memsim

import (
	"math/rand"
	"testing"
)

func sid(uid int64) ItemID { return ItemID{Kind: Struct, UID: uid, Job: -1} }
func pid(uid int64, job int32) ItemID {
	return ItemID{Kind: Private, UID: uid, Job: job}
}

func newTest(cache, mem int64) *Hierarchy {
	return New(Config{CacheBytes: cache, MemoryBytes: mem, BlockBytes: 64, Cost: DefaultCost()})
}

func TestMissThenHit(t *testing.T) {
	h := newTest(1024, 0)
	r1 := h.Load(sid(1), 512, false)
	if r1.Hit || r1.BytesLoaded != 512 || r1.DiskBytes != 512 {
		t.Fatalf("first load = %+v, want cold miss with disk read", r1)
	}
	if r1.Time <= 0 {
		t.Fatal("miss must cost time")
	}
	r2 := h.Load(sid(1), 512, false)
	if !r2.Hit || r2.BytesLoaded != 0 || r2.Time != 0 {
		t.Fatalf("second load = %+v, want hit", r2)
	}
	c := h.Counters()
	if c.AccessBlocks != 16 || c.MissBlocks != 8 {
		t.Fatalf("counters = %+v, want 16 accessed / 8 missed blocks", c)
	}
	if got := c.MissRate(); got != 50 {
		t.Fatalf("MissRate = %v, want 50", got)
	}
}

func TestLRUEviction(t *testing.T) {
	h := newTest(1000, 0)
	h.Load(sid(1), 400, false)
	h.Load(sid(2), 400, false)
	h.Load(sid(1), 400, false) // refresh 1
	h.Load(sid(3), 400, false) // must evict 2 (LRU), not 1
	if !h.Resident(sid(1)) {
		t.Fatal("item 1 evicted despite being MRU")
	}
	if h.Resident(sid(2)) {
		t.Fatal("item 2 not evicted")
	}
	if !h.Resident(sid(3)) {
		t.Fatal("item 3 not resident")
	}
	if h.CacheUsed() != 800 {
		t.Fatalf("CacheUsed = %d, want 800", h.CacheUsed())
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	h := newTest(1000, 0)
	h.Load(sid(1), 600, true) // pinned
	h.Load(sid(2), 600, false)
	if !h.Resident(sid(1)) {
		t.Fatal("pinned item evicted")
	}
	h.Unpin(sid(1))
	h.Load(sid(3), 600, false)
	if h.Resident(sid(1)) {
		t.Fatal("unpinned LRU item should have been evicted")
	}
}

func TestNestedPins(t *testing.T) {
	h := newTest(1000, 0)
	h.Load(sid(1), 600, true)
	h.Load(sid(1), 600, true) // second pin
	h.Unpin(sid(1))
	h.Load(sid(2), 600, false)
	if !h.Resident(sid(1)) {
		t.Fatal("item with one remaining pin evicted")
	}
	h.Unpin(sid(1))
	h.Load(sid(3), 600, false)
	if h.Resident(sid(1)) {
		t.Fatal("fully unpinned item survived pressure")
	}
}

func TestOversizedItemStreams(t *testing.T) {
	h := newTest(100, 0)
	r := h.Load(sid(1), 500, false)
	if r.Hit || r.BytesLoaded != 500 {
		t.Fatalf("oversized load = %+v", r)
	}
	if h.Resident(sid(1)) {
		t.Fatal("oversized item must not become resident")
	}
	if h.CacheUsed() != 0 {
		t.Fatalf("CacheUsed = %d, want 0", h.CacheUsed())
	}
}

func TestMemorySpillCausesDiskIO(t *testing.T) {
	h := newTest(100, 1000) // tiny cache so everything misses; memory 1000
	h.Load(sid(1), 600, false)
	h.Load(sid(2), 600, false) // evicts 1 from memory
	c := h.Counters()
	if c.BytesFromDisk != 1200 {
		t.Fatalf("disk bytes = %d, want 1200", c.BytesFromDisk)
	}
	h.Load(sid(1), 600, false) // 1 must come from disk again
	if got := h.Counters().BytesFromDisk; got != 1800 {
		t.Fatalf("disk bytes = %d, want 1800 after re-read", got)
	}
}

func TestUnlimitedMemoryNoRereads(t *testing.T) {
	h := newTest(100, 0)
	h.Load(sid(1), 600, false)
	h.Load(sid(2), 600, false)
	h.Load(sid(1), 600, false)
	if got := h.Counters().BytesFromDisk; got != 1200 {
		t.Fatalf("disk bytes = %d, want 1200 (one cold read each)", got)
	}
}

func TestDropInvalidates(t *testing.T) {
	h := newTest(1000, 0)
	h.Load(sid(1), 400, false)
	h.Drop(sid(1))
	if h.Resident(sid(1)) {
		t.Fatal("dropped item still resident")
	}
	r := h.Load(sid(1), 400, false)
	if r.Hit {
		t.Fatal("load after drop must miss")
	}
	if r.DiskBytes != 400 {
		t.Fatalf("drop must purge memory level too, got disk=%d", r.DiskBytes)
	}
}

func TestSizeChangeForcesReload(t *testing.T) {
	h := newTest(1000, 0)
	h.Load(sid(1), 400, false)
	r := h.Load(sid(1), 500, false)
	if r.Hit {
		t.Fatal("resized item must not hit")
	}
	if h.CacheUsed() != 500 {
		t.Fatalf("CacheUsed = %d, want 500", h.CacheUsed())
	}
}

func TestPerJobCopiesAreDistinctItems(t *testing.T) {
	h := newTest(10000, 0)
	h.Load(pid(1, 0), 100, false)
	r := h.Load(pid(1, 1), 100, false)
	if r.Hit {
		t.Fatal("different jobs' private items must not alias")
	}
	r = h.Load(pid(1, 0), 100, false)
	if !r.Hit {
		t.Fatal("same job private item must hit")
	}
}

func TestSharedStructSingleCopy(t *testing.T) {
	// The heart of the LTP model: one struct copy serves all jobs.
	h := newTest(10000, 0)
	h.Load(sid(7), 1000, false)
	for j := 0; j < 8; j++ {
		if r := h.Load(sid(7), 1000, false); !r.Hit {
			t.Fatalf("job %d missed on the shared partition", j)
		}
	}
	c := h.Counters()
	if c.BytesIntoCache != 1000 {
		t.Fatalf("volume = %d, want 1000 (single copy)", c.BytesIntoCache)
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCost()
	if c.LoadTime(500) != c.MemLatency+1 {
		t.Fatalf("LoadTime(500) = %v", c.LoadTime(500))
	}
	if c.DiskTime(25) != c.DiskLatency+1 {
		t.Fatalf("DiskTime(25) = %v", c.DiskTime(25))
	}
	if got := c.ComputeTime(100, 10); got != 100*c.EdgeCost+10*c.VertexCost {
		t.Fatalf("ComputeTime = %v", got)
	}
	if got := c.SyncTime(10); got != 10*c.SyncEntryCost {
		t.Fatalf("SyncTime = %v", got)
	}
}

func TestCountersConsistencyRandomized(t *testing.T) {
	// Invariants under a random workload: residency never exceeds
	// capacity; hit+miss accounting is conserved.
	rng := rand.New(rand.NewSource(99))
	h := newTest(4096, 8192)
	var wantAccess, wantMiss int64
	for i := 0; i < 5000; i++ {
		id := sid(int64(rng.Intn(20)))
		bytes := int64(256 + 64*rng.Intn(8))
		pre := h.Resident(id)
		r := h.Load(id, bytes, false)
		wantAccess += (bytes + 63) / 64
		if !r.Hit {
			wantMiss += (bytes + 63) / 64
		}
		// A resident same-size item must hit. (Resized items may miss.)
		if pre && r.Hit && r.BytesLoaded != 0 {
			t.Fatal("hit with bytes loaded")
		}
		if used := h.CacheUsed(); used > 4096 {
			t.Fatalf("cache overflow: %d", used)
		}
	}
	c := h.Counters()
	if c.AccessBlocks != wantAccess || c.MissBlocks != wantMiss {
		t.Fatalf("counters %+v, want access=%d miss=%d", c, wantAccess, wantMiss)
	}
	if c.TotalAccessedBytes() != c.BytesIntoCache+c.BytesFromDisk {
		t.Fatal("TotalAccessedBytes inconsistent")
	}
}

func TestUnlimited(t *testing.T) {
	h := Unlimited()
	h.Load(sid(1), 1<<30, false)
	if r := h.Load(sid(1), 1<<30, false); !r.Hit {
		t.Fatal("unlimited hierarchy must always hit after first touch")
	}
}

// TestLoadAllocations holds a warmed hierarchy's Load to zero allocations:
// a hit, a re-load of a known item at a new size, and a miss that reuses the
// slot an eviction freed all run on the slab and the index the warm-up
// grew.
func TestLoadAllocations(t *testing.T) {
	h := newTest(1024, 4096)
	for uid := int64(1); uid <= 4; uid++ {
		h.Load(sid(uid), 256, false)
		h.Load(pid(uid, 0), 128, false)
	}
	size := int64(256)
	allocs := testing.AllocsPerRun(100, func() {
		h.Load(sid(1), 256, true) // hit
		h.Unpin(sid(1))
		size ^= 64
		h.Load(pid(2, 0), size, false) // known item, new size
		h.Load(sid(3), 256, false)     // evicted by the re-load's room: a miss
	})
	if allocs != 0 {
		t.Fatalf("warmed Load allocates %v times per run, want 0", allocs)
	}
}
