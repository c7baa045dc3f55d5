package cache

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/invariants"
)

// exactAllocs: the invariants build allocates in its lock-rank checks. The
// cache pools nothing through sync.Pool, so the race detector leaves its
// counts exact.
const exactAllocs = !invariants.Enabled

// sized returns an n-byte value of tag bytes: every Set charges len(v), which
// the invariants build checks.
func sized(tag byte, n int) []byte { return bytes.Repeat([]byte{tag}, n) }

func TestGetSet(t *testing.T) {
	c := New(1000)
	k := Key{FileNum: 1, Offset: 0}
	if _, ok := c.Get(k); ok {
		t.Error("empty cache hit")
	}
	c.Set(k, []byte("v1"), 2)
	v, ok := c.Get(k)
	if !ok || string(v) != "v1" {
		t.Errorf("Get = %q, %v", v, ok)
	}
}

func TestReplaceUpdatesCharge(t *testing.T) {
	c := NewSharded(100, 1)
	k := Key{FileNum: 1}
	c.Set(k, sized('s', 10), 10)
	c.Set(k, sized('l', 60), 60)
	if c.Used() != 60 {
		t.Errorf("Used = %d, want 60", c.Used())
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if v, _ := c.Get(k); !bytes.Equal(v, sized('l', 60)) {
		t.Errorf("value = %q", v)
	}
}

// LRU-order tests pin the shard count to 1: with multiple stripes, eviction
// order is only LRU per shard, not globally.
func TestEvictionLRUOrder(t *testing.T) {
	c := NewSharded(30, 1)
	for i := 0; i < 3; i++ {
		c.Set(Key{FileNum: uint64(i)}, sized(byte(i), 10), 10)
	}
	// Touch 0 so it becomes most recent; inserting a new entry evicts 1, and
	// the new entry is 1's, recycled.
	c.Get(Key{FileNum: 0})
	c.Set(Key{FileNum: 9}, sized(9, 10), 10)
	if _, ok := c.Get(Key{FileNum: 1}); ok {
		t.Error("LRU entry not evicted")
	}
	for _, f := range []uint64{0, 2, 9} {
		if v, ok := c.Get(Key{FileNum: f}); !ok || !bytes.Equal(v, sized(byte(f), 10)) {
			t.Errorf("entry %d = %v, %v: wrongly evicted or overwritten", f, v, ok)
		}
	}
}

func TestEvictionByWeight(t *testing.T) {
	c := NewSharded(100, 1)
	c.Set(Key{FileNum: 1}, sized('a', 90), 90)
	c.Set(Key{FileNum: 2}, sized('b', 90), 90) // must evict 1
	if _, ok := c.Get(Key{FileNum: 1}); ok {
		t.Error("overweight entry kept")
	}
	if c.Used() > 100 {
		t.Errorf("Used = %d exceeds capacity", c.Used())
	}
}

// TestOversizeEntryEvictsNothing: a value charged more than its shard holds
// is refused without evicting what is resident, and an older value under the
// same key is dropped rather than served stale.
func TestOversizeEntryEvictsNothing(t *testing.T) {
	c := NewSharded(100, 1)
	for i := 0; i < 9; i++ {
		c.Set(Key{FileNum: uint64(i)}, sized(byte(i), 10), 10)
	}
	c.Set(Key{FileNum: 100}, sized('x', 101), 101)
	if c.Len() != 9 || c.Used() != 90 {
		t.Fatalf("Len=%d Used=%d after an oversize Set, want the 9 residents (90 bytes) kept", c.Len(), c.Used())
	}
	if _, ok := c.Get(Key{FileNum: 100}); ok {
		t.Error("the oversize value was cached")
	}
	c.Set(Key{FileNum: 4}, sized('y', 101), 101)
	if v, ok := c.Get(Key{FileNum: 4}); ok {
		t.Errorf("Get after an oversize replace = %.10q: the stale value is still served", v)
	}
	if c.Len() != 8 || c.Used() != 80 {
		t.Errorf("Len=%d Used=%d after an oversize replace, want 8 entries of 80 bytes", c.Len(), c.Used())
	}
	for _, f := range []uint64{0, 1, 2, 3, 5, 6, 7, 8} {
		if _, ok := c.Get(Key{FileNum: f}); !ok {
			t.Errorf("entry %d evicted by an oversize Set", f)
		}
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := New(0)
	c.Set(Key{FileNum: 1}, []byte("x"), 1)
	if _, ok := c.Get(Key{FileNum: 1}); ok {
		t.Error("zero-capacity cache stored an entry")
	}
}

func TestEvictFile(t *testing.T) {
	c := New(1000)
	for off := uint64(0); off < 5; off++ {
		c.Set(Key{FileNum: 7, Offset: off}, sized(byte(off), 10), 10)
		c.Set(Key{FileNum: 8, Offset: off}, sized(byte(off), 10), 10)
	}
	c.EvictFile(7)
	for off := uint64(0); off < 5; off++ {
		if _, ok := c.Get(Key{FileNum: 7, Offset: off}); ok {
			t.Errorf("file 7 offset %d survived EvictFile", off)
		}
		if _, ok := c.Get(Key{FileNum: 8, Offset: off}); !ok {
			t.Errorf("file 8 offset %d wrongly evicted", off)
		}
	}
	if c.Used() != 50 {
		t.Errorf("Used = %d, want 50", c.Used())
	}
}

func TestStats(t *testing.T) {
	c := New(100)
	c.Set(Key{FileNum: 1}, []byte("v"), 1)
	c.Get(Key{FileNum: 1})
	c.Get(Key{FileNum: 2})
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Errorf("Stats = %d hits, %d misses", h, m)
	}
}

// TestContainsIsNoRead: Contains counts no lookup and leaves the LRU order as
// it is, so the entry it found is still the one evicted first.
func TestContainsIsNoRead(t *testing.T) {
	c := NewSharded(20, 1)
	c.Set(Key{FileNum: 1}, sized(1, 10), 10)
	c.Set(Key{FileNum: 2}, sized(2, 10), 10)
	if !c.Contains(Key{FileNum: 1}) || c.Contains(Key{FileNum: 3}) {
		t.Fatal("Contains disagrees with what was set")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Errorf("Contains counted %d hits, %d misses", h, m)
	}
	c.Set(Key{FileNum: 3}, sized(3, 10), 10)
	if c.Contains(Key{FileNum: 1}) || !c.Contains(Key{FileNum: 2}) {
		t.Error("Contains refreshed the entry it found")
	}
}

// TestHasRoom: HasRoom says whether a Set of that charge into the key's shard
// would leave everything resident, and, like Contains, counts no lookup.
func TestHasRoom(t *testing.T) {
	c := NewSharded(30, 1)
	c.Set(Key{FileNum: 1}, sized(1, 10), 10)
	if !c.HasRoom(Key{FileNum: 2}, 20) || c.HasRoom(Key{FileNum: 2}, 21) {
		t.Fatal("HasRoom disagrees with the 20 bytes free")
	}
	c.Set(Key{FileNum: 2}, sized(2, 20), 20)
	if c.HasRoom(Key{FileNum: 3}, 1) || !c.HasRoom(Key{FileNum: 3}, 0) {
		t.Error("a full shard has room")
	}
	if !c.Contains(Key{FileNum: 1}) || c.Used() != 30 {
		t.Error("a Set into the room HasRoom reported evicted something")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Errorf("HasRoom counted %d hits, %d misses", h, m)
	}
	if New(0).HasRoom(Key{}, 1) {
		t.Error("a cache that stores nothing has room")
	}
}

func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16},
	} {
		if got := NewSharded(1000, tc.ask).Shards(); got != tc.want {
			t.Errorf("NewSharded(n=%d).Shards() = %d, want %d", tc.ask, got, tc.want)
		}
	}
	if got := NewSharded(1000, 0).Shards(); got != DefaultShards() {
		t.Errorf("NewSharded(n=0).Shards() = %d, want DefaultShards()=%d", got, DefaultShards())
	}
}

func TestClampShards(t *testing.T) {
	for _, tc := range []struct {
		ask       int
		capacity  int64
		entrySize int64
		want      int
	}{
		// Ample capacity: count passes through (rounded up to a power of two).
		{16, 8 << 20, 4 << 10, 16},
		{3, 8 << 20, 4 << 10, 4},
		// 64 KiB cache of 4 KiB blocks: 16 shards would leave 4 KiB each;
		// clamp to 4 so every shard holds >= 4 blocks.
		{16, 64 << 10, 4 << 10, 4},
		// Cache smaller than 4 entries: collapse to one shard.
		{16, 8 << 10, 4 << 10, 1},
		{8, 0, 4 << 10, 8},   // unknown capacity: no clamp
		{8, 1 << 20, 0, 8},   // unknown entry size: no clamp
		{0, 1 << 20, 512, 1}, // non-positive ask floors at 1
	} {
		got := ClampShards(tc.ask, tc.capacity, tc.entrySize)
		if got != tc.want {
			t.Errorf("ClampShards(%d, %d, %d) = %d, want %d",
				tc.ask, tc.capacity, tc.entrySize, got, tc.want)
		}
	}
}

func TestShardedCapacitySplit(t *testing.T) {
	// Total capacity must be preserved exactly across shards, including when
	// it does not divide evenly.
	c := NewSharded(103, 4)
	var total int64
	for i := range c.shards {
		total += c.shards[i].capacity
	}
	if total != 103 {
		t.Errorf("sum of shard capacities = %d, want 103", total)
	}
}

func TestShardedBasicOps(t *testing.T) {
	// All operations must work identically regardless of stripe count.
	for _, n := range []int{1, 2, 4, 8} {
		c := NewSharded(10000, n)
		for i := uint64(0); i < 100; i++ {
			c.Set(Key{FileNum: i, Offset: i * 7}, sized(byte(i), 10), 10)
		}
		if c.Len() != 100 {
			t.Errorf("shards=%d: Len = %d, want 100", n, c.Len())
		}
		if c.Used() != 1000 {
			t.Errorf("shards=%d: Used = %d, want 1000", n, c.Used())
		}
		for i := uint64(0); i < 100; i++ {
			if v, ok := c.Get(Key{FileNum: i, Offset: i * 7}); !ok || !bytes.Equal(v, sized(byte(i), 10)) {
				t.Fatalf("shards=%d: Get(%d) = %v, %v", n, i, v, ok)
			}
		}
		c.EvictFile(42)
		if c.Len() != 99 {
			t.Errorf("shards=%d: Len after EvictFile = %d, want 99", n, c.Len())
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewSharded(10000, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := Key{FileNum: uint64(i % 50), Offset: uint64(g)}
				c.Set(k, sized(byte(g), 5), 5)
				c.Get(k)
				if i%100 == 0 {
					c.EvictFile(uint64(i % 50))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Used() > 10000 {
		t.Errorf("Used = %d exceeds capacity after concurrent load", c.Used())
	}
}

// keyed returns a value of n >= 16 bytes that names k, so a Get can tell a
// value set under another key.
func keyed(k Key, n int) []byte {
	v := make([]byte, n)
	binary.LittleEndian.PutUint64(v, k.FileNum)
	binary.LittleEndian.PutUint64(v[8:], k.Offset)
	return v
}

// checkShards walks every shard under its lock: the recency list, the map
// and the byte count agree, no shard holds more than its capacity, and the
// free list holds only cleared entries the map does not name.
func checkShards(t *testing.T, c *Cache) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var used int64
		n := 0
		for e := s.lru.next; e != &s.lru; e = e.next {
			if s.items[e.key] != e {
				t.Errorf("shard %d: listed entry %v is not the map's", i, e.key)
			}
			used += e.charge
			n++
		}
		if n != s.n || n != len(s.items) || used != s.used || used > s.capacity {
			t.Errorf("shard %d: %d listed (n %d, map %d), %d bytes listed (used %d, capacity %d)",
				i, n, s.n, len(s.items), used, s.used, s.capacity)
		}
		for e := s.free; e != nil; e = e.next {
			if e.value != nil || e.charge != 0 || e.prev != nil {
				t.Errorf("shard %d: free entry not cleared: %v, charge %d", i, e.key, e.charge)
			}
			if s.items[e.key] == e {
				t.Errorf("shard %d: free entry %v still in the map", i, e.key)
			}
		}
		s.mu.Unlock()
	}
}

// TestRecycledEntriesUnderConcurrency races Set, Get and EvictFile over a
// cache far smaller than the keys, so entries are recycled all the time: a
// Get must only ever return a value set under the key it asked for, and when
// the writers are done the shards' accounting must hold.
func TestRecycledEntriesUnderConcurrency(t *testing.T) {
	c := NewSharded(64*32, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{FileNum: uint64(i % 13), Offset: uint64((i * 7) % 61)}
				size := 16 + (i+g)%48
				c.Set(k, keyed(k, size), int64(size))
				if v, ok := c.Get(k); ok && !bytes.Equal(v[:16], keyed(k, 16)) {
					t.Errorf("Get(%v) returned the value of another key", k)
					return
				}
				if i%97 == g {
					c.EvictFile(uint64(i % 13))
				}
			}
		}(g)
	}
	wg.Wait()
	checkShards(t, c)
	for f := uint64(0); f < 13; f++ {
		c.EvictFile(f)
	}
	if c.Len() != 0 || c.Used() != 0 {
		t.Errorf("Len=%d Used=%d after evicting every file", c.Len(), c.Used())
	}
	checkShards(t, c)
}

// TestSetAllocsOnFullShard: a Set into a full shard takes the entry its
// eviction frees, so it allocates nothing.
func TestSetAllocsOnFullShard(t *testing.T) {
	if !exactAllocs {
		t.Skip("allocation counts are exact only without -tags invariants")
	}
	c := NewSharded(64*4096, 1)
	page := make([]byte, 4096)
	off := uint64(0)
	set := func() {
		c.Set(Key{FileNum: 1, Offset: off}, page, 4096)
		off += 4096
	}
	for i := 0; i < 4096; i++ { // fill the shard and settle the map's size
		set()
	}
	if got := testing.AllocsPerRun(1000, set); got != 0 {
		t.Errorf("%.2f allocations per Set on a full shard, want 0", got)
	}
	if c.Len() != 64 {
		t.Errorf("Len = %d, want 64", c.Len())
	}
}

// TestResidentChargeAccounting pins the compression-aware contract: the
// charge is the value's resident (decoded) length, and Used() tracks exactly
// that — never a smaller on-disk length.
func TestResidentChargeAccounting(t *testing.T) {
	c := NewSharded(1<<20, 1)
	// Three "blocks" whose on-disk size would be much smaller; the cache
	// must account for the decoded footprint.
	sizes := []int{4096, 6000, 1024}
	var want int64
	for i, sz := range sizes {
		c.Set(Key{FileNum: 1, Offset: uint64(i * 100)}, make([]byte, sz), int64(sz))
		want += int64(sz)
	}
	if got := c.Used(); got != want {
		t.Fatalf("Used() = %d, want %d (sum of resident sizes)", got, want)
	}
	// Replacing a block with a differently-sized decode adjusts the total.
	c.Set(Key{FileNum: 1, Offset: 0}, make([]byte, 8192), 8192)
	want += 8192 - 4096
	if got := c.Used(); got != want {
		t.Fatalf("Used() after replace = %d, want %d", got, want)
	}
	c.EvictFile(1)
	if got := c.Used(); got != 0 {
		t.Fatalf("Used() after EvictFile = %d, want 0", got)
	}
}
