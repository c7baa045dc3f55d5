// Package cache provides the LRU cache of decoded bytes the read path shares:
// SSTable data blocks (uncompressed) and value-log values. Index blocks and
// Bloom filters are not cached here; each sstable.Reader pins its own, which
// is the paper's assumption that indexes and filters of hot SSTables stay
// resident in memory (§II-B, §III-C).
//
// Entries are keyed by (file number, offset) and weighed by their byte size.
// The cache is lock-striped into shards so concurrent compaction readers and
// foreground Gets do not contend on one mutex: each key hashes to a shard
// with its own lock, LRU list, and capacity slice. The cache is safe for
// concurrent use.
//
// An entry evicted (or dropped by EvictFile) is cleared and kept on its
// shard's free list for the next Set, so a full cache inserts without
// allocating. Entries never leave the shard lock, so no caller can see one
// being recycled. The bytes a Get returned stay valid after their entry goes:
// the cache only drops its reference to them and never writes to them.
//
// Set evicts for whatever it inserts. A caller that would rather not cache a
// value than push out what is there asks HasRoom first: a table iterator does
// for the blocks a long walk streams through after its seek, which are rarely
// read again, so a scan of the whole store leaves the blocks point reads and
// seeks keep hot where they are.
package cache

import (
	"runtime"

	"repro/internal/invariants"
)

// Key identifies a cached entry.
type Key struct {
	FileNum uint64
	Offset  uint64
}

// Cache is a size-bounded LRU map, striped into independently locked
// shards. Eviction is LRU per shard; the byte bound is the sum of the
// per-shard bounds.
type Cache struct {
	shards []shard
	mask   uint64
}

// shard is one lock stripe: the original single-mutex LRU.
type shard struct {
	mu       invariants.Mutex
	capacity int64
	used     int64
	// lru is the sentinel of the circular recency list: lru.next is the most
	// recent entry, lru.prev the oldest. n counts the entries on it.
	lru   entry
	n     int
	items map[Key]*entry
	// free heads the entries released by eviction, linked through next, for
	// Set to reuse.
	free *entry

	hits, misses int64
}

// entry is a cached value and its own node on the shard's recency list.
type entry struct {
	key        Key
	value      []byte
	charge     int64
	prev, next *entry
}

func (s *shard) pushFront(e *entry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
	s.n++
}

func (s *shard) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	s.n--
}

// release drops a resident entry from the list, the map and the byte count,
// clears it and keeps it on the free list.
func (s *shard) release(e *entry) {
	s.unlink(e)
	delete(s.items, e.key)
	s.used -= e.charge
	*e = entry{next: s.free}
	s.free = e
}

// checkAccounting verifies the shard's byte/entry bookkeeping under
// -tags invariants. Called with s.mu held after every mutation.
func (s *shard) checkAccounting() {
	if !invariants.Enabled {
		return
	}
	if s.used < 0 {
		invariants.Violatedf("cache shard byte accounting went negative: %d", s.used)
	}
	if len(s.items) != s.n {
		invariants.Violatedf("cache shard map/list disagree: %d items, %d list entries",
			len(s.items), s.n)
	}
	if s.n == 0 && s.used != 0 {
		invariants.Violatedf("cache shard empty but %d bytes still charged", s.used)
	}
}

// DefaultShards returns the shard count used when none is specified: the
// smallest power of two covering GOMAXPROCS, capped at 16.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	return ceilPow2(n)
}

func ceilPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New returns a cache bounded at capacity bytes with the default shard
// count. A non-positive capacity yields a cache that stores nothing (but
// never fails).
func New(capacity int64) *Cache { return NewSharded(capacity, 0) }

// ClampShards halves n (keeping it a power of two, floored at 1) until each
// shard's slice of capacity is at least 4×entrySize, so entries of the given
// typical size remain cacheable in every shard. Capacity is split evenly
// across shards, which makes any entry larger than capacity/n silently
// uncacheable; callers that know their entry size (e.g. the block size for a
// block cache) should pass shard counts through this clamp.
func ClampShards(n int, capacity, entrySize int64) int {
	n = ceilPow2(n)
	if capacity <= 0 || entrySize <= 0 {
		return n
	}
	for n > 1 && capacity/int64(n) < 4*entrySize {
		n >>= 1
	}
	return n
}

// NewSharded returns a cache bounded at capacity bytes striped into n
// shards; n is rounded up to a power of two, and n <= 0 selects
// DefaultShards(). Capacity is split evenly across shards, so an entry
// larger than capacity/n is uncacheable — use ClampShards to keep the
// per-shard slice comfortably above the expected entry size.
func NewSharded(capacity int64, n int) *Cache {
	if n <= 0 {
		n = DefaultShards()
	}
	n = ceilPow2(n)
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1)}
	per := capacity / int64(n)
	extra := capacity % int64(n)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Rank("cache.shard.mu", 70)
		s.capacity = per
		if int64(i) < extra {
			s.capacity++
		}
		s.lru.prev, s.lru.next = &s.lru, &s.lru
		s.items = make(map[Key]*entry)
	}
	return c
}

// Shards reports the shard count (diagnostics and tests).
func (c *Cache) Shards() int { return len(c.shards) }

// shardFor hashes a key to its stripe (splitmix64-style finalizer so that
// sequential file numbers and block offsets spread evenly).
func (c *Cache) shardFor(k Key) *shard {
	h := k.FileNum*0x9e3779b97f4a7c15 + k.Offset
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return &c.shards[h&c.mask]
}

// Get returns the cached value for k, if present.
func (c *Cache) Get(k Key) ([]byte, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		s.unlink(e)
		s.pushFront(e)
		s.hits++
		return e.value, true
	}
	s.misses++
	return nil, false
}

// Contains reports whether k is cached. It is a check, not a read: it counts
// neither a hit nor a miss and leaves k's place in the LRU order alone.
func (c *Cache) Contains(k Key) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.items[k]
	return ok
}

// HasRoom reports whether k's shard holds charge more bytes without evicting
// anything: a caller that would rather not cache a value than push out what is
// there asks it before it makes the copy it would Set. Like Contains it counts
// nothing and moves nothing; a Set racing into the shard between the two may
// still fill it first.
func (c *Cache) HasRoom(k Key, charge int64) bool {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used+charge <= s.capacity
}

// Set inserts or replaces the value for k with the given byte charge,
// evicting least-recently-used entries of k's shard as needed. The charge
// must be len(v), the value's resident (decoded, uncompressed) size: the
// shard capacity math and ClampShards both reason in charged bytes, so
// charging a smaller on-disk length would silently let a shard hold many
// times its budget. A value charged more than its shard's capacity is not
// cached and evicts nothing; an older value under k is dropped, so it is
// never served again.
func (c *Cache) Set(k Key, v []byte, charge int64) {
	if invariants.Enabled && charge != int64(len(v)) {
		invariants.Violatedf("cache: charge %d != resident bytes %d for %v", charge, len(v), k)
	}
	s := c.shardFor(k)
	if s.capacity <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.items[k]
	switch {
	case charge > s.capacity:
		if old != nil {
			s.release(old)
		}
	case old != nil:
		s.used += charge - old.charge
		old.value, old.charge = v, charge
		s.unlink(old)
		s.pushFront(old)
	default:
		e := s.free
		if e != nil {
			s.free = e.next
		} else {
			e = new(entry)
		}
		e.key, e.value, e.charge = k, v, charge
		s.pushFront(e)
		s.items[k] = e
		s.used += charge
	}
	// The entry just set fits the shard alone, so it is never the one evicted.
	for s.used > s.capacity {
		s.release(s.lru.prev)
	}
	s.checkAccounting()
}

// EvictFile drops every entry belonging to the given file, called when an
// SSTable is deleted. The file's blocks may live in any shard.
func (c *Cache) EvictFile(fileNum uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.lru.next; e != &s.lru; {
			next := e.next
			if e.key.FileNum == fileNum {
				s.release(e)
			}
			e = next
		}
		s.checkAccounting()
		s.mu.Unlock()
	}
}

// Len reports the number of resident entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// Used reports resident bytes across all shards.
func (c *Cache) Used() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}

// Stats reports hit/miss counters summed across shards.
func (c *Cache) Stats() (hits, misses int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}
