package cache

import "testing"

// BenchmarkSetEvicting inserts into a full one-shard cache, so every Set
// evicts the oldest entry: the block-fill path of a cache-missing read. The
// evicted entry is the next Set's, so a Set allocates nothing.
func BenchmarkSetEvicting(b *testing.B) {
	c := NewSharded(1024*4096, 1)
	page := make([]byte, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Set(Key{FileNum: 1, Offset: uint64(i) << 12}, page, 4096)
	}
}

// BenchmarkGetHit reads a resident entry that is not the most recent one, so
// every hit moves it to the front of the recency list.
func BenchmarkGetHit(b *testing.B) {
	c := NewSharded(1024*4096, 1)
	page := make([]byte, 4096)
	for i := 0; i < 1024; i++ {
		c.Set(Key{FileNum: 1, Offset: uint64(i) << 12}, page, 4096)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(Key{FileNum: 1, Offset: uint64(i&1023) << 12}); !ok {
			b.Fatal("miss")
		}
	}
}
