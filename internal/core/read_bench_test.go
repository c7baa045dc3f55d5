package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/compaction"
	"repro/internal/ssdsim"
	"repro/internal/vfs"
)

// Read-path benchmarks: concurrent point-get throughput with and without a
// competing writer (the scenario the read-state refactor targets), a
// single-threaded cache-hit Get for allocs/op tracking, and a 100-pair scan
// with the device requests it makes.

// benchReadDB opens a store preloaded with n sequential keys, compacted to a
// steady state. The block cache is sized to hold the whole dataset so the
// benchmark isolates the read path's engine cost (synchronization +
// allocations) rather than block-fetch I/O.
func benchReadDB(b *testing.B, policy compaction.Policy, n int) *DB {
	b.Helper()
	opts := benchOpts(policy)
	opts.BlockCacheSize = 64 << 20
	db, err := Open("/bench", opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	val := make([]byte, 256)
	for i := 0; i < n; i++ {
		if err := db.Put(benchReadKey(i), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.CompactRange(); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchReadKey(i int) []byte {
	return []byte(fmt.Sprintf("bench-%012d", i))
}

func BenchmarkGetConcurrent(b *testing.B) {
	const n = 50000
	for _, readers := range []int{1, 4, 16} {
		for _, withWriter := range []bool{false, true} {
			name := fmt.Sprintf("readers=%d/writer=%v", readers, withWriter)
			b.Run(name, func(b *testing.B) {
				db := benchReadDB(b, compaction.LDC, n)
				done := make(chan struct{})
				var writerWG sync.WaitGroup
				if withWriter {
					writerWG.Add(1)
					go func() {
						defer writerWG.Done()
						val := make([]byte, 256)
						rng := rand.New(rand.NewSource(99))
						for i := 0; ; i++ {
							select {
							case <-done:
								return
							default:
							}
							if err := db.Put(benchReadKey(rng.Intn(n)), val); err != nil {
								return
							}
						}
					}()
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / readers
				if per == 0 {
					per = 1
				}
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						for i := 0; i < per; i++ {
							if _, err := db.Get(benchReadKey(rng.Intn(n))); err != nil {
								b.Error(err)
								return
							}
						}
					}(int64(r + 1))
				}
				wg.Wait()
				b.StopTimer()
				close(done)
				writerWG.Wait()
			})
		}
	}
}

// BenchmarkGetCacheHit measures a single hot key read over and over: every
// block involved is cache-resident, so allocs/op isolates the per-get
// allocation cost of the read path itself — the returned value and nothing
// else, which the benchmark also requires.
func BenchmarkGetCacheHit(b *testing.B) {
	db := benchReadDB(b, compaction.LDC, 50000)
	key := benchReadKey(12345)
	get := func() {
		if _, err := db.Get(key); err != nil {
			b.Fatal(err)
		}
	}
	get()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, get); allocs > 1 && exactAllocs {
		b.Errorf("%.0f allocs per cached Get, want at most 1", allocs)
	}
}

// BenchmarkScan100 is the paper's SCAN on an LDC tree with a few hundred live
// slices, over a device that only counts (ssdsim at Scale 0): from a key inside
// the most-linked file, where the scan crosses that file's slice windows, and
// from a region no window reaches, where the slices must cost nothing; with the
// block cache emptied before every scan, with it warm, and with it full: before
// every scan the 4 MiB cache (the tree is 6.5 MiB) is emptied and filled with
// blocks of another file, as a cache that serves more than scans is, so every
// block the scan reads goes into a cache with no room. Beside time and
// allocations it reports the device requests and bytes of one scan, and the
// blocks it decoded out of what it read.
func BenchmarkScan100(b *testing.B) {
	prof := ssdsim.DefaultProfile()
	prof.Scale = 0
	dev := ssdsim.NewDevice(prof)
	db, _, sliced := slicedTree(b, ssdsim.Wrap(vfs.Mem(), dev), 300)
	for _, mode := range []string{"cold", "warm", "full"} {
		for _, start := range []struct {
			name string
			key  []byte
		}{{"sliced", sliced}, {"unsliced", regionKey('a', 1000)}} {
			b.Run(fmt.Sprintf("cache=%s/start=%s", mode, start.name), func(b *testing.B) {
				scan := func() {
					if kvs, err := db.Scan(start.key, 100); err != nil || len(kvs) != 100 {
						b.Fatalf("Scan = %d pairs, %v", len(kvs), err)
					}
				}
				scan()
				before, decoded := dev.Snapshot().ByCategory[ssdsim.CatUserRead], db.Stats().BlockReads
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode != "warm" {
						b.StopTimer()
						emptyBlockCache(db)
						if mode == "full" {
							fillBlockCache(db)
						}
						b.StartTimer()
					}
					scan()
				}
				b.StopTimer()
				after := dev.Snapshot().ByCategory[ssdsim.CatUserRead]
				b.ReportMetric(float64(after.ReadOps-before.ReadOps)/float64(b.N), "device-reads/op")
				b.ReportMetric(float64(after.ReadBytes-before.ReadBytes)/float64(b.N), "device-bytes/op")
				b.ReportMetric(float64(db.Stats().BlockReads-decoded)/float64(b.N), "decoded-blocks/op")
			})
		}
	}
}

// fillBlockCache sets blocks of a file no table has into db's block cache,
// twice its capacity's worth, so that every stripe of it is full.
func fillBlockCache(db *DB) {
	blk := make([]byte, db.opts.BlockSize)
	for i := int64(0); i < 2*db.opts.BlockCacheSize; i += int64(len(blk)) {
		db.blockCache.Set(cache.Key{FileNum: math.MaxUint64, Offset: uint64(i)}, blk, int64(len(blk)))
	}
}

// BenchmarkScan is a warm 100-pair Scan from a random key of a compacted
// store that the block cache holds whole, over one shard and through the
// merge of two: the engine's cost of a scan once no block is read. Its
// allocs/op are the result and its chunk: the iterators come from pools.
func BenchmarkScan(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			opts := benchOpts(compaction.LDC)
			opts.BlockCacheSize = 64 << 20
			opts.Shards = shards
			db, err := Open("/bench", opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			const n = 10000
			val := make([]byte, 256)
			for i := 0; i < n; i++ {
				if err := db.Put(benchReadKey(i), val); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.CompactRange(); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			starts := make([][]byte, 256)
			for i := range starts {
				starts[i] = benchReadKey(rng.Intn(n - 100))
			}
			scan := func(start []byte) {
				if kvs, err := db.Scan(start, 100); err != nil || len(kvs) != 100 {
					b.Fatalf("Scan = %d pairs, %v", len(kvs), err)
				}
			}
			for _, start := range starts {
				scan(start) // loads every block the scans read
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan(starts[i%len(starts)])
			}
		})
	}
}
