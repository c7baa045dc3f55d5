package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/compaction"
	"repro/internal/vfs"
)

// slowDeviceFS charges a fixed latency on every file Sync — WAL segments,
// table files, and the MANIFEST alike — standing in for a device whose
// durability barriers are the expensive operation (commodity SSDs under
// flush-heavy load). slowSyncFS (commit_bench_test.go) models only the WAL
// fsync; this models the whole durability surface, which is what sharded
// compaction overlaps.
type slowDeviceFS struct {
	vfs.FS
	delay time.Duration
}

func (s *slowDeviceFS) Create(name string) (vfs.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{File: f, delay: s.delay}, nil
}

// BenchmarkShardedWriters sweeps the shard count under a fixed pool of 16
// concurrent writers filling random-ish keys, on a slow-durability device
// with a small memtable so flush and compaction pressure is constant. One
// engine serializes every flush and compaction barrier behind one pair of
// workers and stalls its writers at the L0 triggers; N shards run N
// independent flush/compaction pipelines whose device waits overlap, and
// each shard sees 1/N of the inflow against the same stall thresholds —
// the vLSM argument that cross-partition compaction interference, not raw
// write bandwidth, is what caps fill throughput. The slowdowns/stall-ms
// metrics surface that mechanism next to the ns/op; `make bench-shards`
// runs the sweep once under -race.
//
// The sync=true variant adds the WAL fsync to every commit: there the
// group-commit pipeline already amortizes all 16 writers into one fsync
// per group, so sharding mostly re-partitions the same fsync budget and
// the scaling is modest — the honest negative result, recorded alongside.
func BenchmarkShardedWriters(b *testing.B) {
	const writers = 16
	for _, syncWAL := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("sync=%v/shards=%d/writers=%d", syncWAL, shards, writers)
			b.Run(name, func(b *testing.B) {
				opts := Options{
					FS:           &slowDeviceFS{FS: vfs.Mem(), delay: time.Millisecond},
					Policy:       compaction.LDC,
					MemTableSize: 256 << 10,
					SSTableSize:  128 << 10,
					Fanout:       10,
					Sync:         syncWAL,
					Shards:       shards,
				}
				db, err := Open("/bench", opts)
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()

				val := make([]byte, 100)
				b.SetBytes(100 + 16)
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						n := b.N / writers
						if w < b.N%writers {
							n++
						}
						for i := 0; i < n; i++ {
							k := []byte(fmt.Sprintf("w%02d-%09d", w, i))
							if err := db.Put(k, val); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				s := db.Stats()
				b.ReportMetric(float64(s.SlowdownCount), "slowdowns")
				b.ReportMetric(float64(s.StallTime.Milliseconds()), "stall-ms")
			})
		}
	}
}
