package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compaction"
	"repro/internal/vfs"
)

// BenchmarkConcurrentWriters measures foreground write throughput with 1, 4,
// and 16 concurrent committers, with the WAL fsync'd per commit (sync=on) and
// OS-buffered (sync=off). The sync=on variant runs on a filesystem whose WAL
// Sync costs a fixed latency, standing in for a real device fsync: the number
// the group-commit pipeline exists to amortize.

// slowSyncFS charges a fixed latency for every Sync of a file on the commit
// path — WAL (.log) and value-log segment (.vlog) alike — emulating the fsync
// cost of a real device on top of the in-memory store, and counts them.
type slowSyncFS struct {
	vfs.FS
	delay time.Duration
	syncs atomic.Int64
}

func (s *slowSyncFS) Create(name string) (vfs.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, ".log") || strings.HasSuffix(name, ".vlog") {
		return &slowSyncFile{File: f, delay: s.delay, counter: s}, nil
	}
	return f, nil
}

type slowSyncFile struct {
	vfs.File
	delay   time.Duration
	counter *slowSyncFS // nil: not counted
}

func (f *slowSyncFile) Sync() error {
	if f.counter != nil {
		f.counter.syncs.Add(1)
	}
	time.Sleep(f.delay)
	return f.File.Sync()
}

func BenchmarkConcurrentWriters(b *testing.B) {
	for _, syncWAL := range []bool{false, true} {
		for _, writers := range []int{1, 4, 16} {
			name := fmt.Sprintf("sync=%v/writers=%d", syncWAL, writers)
			b.Run(name, func(b *testing.B) {
				opts := Options{
					FS:           vfs.Mem(),
					Policy:       compaction.LDC,
					MemTableSize: 4 << 20,
					SSTableSize:  1 << 20,
					Fanout:       10,
					Sync:         syncWAL,
				}
				if syncWAL {
					opts.FS = &slowSyncFS{FS: vfs.Mem(), delay: 100 * time.Microsecond}
				}
				db, err := Open("/bench", opts)
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()

				b.SetBytes(100 + 16)
				b.ResetTimer()
				putConcurrently(b, db, writers)
			})
		}
	}
}

// putConcurrently spreads b.N 100-byte Puts of distinct keys over writers
// goroutines and waits for them.
func putConcurrently(b *testing.B, db *DB, writers int) {
	val := make([]byte, 100)
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
}

// BenchmarkCommitSyncBlob is the leaf benchmark of a sync commit that
// separates its values: the same 100-byte Puts with every value inline
// (one WAL fsync per group) and with every value separated (a WAL fsync and
// a vlog fsync per group), at a 200 µs fsync. The two fsyncs overlap, so the
// separated row should cost about one fsync per group, not two: syncs/op
// doubles while ns/op stays close to the inline row's.
func BenchmarkCommitSyncBlob(b *testing.B) {
	for _, writers := range []int{1, 4} {
		for _, separated := range []bool{false, true} {
			name := fmt.Sprintf("writers=%d/separated=%v", writers, separated)
			b.Run(name, func(b *testing.B) {
				fs := &slowSyncFS{FS: vfs.Mem(), delay: 200 * time.Microsecond}
				opts := Options{
					FS:           fs,
					Policy:       compaction.LDC,
					MemTableSize: 4 << 20,
					SSTableSize:  1 << 20,
					Fanout:       10,
					Sync:         true,
				}
				if separated {
					opts.BlobThreshold = 64
				}
				db, err := Open("/bench", opts)
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()

				b.ReportAllocs()
				syncs := fs.syncs.Load()
				b.ResetTimer()
				putConcurrently(b, db, writers)
				b.StopTimer()
				b.ReportMetric(float64(fs.syncs.Load()-syncs)/float64(b.N), "syncs/op")
			})
		}
	}
}
