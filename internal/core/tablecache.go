package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/keys"
	"repro/internal/sstable"
	"repro/internal/version"
	"repro/internal/vfs"
)

// cacheShardShift namespaces per-shard file numbers inside the shared block
// cache: each shard's version set allocates file numbers independently, so
// shard 0's table 5 and shard 1's table 5 are different files and must
// never collide on a cache key. File numbers stay far below 2^48 (they
// count files written over a database's lifetime), so the top 16 bits carry
// the shard.
const cacheShardShift = 48

// tableCache holds one open sstable.Reader per live table file of one
// shard, all charging the database's one shared block cache. Readers stay
// open until the file is deleted (file handles are cheap on the simulated
// filesystems; the data-block cache bounds memory). Obsolete-file garbage
// collection calls evict, which also purges the block cache.
type tableCache struct {
	fs         vfs.FS // tagged with the user-read I/O category
	icmp       keys.InternalComparer
	blockCache *cache.Cache
	shard      int
	dir        string
	reads      *sstable.ReadStats // the shard's read sink

	// readers maps file number → *sstable.Reader. A sync.Map because the
	// hot path (get on an already-open table) sits on the lock-free read
	// path and must not take any mutex; the map mutates only on first open
	// and on eviction of a deleted file, the access pattern sync.Map is
	// built for (stable keys, read-mostly).
	readers sync.Map
}

// cacheNum namespaces a file number of this shard for the shared block
// cache.
func (tc *tableCache) cacheNum(num uint64) uint64 {
	return num | uint64(tc.shard)<<cacheShardShift
}

// get returns the reader for table file num, opening it on first use. The
// returned reader must not be closed by the caller.
func (tc *tableCache) get(num uint64) (*sstable.Reader, error) {
	if r, ok := tc.readers.Load(num); ok {
		return r.(*sstable.Reader), nil
	}

	// Slow path: open without any lock; racing opens reconcile below, with
	// losers closing their redundant handle.
	f, err := tc.fs.Open(version.TableFileName(tc.dir, num))
	if err != nil {
		return nil, err
	}
	r, err := sstable.OpenReader(f, tc.readerOptions(num))
	if err != nil {
		_ = f.Close() // reader never took ownership
		return nil, err
	}
	if existing, loaded := tc.readers.LoadOrStore(num, r); loaded {
		_ = r.Close() // lost the race; the winner's reader is the one in use
		return existing.(*sstable.Reader), nil
	}
	return r, nil
}

// through is get for a file named by a version the caller has pinned: slot,
// the reader pointer on that file's meta, answers every probe after the first
// with one load. The map stays the owner — a reader is closed only by evict,
// for a file no version references any more, so none that a pinned version
// names — and a slot is only ever filled with the map's reader. A nil slot
// is plain get.
func (tc *tableCache) through(slot *atomic.Pointer[sstable.Reader], num uint64) (*sstable.Reader, error) {
	if slot == nil {
		return tc.get(num)
	}
	if r := slot.Load(); r != nil {
		return r, nil
	}
	r, err := tc.get(num)
	if err == nil {
		slot.Store(r)
	}
	return r, err
}

func (tc *tableCache) readerOptions(num uint64) sstable.ReaderOptions {
	return sstable.ReaderOptions{
		Cmp:             tc.icmp,
		Cache:           tc.blockCache,
		FileNum:         tc.cacheNum(num),
		VerifyChecksums: true,
		Stats:           tc.reads,
	}
}

// install publishes the reader of a table this process has just built, with
// the index and filter the writer still holds, so that neither a read nor a
// compaction ever fetches them back from the device. Called before the table
// enters a version, so no get can race it; a table that never enters one
// keeps its reader until close.
func (tc *tableCache) install(num uint64, w *sstable.Writer) error {
	f, err := tc.fs.Open(version.TableFileName(tc.dir, num))
	if err != nil {
		return err
	}
	r, err := w.OpenReader(f, tc.readerOptions(num))
	if err != nil {
		_ = f.Close() // reader never took ownership
		return err
	}
	tc.readers.Store(num, r)
	return nil
}

// evict closes and forgets the reader for a deleted file and purges its
// cached blocks.
func (tc *tableCache) evict(num uint64) {
	if r, ok := tc.readers.LoadAndDelete(num); ok {
		_ = r.(*sstable.Reader).Close() // file is being deleted; errors are moot
	}
	tc.blockCache.EvictFile(tc.cacheNum(num))
}

// close releases every reader. The shard calls it during Close, after its
// in-flight readers drain.
func (tc *tableCache) close() {
	tc.readers.Range(func(num, r any) bool {
		_ = r.(*sstable.Reader).Close() // read-only handles; nothing to sync
		tc.readers.Delete(num)
		return true
	})
}
