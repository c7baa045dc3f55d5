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
// cache and reader map: each shard's version set allocates file numbers
// independently, so shard 0's table 5 and shard 1's table 5 are different
// files and must never collide on a cache key. File numbers stay far below
// 2^48 (they count tables written over a database's lifetime), so the top
// 16 bits carry the shard.
const cacheShardShift = 48

// tableKey identifies one table file database-wide.
type tableKey struct {
	shard int
	num   uint64
}

// tableCache shares one open sstable.Reader per live table file across
// every shard of the database, all charging the one shared block cache.
// Readers stay open until the file is deleted (file handles are cheap on
// the simulated filesystems; the data-block cache bounds memory).
// Obsolete-file garbage collection calls evict, which also purges the block
// cache.
type tableCache struct {
	fs         vfs.FS // tagged with the user-read I/O category
	icmp       keys.InternalComparer
	blockCache *cache.Cache

	// readers maps tableKey → *sstable.Reader. A sync.Map because the hot
	// path (get on an already-open table) sits on the lock-free read path
	// and must not take any mutex; the map mutates only on first open and
	// on eviction of a deleted file, the access pattern sync.Map is built
	// for (stable keys, read-mostly).
	readers sync.Map
}

func newTableCache(fs vfs.FS, icmp keys.InternalComparer, bc *cache.Cache) *tableCache {
	return &tableCache{fs: fs, icmp: icmp, blockCache: bc}
}

// forShard binds the shared cache to one shard's identity, table directory
// and read sink. The returned view is what a store holds as db.tables.
func (tc *tableCache) forShard(shard int, dir string, reads *sstable.ReadStats) *shardTables {
	return &shardTables{tc: tc, shard: shard, dir: dir, reads: reads}
}

// shardTables is one shard's view of the shared table cache: same reader
// map and block cache, but file numbers resolve against this shard's
// directory and are namespaced with its ID, and its readers count into the
// shard's sink.
type shardTables struct {
	tc    *tableCache
	shard int
	dir   string
	reads *sstable.ReadStats
}

// cacheNum namespaces a file number for the shared block cache.
func (st *shardTables) cacheNum(num uint64) uint64 {
	return num | uint64(st.shard)<<cacheShardShift
}

// get returns the shared reader for a table file of this shard, opening it
// on first use. The returned reader must not be closed by the caller.
func (st *shardTables) get(num uint64) (*sstable.Reader, error) {
	tc := st.tc
	key := tableKey{shard: st.shard, num: num}
	if r, ok := tc.readers.Load(key); ok {
		return r.(*sstable.Reader), nil
	}

	// Slow path: open without any lock; racing opens reconcile below, with
	// losers closing their redundant handle.
	f, err := tc.fs.Open(version.TableFileName(st.dir, num))
	if err != nil {
		return nil, err
	}
	r, err := sstable.OpenReader(f, st.readerOptions(num))
	if err != nil {
		_ = f.Close() // reader never took ownership
		return nil, err
	}
	if existing, loaded := tc.readers.LoadOrStore(key, r); loaded {
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
func (st *shardTables) through(slot *atomic.Pointer[sstable.Reader], num uint64) (*sstable.Reader, error) {
	if slot == nil {
		return st.get(num)
	}
	if r := slot.Load(); r != nil {
		return r, nil
	}
	r, err := st.get(num)
	if err == nil {
		slot.Store(r)
	}
	return r, err
}

func (st *shardTables) readerOptions(num uint64) sstable.ReaderOptions {
	return sstable.ReaderOptions{
		Cmp:             st.tc.icmp,
		Cache:           st.tc.blockCache,
		FileNum:         st.cacheNum(num),
		VerifyChecksums: true,
		Stats:           st.reads,
	}
}

// install publishes the reader of a table this process has just built, with
// the index and filter the writer still holds, so that neither a read nor a
// compaction ever fetches them back from the device. Called before the table
// enters a version, so no get can race it; a table that never enters one
// keeps its reader until closeShard.
func (st *shardTables) install(num uint64, w *sstable.Writer) error {
	f, err := st.tc.fs.Open(version.TableFileName(st.dir, num))
	if err != nil {
		return err
	}
	r, err := w.OpenReader(f, st.readerOptions(num))
	if err != nil {
		_ = f.Close() // reader never took ownership
		return err
	}
	st.tc.readers.Store(tableKey{shard: st.shard, num: num}, r)
	return nil
}

// evict closes and forgets the reader for a deleted file of this shard and
// purges its cached blocks.
func (st *shardTables) evict(num uint64) {
	if r, ok := st.tc.readers.LoadAndDelete(tableKey{shard: st.shard, num: num}); ok {
		_ = r.(*sstable.Reader).Close() // file is being deleted; errors are moot
	}
	st.tc.blockCache.EvictFile(st.cacheNum(num))
}

// closeShard releases this shard's readers. Each shard tears its own
// readers down during Close (after its in-flight readers drain), so the
// shared map empties once every shard has closed.
func (st *shardTables) closeShard() {
	st.tc.readers.Range(func(k, r interface{}) bool {
		if k.(tableKey).shard == st.shard {
			_ = r.(*sstable.Reader).Close() // read-only handles; nothing to sync
			st.tc.readers.Delete(k)
		}
		return true
	})
}
