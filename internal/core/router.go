package core

import (
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/cache"
	"repro/internal/histogram"
	"repro/internal/invariants"
	"repro/internal/keys"
	"repro/internal/ssdsim"
	"repro/internal/version"
	"repro/internal/vfs"
)

// DB is the public key-value store: a thin router over Options.Shards
// hash-partitioned engines (see store in db.go). Every user key lives in
// exactly one shard — routing hashes the key and masks into the shard
// table — so point operations forward to one engine, batches split into
// per-shard sub-batches committed through each shard's own group-commit
// pipeline, and ordered scans merge the shards' iterators. Shards share
// only the block cache; everything else (memtable, WAL, value log, commit
// pipeline, read state, stall controller, version set, table readers,
// flush and compaction worker) is per shard and its files live in the
// shard's directory, so shards flush, commit, and compact independently.
//
// Cross-shard semantics (the sequence/visibility rule):
//
//   - Sequence numbers are per shard and never compared across shards.
//   - A batch is atomic and crash-durable per shard. Apply returns only
//     after every sub-batch has committed (and fsynced, when Options.Sync
//     is set) on its shard, so a caller always reads its own completed
//     writes. A crash in the middle of a multi-shard Apply may persist
//     some shards' sub-batches and not others' — cross-shard atomicity
//     under crash is deliberately relaxed.
//   - A Snapshot captures every shard's sequence in one acquisition pass.
//     Any Apply that returned before NewSnapshot began is fully visible in
//     the snapshot; an Apply racing NewSnapshot may be partially visible
//     (per-shard consistent, not a single global cut).
//
// One shard is the case N = 1 of the same layout and code path. All
// methods are safe for concurrent use.
type DB struct {
	opts Options
	dir  string

	shards []*store
	mask   uint64 // len(shards)-1; len is a power of two

	blockCache *cache.Cache

	// The background value-log GC worker (startValueGC) and the manual
	// RunValueGC / CompactValueLog entry points serialize passes through
	// gcMu.
	gcMu   invariants.Mutex
	gcStop chan struct{}
	gcWG   sync.WaitGroup

	// segments pools the scratch of pipelined segments and multi-shard
	// Applies (*Segment).
	segments sync.Pool

	closeOnce sync.Once
	closeErr  error
}

// shardsFileName is the marker recording the database's partition count
// ("shards <n>\n"), written at creation for every shard count, one
// included.
const shardsFileName = "LDC_SHARDS"

// Open opens (creating if necessary) a database in dir. Nonsensical
// configurations are rejected up front with an error wrapping
// ErrInvalidOptions. The shard count is fixed at creation: reopening
// adopts the recorded count when Options.Shards is zero and fails on an
// explicit mismatch (rehashing keys into a different partition count would
// silently orphan data).
func Open(dir string, opts Options) (*DB, error) { return openDB(dir, opts, true) }

// openDB is Open with the choice of a compaction worker per shard: without
// one, a shard compacts only when its caller steps it (store.step,
// CompactRange), which is how a test acts as the compaction worker.
func openDB(dir string, opts Options, compactor bool) (*DB, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	requested := opts.Shards
	opts = opts.withDefaults()
	meta := categorized(opts.FS, ssdsim.CatOther) // marker file, directories

	if err := meta.MkdirAll(dir); err != nil {
		return nil, err
	}
	n, recorded, err := resolveShardCount(meta, dir, requested, opts.Shards)
	if err != nil {
		return nil, err
	}
	opts.Shards = n

	db := &DB{
		opts: opts,
		dir:  dir,
		mask: uint64(n - 1),
	}
	db.gcMu.Rank("core.db.gcMu", 20)
	db.segments.New = func() any { return newSegment(db) }
	db.blockCache = opts.newBlockCache()

	// fail unwinds a partial open; the open error wins over any unwind error.
	fail := func(err error) (*DB, error) {
		for _, st := range db.shards {
			_ = st.Close()
		}
		return nil, err
	}

	// The marker records the shard count, written once, at creation; every
	// shard's files live in a directory of its own.
	if !recorded {
		if err := writeShardsMarker(meta, dir, n); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < n; i++ {
		st, err := openStore(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), i, opts, db.blockCache, compactor)
		if err != nil {
			return fail(fmt.Errorf("ldc: open shard %d: %w", i, err))
		}
		db.shards = append(db.shards, st)
	}
	db.startValueGC()
	return db, nil
}

// categorized returns the view of fs whose I/O the SSD simulator accounts
// under cat; any other filesystem has no categories and is returned as is.
func categorized(fs vfs.FS, cat ssdsim.Category) vfs.FS {
	if sim, ok := fs.(*ssdsim.FS); ok {
		return sim.WithCategory(cat)
	}
	return fs
}

// resolveShardCount reconciles the requested shard count with the
// database's recorded one. requested is the raw Options.Shards (0 = "use
// whatever the database has"), normalized its defaulted form; recorded
// reports that the directory holds a marker already. It creates nothing, so
// a refused directory is left as it was found.
func resolveShardCount(fs vfs.FS, dir string, requested, normalized int) (n int, recorded bool, err error) {
	// Files in a root wal/ or vlog/ are a database in the retired shared
	// layout, its WAL tails and values outside the shard directories: the
	// shards would open empty of them and silently drop them.
	for _, shared := range []string{"wal", "vlog"} {
		if names, _ := fs.List(filepath.Join(dir, shared)); len(names) > 0 {
			return 0, false, fmt.Errorf("%w: %s holds a database in the retired shared layout (files in %s/), which this version does not open",
				ErrInvalidOptions, dir, shared)
		}
	}
	n, recorded, err = readShardsMarker(fs, dir)
	if err != nil {
		return 0, false, err
	}
	if recorded {
		if requested != 0 && normalized != n {
			return 0, false, fmt.Errorf("%w: Shards %d (effective %d) conflicts with the database's recorded shard count %d",
				ErrInvalidOptions, requested, normalized, n)
		}
		return n, true, nil
	}
	// A root CURRENT with no marker is a database in the retired layout, its
	// files at the root and its WAL named NNNNNN.log: no shard could see it,
	// and an empty store must not appear beside it.
	if fs.Exists(version.CurrentFileName(dir)) {
		return 0, false, fmt.Errorf("%w: %s holds a database in the retired single-shard layout (no %s marker), which this version does not open",
			ErrInvalidOptions, dir, shardsFileName)
	}
	return normalized, false, nil
}

// readShardsMarker parses the LDC_SHARDS marker ("shards <n>\n").
func readShardsMarker(fs vfs.FS, dir string) (n int, found bool, err error) {
	name := filepath.Join(dir, shardsFileName)
	f, err := fs.Open(name)
	if err != nil {
		if err == vfs.ErrNotExist {
			return 0, false, nil
		}
		return 0, false, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return 0, false, err
	}
	if size > 128 {
		return 0, false, fmt.Errorf("ldc: corrupt %s (size %d)", shardsFileName, size)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return 0, false, err
	}
	fields := strings.Fields(string(buf))
	if len(fields) != 2 || fields[0] != "shards" {
		return 0, false, fmt.Errorf("ldc: corrupt %s (%q)", shardsFileName, string(buf))
	}
	n, err = strconv.Atoi(fields[1])
	if err != nil || n < 1 || n > MaxShards || n != normalizeShards(n) {
		return 0, false, fmt.Errorf("ldc: corrupt %s (shard count %q)", shardsFileName, fields[1])
	}
	return n, true, nil
}

// writeShardsMarker records the partition count the way CURRENT is
// written: into a temporary file, synced, then renamed over the marker's
// name. A failure at any step leaves no marker, never a partial one, so the
// next Open creates it afresh.
func writeShardsMarker(fs vfs.FS, dir string, n int) error {
	tmp := filepath.Join(dir, shardsFileName+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "shards %d\n", n); err != nil {
		_ = f.Close() // abandoning the partial temporary file
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // sync failed; its error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, filepath.Join(dir, shardsFileName))
}

// ---------------------------------------------------------------------------
// Routing

// fnv64a is FNV-1a: a fast, allocation-free, stable hash. Stability across
// processes and versions matters — the hash decides which shard owns a key,
// and that assignment is persistent.
func fnv64a(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// shardIndex returns the owning shard's index for a user key. One shard
// needs no hash.
func (db *DB) shardIndex(key []byte) int {
	if db.mask == 0 {
		return 0
	}
	return int(fnv64a(key) & db.mask)
}

// shardOf returns the owning shard for a user key.
func (db *DB) shardOf(key []byte) *store { return db.shards[db.shardIndex(key)] }

// NumShards reports the effective partition count.
func (db *DB) NumShards() int { return len(db.shards) }

// ---------------------------------------------------------------------------
// Writes

// Put inserts or updates a key.
func (db *DB) Put(key, value []byte) error { return db.shardOf(key).Put(key, value) }

// Delete writes a tombstone for a key.
func (db *DB) Delete(key []byte) error { return db.shardOf(key).Delete(key) }

// Apply commits a batch through the group-commit pipelines. A batch whose
// keys all hash to one shard commits atomically through that shard's
// pipeline with no copying. A multi-shard batch is split into per-shard
// sub-batches committed concurrently, one of them on the calling goroutine;
// Apply returns after every sub-batch is committed (per-shard atomic and
// durable — see the DB doc comment for the cross-shard relaxation), with
// the lowest-numbered failing shard's error reported.
func (db *DB) Apply(b *batch.Batch) error {
	if b.Empty() {
		return nil
	}
	first, multi := db.route(b)
	if !multi {
		return db.shards[first].Apply(b)
	}
	// Fan out all but one sub-batch, commit that one here — the caller would
	// otherwise only sleep through the others' commits — then collect.
	s := NewSegment(db)
	s.split(b)
	s.launch(first)
	s.errs[first] = db.shards[first].Apply(s.subs[first])
	return s.Wait()
}

// route finds the shards b's keys hash to without copying anything: the
// first one, and whether there are others.
func (db *DB) route(b *batch.Batch) (first int, multi bool) {
	if len(db.shards) == 1 {
		return 0, false
	}
	first = -1
	_ = b.Each(func(_ keys.Kind, key, _ []byte) error {
		if i := db.shardIndex(key); first == -1 {
			first = i
		} else if i != first {
			multi = true
		}
		return nil
	})
	return first, multi
}

// ---------------------------------------------------------------------------
// Reads

// Get returns the value of key, or ErrNotFound. The value is the caller's
// own: nothing else refers to its bytes.
func (db *DB) Get(key []byte) ([]byte, error) { return db.shardOf(key).getAt(key, nil, true) }

// GetAt reads at a snapshot (nil = latest). The value is the caller's own.
func (db *DB) GetAt(key []byte, snap *Snapshot) ([]byte, error) {
	i := db.shardIndex(key)
	return db.shards[i].getAt(key, snap.seq(i), true)
}

// scanChunk is the size of the buffers Scan copies pairs into: the largest the
// Go allocator serves from its 32 KiB size class. It serves a request as a
// small object only if the request leaves room for a malloc header, 8 bytes,
// even when the object has no pointers; a full 32 KiB is a large object, with
// a span of its own that is zeroed on every allocation. A pair larger than a
// chunk is copied into an allocation of its own.
const scanChunk = 32<<10 - 8

// Scan returns up to limit pairs with keys >= start, at the latest state
// (the paper's SCAN operation, covering ~100 pairs per request). With
// multiple shards the result is the ordered merge of every shard's
// keyspace. A limit of zero or less returns nil without reading anything.
//
// The pairs are copied into shared chunks of scanChunk bytes, so a scan
// allocates per chunk rather than per pair; every Key and Value ends at its
// own capacity (see KV). A caller that keeps one pair keeps its chunk alive.
func (db *DB) Scan(start []byte, limit int) ([]KV, error) {
	if limit <= 0 {
		return nil, nil
	}
	it, err := db.openMerged(nil)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	// Capped: a limit far beyond what the store holds (SCAN COUNT huge) must
	// not be allocated up front.
	out := make([]KV, 0, min(limit, 256))
	var chunk []byte
	for it.SeekGE(start); it.Valid(); it.Next() {
		k, v := it.Key(), it.Value()
		if v == nil && it.Error() != nil {
			break // the value failed to resolve
		}
		n := len(k) + len(v)
		var b []byte
		if n > scanChunk {
			b = make([]byte, n)
		} else {
			if n > cap(chunk)-len(chunk) {
				chunk = make([]byte, 0, scanChunk)
			}
			b, chunk = chunk[len(chunk):len(chunk)+n], chunk[:len(chunk)+n]
		}
		copy(b, k)
		copy(b[len(k):], v)
		if out = append(out, KV{Key: b[:len(k):len(k)], Value: b[len(k):n:n]}); len(out) == limit {
			break // not one step further: the next pair may cost a block
		}
	}
	return out, it.Error()
}

// ---------------------------------------------------------------------------
// Snapshots

// Snapshot pins a point-in-time view for reads and iterators: one captured
// sequence per shard, acquired in a single pass over the shards. Writes
// that completed before NewSnapshot are fully visible; a multi-shard Apply
// racing the acquisition may be partially visible (see the DB doc
// comment).
type Snapshot struct {
	db       *DB
	seqs     []keys.Seq
	released atomic.Bool
}

// seq returns shard i's captured sequence, nil (= latest) for a nil snapshot.
func (s *Snapshot) seq(i int) *keys.Seq {
	if s == nil {
		return nil
	}
	return &s.seqs[i]
}

// NewSnapshot captures the current state of every shard; Release it when
// done. Returns ErrClosed after Close.
func (db *DB) NewSnapshot() (*Snapshot, error) {
	seqs := make([]keys.Seq, len(db.shards))
	for i, st := range db.shards {
		seq, err := st.snapshotSeq()
		if err != nil {
			for j := 0; j < i; j++ {
				db.shards[j].snapshots.release(seqs[j])
			}
			return nil, err
		}
		seqs[i] = seq
	}
	return &Snapshot{db: db, seqs: seqs}, nil
}

// Release frees the snapshot on every shard. Reads and iterators using it
// must have finished: once released, value-log GC may reclaim the values
// only the snapshot could still see. Releasing twice is a no-op: shards
// count registrations per sequence, so a second release would drop another
// snapshot's.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	for i, st := range s.db.shards {
		st.snapshots.release(s.seqs[i])
	}
}

// ---------------------------------------------------------------------------
// Lifecycle and maintenance

// Close flushes and stops every shard. Idempotent and safe for concurrent
// use; every call returns the same result (the first error any shard
// reported).
func (db *DB) Close() error {
	db.closeOnce.Do(func() {
		// Stop the value-log GC worker before anything else: a pass in
		// flight drives shard commit pipelines, so they must outlive it.
		if db.gcStop != nil {
			close(db.gcStop)
			db.gcWG.Wait()
		}
		for _, st := range db.shards {
			if err := st.Close(); db.closeErr == nil {
				db.closeErr = err
			}
		}
	})
	return db.closeErr
}

// ---------------------------------------------------------------------------
// Value-log garbage collection (router side)

// valueGCInterval paces the background GC worker. Dead bytes accrue only as
// compactions drop pointer entries, so there is nothing to gain from a
// tighter loop.
const valueGCInterval = 10 * time.Second

// ValueGCRatio is the dead-byte fraction at which value-log GC rewrites a
// sealed segment. Dead bytes accrue as compactions and LDC merges drop
// pointer entries (the same slice-accounting discipline LDC applies to
// frozen regions).
const ValueGCRatio = 0.5

// startValueGC launches the background GC worker: every tick each shard
// collects the segments of its value log whose dead ratio crossed
// ValueGCRatio. Not started when separation is off (RunValueGC still works
// then).
func (db *DB) startValueGC() {
	if db.opts.BlobThreshold <= 0 {
		return
	}
	db.gcStop = make(chan struct{})
	db.gcWG.Add(1)
	go func() {
		defer db.gcWG.Done()
		ticker := time.NewTicker(valueGCInterval)
		defer ticker.Stop()
		for {
			select {
			case <-db.gcStop:
				return
			case <-ticker.C:
				// Real I/O errors already poisoned the owning shard.
				_ = db.runValueGC(ValueGCRatio)
			}
		}
	}()
}

// RunValueGC runs one value-log GC pass over every shard: every sealed
// segment whose dead ratio is at least ValueGCRatio has its live records
// relocated and is deleted once no reader can reach it. The pass never
// waits on a reader: a segment that an older iterator, snapshot or read
// point can still reach stays pending, and the shard relocates nothing more
// until a later sweep (after a job, a pass or Close) deletes it. A segment
// whose records writers keep overwriting is left for a later pass. Neither
// is an error, and neither stops the other shards' collection.
func (db *DB) RunValueGC() error { return db.runValueGC(ValueGCRatio) }

// CompactValueLog runs RunValueGC's pass over every sealed segment
// regardless of dead ratio, relocating all live records forward. Used by
// tests and experiments to reach a minimal value-log footprint.
func (db *DB) CompactValueLog() error { return db.runValueGC(-1) }

// runValueGC is the shared pass body; threshold < 0 means every sealed
// segment. Serialized by gcMu so the ticker and manual calls never process
// one segment twice concurrently.
func (db *DB) runValueGC(threshold float64) error {
	db.gcMu.Lock()
	defer db.gcMu.Unlock()
	for _, st := range db.shards {
		if err := st.runValueGC(threshold); err != nil {
			return err
		}
	}
	return nil
}

// CompactRange forces compaction work until every shard's tree is
// quiescent — used by tests and experiments to reach a steady state.
func (db *DB) CompactRange() error {
	for _, st := range db.shards {
		if err := st.CompactRange(); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes every shard's live memtable out as a table and waits for
// the flushes to land.
func (db *DB) Flush() error {
	for _, st := range db.shards {
		if err := st.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// WaitIdle blocks until no shard has background work running or
// immediately pickable.
func (db *DB) WaitIdle() {
	for _, st := range db.shards {
		st.WaitIdle()
	}
}

// ---------------------------------------------------------------------------
// Introspection

// Stats is the sum of the shards' Stats (ShardStats), plus what only the
// database has: the shared block cache's counters and the merged latency
// histograms. Ratios are derived from the sums.
func (db *DB) Stats() Stats {
	s := aggregateStats(db.ShardStats())
	s.BlockCacheHits, s.BlockCacheMisses = db.blockCache.Stats()
	s.derive()
	// Distributions cannot be summed field-by-field: merge the shards' raw
	// histograms, then snapshot.
	var readH, writeH histogram.Histogram
	for _, st := range db.shards {
		readH.Merge(&st.stats.readHist)
		writeH.Merge(&st.stats.writeHist)
	}
	s.ReadLatency = readH.Snapshot()
	s.WriteLatency = writeH.Snapshot()
	return s
}

// ShardStats returns one Stats snapshot per shard — the per-shard
// breakdown behind the aggregated Stats. The block cache's counters are
// zero in the breakdown: the cache is shared, so they appear once, in
// Stats.
func (db *DB) ShardStats() []Stats {
	per := make([]Stats, len(db.shards))
	for i, st := range db.shards {
		per[i] = st.Stats()
	}
	return per
}

// CurrentProfile captures the tree's current shape, summed across shards.
// SliceThreshold is the Options' T_s, the same in every shard.
func (db *DB) CurrentProfile() Profile {
	p := db.shards[0].CurrentProfile()
	for _, st := range db.shards[1:] {
		q := st.CurrentProfile()
		for i := range p.Levels {
			p.Levels[i].Files += q.Levels[i].Files
			p.Levels[i].Bytes += q.Levels[i].Bytes
			p.Levels[i].Slices += q.Levels[i].Slices
		}
		p.FrozenFiles += q.FrozenFiles
		p.FrozenBytes += q.FrozenBytes
	}
	return p
}
