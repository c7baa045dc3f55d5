package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/bloom"
	"repro/internal/cache"
	"repro/internal/commit"
	"repro/internal/compaction"
	"repro/internal/invariants"
	"repro/internal/keys"
	"repro/internal/memtable"
	"repro/internal/ssdsim"
	"repro/internal/sstable"
	"repro/internal/version"
	"repro/internal/vfs"
	"repro/internal/vlog"
	"repro/internal/wal"
)

// internalComparer orders every shard's internal keys: user keys bytewise,
// the one order the store supports (LDC's slice windows take bytewise
// successors), then sequence descending.
var internalComparer = keys.InternalComparer{User: keys.BytewiseComparer{}}

// Errors returned by the store.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("ldc: key not found")
	// ErrClosed reports use after Close. It is the commit pipeline's own,
	// so a refused write and a refused read match the same errors.Is.
	ErrClosed = commit.ErrClosed
)

// store is one shard's complete engine: memtable + WAL + value log +
// group-commit pipeline + read state + version set + table readers +
// background workers, all in the database's shard-<id> directory. The
// public DB (router.go) is a thin hash router over Options.Shards of these.
// All methods are safe for concurrent use.
type store struct {
	opts Options
	dir  string
	icmp keys.InternalComparer

	// shardID is this store's index in the router; it names the value-log
	// segments and namespaces the shard's keys in the shared block cache.
	shardID int

	// Category-tagged filesystem views (identical when the FS is not an
	// SSD simulator).
	fsUser  vfs.FS // user/table reads
	fsWAL   vfs.FS // WAL appends
	fsFlush vfs.FS // memtable flush writes
	fsCompR vfs.FS // compaction reads
	fsCompW vfs.FS // compaction writes
	fsMeta  vfs.FS // MANIFEST and housekeeping

	set    *version.Set
	picker *compaction.Picker
	// tables holds the shard's table readers; its block cache, the one
	// resource the shards share, also caches decoded vlog values under the
	// blobCacheBit namespace.
	tables *tableCache

	// vlog is this shard's value log (nil when value separation is disabled
	// and no segments exist in the shard's directory); vlogw is its appender.
	vlog  *vlog.Log
	vlogw *vlog.Writer

	// rotateForced asks the next commit leader to rotate the memtable even
	// though it is not full (Flush and a GC pass set it; see forceRotate).
	rotateForced atomic.Bool

	// pipeline and controller form the commit front end (see write.go):
	// Apply goes through the pipeline, which groups concurrent writers and
	// admits each group via the controller's throttle state machine.
	pipeline   *commit.Pipeline
	controller *commit.Controller

	// readState is the lock-free snapshot (mem, imm, version) every read
	// acquires with one atomic load + ref; rebuilt under db.mu whenever a
	// rotation, flush, or version install changes the view (see
	// readstate.go). nil once the store is closed.
	readState atomic.Pointer[readState]

	mu      invariants.Mutex
	mem     *memtable.MemTable
	imm     *memtable.MemTable
	logw    *wal.Writer
	logFile vfs.File
	logNum  uint64
	// logs are this shard's WAL numbers on disk, ascending: listed once at
	// Open, appended when a rotation creates a file (even one the rotation
	// then fails to switch to), and cut by deleteObsoleteFiles, which puts
	// back a number whose removal failed.
	logs []uint64

	// rotBoundarySeq is the highest sequence that can be in the immutable
	// memtable (set at rotation); flushedThroughSeq is the highest sequence
	// durably covered by tables (promoted when a flush completes). Together
	// they let the GC rewrite guard prove "every entry newer than
	// flushedThroughSeq is visible in mem ∪ imm". Guarded by mu.
	rotBoundarySeq    keys.Seq
	flushedThroughSeq keys.Seq

	// The commit path's sequence state (write.go), guarded by mu. lastAlloc
	// is the last sequence stamped on a logged group; set.LastSeq is the
	// last one published, which is what readers, snapshots, the MANIFEST
	// and rotBoundarySeq see, and trails lastAlloc while sync groups are in
	// their fsyncs. appended counts groups whose WAL record was appended and
	// published those that have since published or failed; a group's ticket
	// is the value of appended at its append, and publishCond wakes the
	// group whose turn it is and a rotation waiting for the two to meet.
	// vlogSyncs are the recycled value-log fsync slots of sync groups.
	lastAlloc   keys.Seq
	appended    uint64
	published   uint64
	publishCond *sync.Cond
	vlogSyncs   []*vlogSync

	snapshots snapshotList

	// Background-engine state, all guarded by mu. bgCond is broadcast on
	// every change of it — a rotation hands over a memtable, a job or its
	// cleanup ends, the store closes — and the workers and the foreground
	// waiters (stalled writes, Flush, WaitIdle, CompactRange, Close) all wait
	// on it. The job flags are set by whichever goroutine runs the job (step).
	bgCond *sync.Cond

	flushActive    bool // a flush is running
	compActive     bool // a compaction is running
	cleanActive    int  // jobs mid-deleteObsoleteFiles (post-job cleanup)
	workersRunning int  // live worker goroutines; Close drains to zero

	bgErr  error
	closed bool

	// closeOnce makes Close idempotent: the first caller tears the store
	// down; later and concurrent callers block inside Do until the teardown
	// finishes, then observe the same result. The server's graceful drain
	// depends on this — Shutdown and a deferred test Close may race.
	closeOnce sync.Once
	closeErr  error
	// retired holds the swapped-out read states that readers still pin
	// (retireReadState prunes the drained ones). Close waits for all of them
	// before closing table readers; the sweep keeps a pending value-log
	// segment while one older than its proof is pinned. Guarded by mu.
	retired []*readState
	// pendingSegs are the value-log segments GC proved dead, each waiting
	// for the sweep (deleteObsoleteFiles) to find no reader that can still
	// reach it. Guarded by mu.
	pendingSegs []pendingSegment

	// iters are the shard's recycled store iterators (storeIter), each
	// bound to this store.
	iters sync.Pool

	stats counters
}

// openStore opens (creating if necessary) shard shardID's engine in dir.
// Options are already validated and defaulted by the router's Open;
// blockCache is the database's shared block cache. compactor starts the
// compaction worker (see startWorkers).
func openStore(dir string, shardID int, opts Options, blockCache *cache.Cache, compactor bool) (_ *store, err error) {
	icmp := internalComparer
	db := &store{
		opts:    opts,
		dir:     dir,
		icmp:    icmp,
		shardID: shardID,
	}
	db.mu.Rank("core.store.mu", 30)
	db.snapshots.mu.Rank("core.snapshots.mu", 50)
	db.bgCond = sync.NewCond(&db.mu)
	db.publishCond = sync.NewCond(&db.mu)
	db.iters.New = func() any { return &storeIter{db: db, cmp: db.icmp.Compare} }
	db.initFS(opts.FS)

	if err := db.fsMeta.MkdirAll(dir); err != nil {
		return nil, err
	}
	// One listing of the directory finds the WALs recovery replays, the
	// value-log segments that keep the log open, and the orphan tables.
	names, err := db.fsMeta.List(dir)
	if err != nil {
		return nil, err
	}
	var logs []uint64
	hasSegments := false
	for _, name := range names {
		if typ, num := version.ParseFileName(name); typ == version.TypeLog {
			logs = append(logs, num)
		} else if _, _, ok := vlog.ParseSegmentFileName(name); ok {
			hasSegments = true
		}
	}
	slices.Sort(logs)

	// The value log opens when separation is enabled — or when disabled but
	// segments exist, so a shard that once separated values keeps resolving
	// its old pointers after the knob is turned off. Appends sit on the
	// foreground write path exactly like WAL records, and GC segment scans
	// are relocation reads like a compaction's input reads, so each is
	// accounted in that device category.
	if opts.BlobThreshold > 0 || hasSegments {
		db.vlog, err = vlog.Open(db.fsWAL, dir, vlog.Options{
			SegmentSize: opts.BlobSegmentSize,
			ReadFS:      db.fsUser,
			ScanFS:      db.fsCompR,
		})
		if err != nil {
			return nil, err
		}
		db.vlogw = db.vlog.NewWriter(shardID)
		defer func() {
			if err != nil {
				_ = db.vlog.Close() // the open error is the one to report
			}
		}()
	}

	db.tables = &tableCache{
		fs: db.fsUser, icmp: icmp, blockCache: blockCache,
		shard: shardID, dir: dir, reads: &db.stats.ReadStats,
	}
	db.set = version.NewSet(db.fsMeta, dir, icmp)
	db.picker = compaction.NewPicker(opts.Policy, opts.compactionParams(), icmp)

	if db.fsMeta.Exists(version.CurrentFileName(dir)) {
		db.logs = logs
		if err := db.recover(); err != nil {
			return nil, err
		}
	} else {
		if err := db.set.Create(); err != nil {
			return nil, err
		}
		db.mem = memtable.New(icmp)
	}
	for level := 0; level < version.NumLevels; level++ {
		if k := db.set.CompactPointer(level); k != nil {
			db.picker.SetPointer(level, k)
		}
	}

	// Fresh WAL for new writes.
	if err := db.newLogLocked(); err != nil {
		return nil, err
	}
	// Record the WAL floor so recovery skips pre-existing logs only when a
	// flush has covered them; here we only persist allocator state.
	if err := db.set.LogAndApply(&version.Edit{}); err != nil {
		return nil, err
	}

	db.removeOrphanTables(names)
	db.deleteObsoleteFiles()
	db.initCommitPipeline()
	// Publish the initial read state before the DB (and its workers) become
	// visible; Open is exclusive, which satisfies publishReadState's locking
	// contract.
	db.publishReadState()
	db.startWorkers(compactor)
	return db, nil
}

// initFS derives per-category filesystem views when running on the SSD
// simulator.
func (db *store) initFS(fs vfs.FS) {
	db.fsUser = categorized(fs, ssdsim.CatUserRead)
	db.fsWAL = categorized(fs, ssdsim.CatWAL)
	db.fsFlush = categorized(fs, ssdsim.CatFlush)
	db.fsCompR = categorized(fs, ssdsim.CatCompactionRead)
	db.fsCompW = categorized(fs, ssdsim.CatCompactionWrite)
	db.fsMeta = categorized(fs, ssdsim.CatOther)
}

// removeOrphanTables deletes every table file among names, the shard
// directory as Open found it, that the recovered version does not reference.
// The obsolete list lives only in memory, so these are the files a crash
// left behind: tables whose removal was pending, and the outputs of a flush
// or compaction that never committed its edit. Only valid before the
// workers start — a running job's outputs are in no version until its edit
// lands.
func (db *store) removeOrphanTables(names []string) {
	live := db.set.LiveFileNums()
	for _, name := range names {
		if typ, num := version.ParseFileName(name); typ == version.TypeTable && !live[num] {
			_ = db.fsMeta.Remove(version.TableFileName(db.dir, num)) // best effort; the next Open retries
		}
	}
}

// logFileName returns the path of this shard's WAL file num.
func (db *store) logFileName(num uint64) string {
	return version.LogFileName(db.dir, num)
}

// recover loads the MANIFEST then replays the WALs in db.logs newer than
// its floor.
func (db *store) recover() error {
	if err := db.set.Recover(); err != nil {
		return err
	}
	db.mem = memtable.New(db.icmp)

	// Tables cover every sequence below the first replayed one; the floor
	// starts there, so a Flush or a GC pass waits for the replayed
	// entries to reach a table, and every entry above it is in mem ∪ imm
	// (see rewriteGuardLocked).
	floor, covered := db.set.LogNum(), db.set.LastSeq()
	for _, num := range db.logs {
		if num < floor {
			continue // covered by tables; removed once Open is done
		}
		first, err := db.replayLog(num)
		if err != nil {
			return err
		}
		if first > 0 {
			covered = min(covered, first-1)
		}
	}
	db.flushedThroughSeq = covered
	db.rotBoundarySeq = db.set.LastSeq()
	// Anything replayed lives in the new memtable; if it outgrew the limit,
	// it is the flush worker's first job, so the WAL floor can advance.
	if db.mem.ApproximateBytes() >= db.opts.MemTableSize {
		db.imm, db.mem = db.mem, memtable.New(db.icmp)
	}
	return nil
}

// replayLog applies WAL num to the memtable and returns the first sequence
// it replayed, 0 if none.
func (db *store) replayLog(num uint64) (first keys.Seq, err error) {
	f, err := db.fsWAL.Open(db.logFileName(num))
	if err != nil {
		if err == vfs.ErrNotExist {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	r := wal.NewReader(f)
	maxSeq := db.set.LastSeq()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn tail: records before it were applied; stop here, matching
			// LevelDB's default of trusting the log up to the tear.
			break
		}
		b, err := batch.Decode(rec)
		if err != nil {
			break
		}
		if !db.validBlobRefs(b) {
			// A pointer entry references bytes past the value log's valid
			// extent: the vlog append for this group never made it to disk,
			// so the whole batch is treated as torn (batch atomicity — the
			// WAL record may have raced ahead of the vlog write).
			break
		}
		seq := b.Sequence()
		if first == 0 {
			first = seq
		}
		i := keys.Seq(0)
		b.Each(func(kind keys.Kind, key, value []byte) error {
			if kind == keys.KindBlobRewrite {
				// GC rewrites are always dropped at replay: their guard was
				// evaluated against commit-time memtable state that recovery
				// cannot reconstruct. The old copy is still live (its segment
				// is only deleted after a sync barrier), so dropping loses
				// nothing; the new copy is marked dead for GC to reclaim.
				if db.vlog != nil && len(value) == 8+vlog.PointerLen {
					if p, ok := vlog.DecodePointer(value[8:]); ok && db.vlog.Valid(p) {
						db.vlog.MarkDead(p.Segment, int64(p.Length))
					}
				}
				i++
				return nil
			}
			db.mem.Add(seq+i, kind, key, value)
			i++
			return nil
		})
		if end := seq + keys.Seq(b.Count()) - 1; end > maxSeq {
			maxSeq = end
		}
	}
	db.set.SetLastSeq(maxSeq)
	return first, nil
}

// validBlobRefs reports whether every pointer entry in a replayed batch
// references bytes inside the value log's valid extent. Evaluated as a
// pre-pass so a batch is applied all-or-nothing.
func (db *store) validBlobRefs(b *batch.Batch) bool {
	valid := true
	b.Each(func(kind keys.Kind, key, value []byte) error {
		switch kind {
		case keys.KindBlobRef:
			p, ok := vlog.DecodePointer(value)
			if !ok || db.vlog == nil || !db.vlog.Valid(p) {
				valid = false
			}
		case keys.KindBlobRewrite:
			if len(value) != 8+vlog.PointerLen {
				valid = false
			}
		}
		return nil
	})
	return valid
}

// newLogLocked switches to a fresh WAL file. Callers guarantee exclusivity
// (Open, or write path holding mu).
func (db *store) newLogLocked() error {
	num := db.set.NewFileNum()
	raw, err := db.fsWAL.Create(db.logFileName(num))
	if err != nil {
		return err
	}
	// Tracked from here, so a failure below leaves no untracked file: it is
	// above every tracked number, and a later job removes it once the floor
	// passes it.
	db.logs = append(db.logs, num)
	if db.logw != nil {
		// The old writer may hold buffered frames; push them down before the
		// file is closed so the retiring WAL is complete on disk.
		if err := db.logw.Flush(); err != nil {
			return err
		}
	}
	if db.logFile != nil {
		// The retiring WAL's buffered frames were flushed above; a close
		// error on the old handle cannot lose acknowledged data.
		_ = db.logFile.Close()
	}
	db.logFile = raw
	// Buffer WAL appends inside the writer when Sync is off: the OS page
	// cache coalesces log writes under LevelDB's default, and the buffer
	// models that so the simulated device sees realistic large writes. With
	// Sync on, appends go straight through (every group fsyncs anyway).
	if db.opts.Sync {
		db.logw = wal.NewWriter(raw)
	} else {
		db.logw = wal.NewWriterSize(raw, 32<<10)
	}
	db.logNum = num
	return nil
}

// Close flushes the memtable state to disk-safe form (the WAL already holds
// it) and stops background work, draining both workers. Close is
// idempotent and safe to call concurrently: every call returns only after
// the teardown is complete, and all calls return the same result. After
// Close, the public entry points (Put, Delete, Apply, Get, GetAt, Scan,
// NewIterator, NewSnapshot) fail with ErrClosed; Stats and CurrentProfile
// keep returning the final counters.
func (db *store) Close() error {
	db.closeOnce.Do(func() {
		db.mu.Lock()
		db.stopBackgroundLocked()
		db.mu.Unlock()

		// Drain the commit front end: queued writers fail with ErrClosed;
		// every group in flight (a forming leader observes closed under db.mu
		// or via the controller) finishes before Close proceeds to tear the
		// WAL down.
		db.pipeline.Close()

		// The final WAL sync and close are the last durability points; their
		// errors are the ones a caller of Close most needs to see.
		if db.logFile != nil {
			db.closeErr = db.logw.Sync()
			if err := db.logFile.Close(); db.closeErr == nil {
				db.closeErr = err
			}
			db.logFile = nil
		}
		// Seal this shard's active vlog segment (sync + close); the Log's
		// read handles close once the readers below have drained.
		if db.vlogw != nil {
			if err := db.vlogw.Close(); db.closeErr == nil {
				db.closeErr = err
			}
		}
		// Reads that acquired a read state before it was retired — point
		// gets mid-probe, open iterators — still hold table readers. Wait for
		// them to drain rather than closing files under them. Open iterators
		// must therefore be closed before (or concurrently with) Close, the
		// same contract LevelDB enforces.
		db.mu.Lock()
		retired := db.retired
		db.mu.Unlock()
		for _, rs := range retired {
			<-rs.done
		}
		// A reader's late unref may have made tables obsolete after the last
		// job's cleanup ran; no later job will come for them (DESIGN,
		// "Liveness").
		db.deleteObsoleteFiles()
		db.tables.close()
		if db.vlog != nil {
			if err := db.vlog.Close(); db.closeErr == nil {
				db.closeErr = err
			}
		}
		if err := db.set.Close(); db.closeErr == nil {
			db.closeErr = err
		}
	})
	return db.closeErr
}

// stopBackgroundLocked marks the store closed and waits until the workers
// have exited and no job runs on any goroutine: in-flight jobs run to
// completion, none starts after. Callers hold db.mu. Also used by
// crash-simulation tests, which abandon the handle without a clean Close.
func (db *store) stopBackgroundLocked() {
	db.closed = true
	db.bgCond.Broadcast()
	for db.workersRunning > 0 || db.flushActive || db.compActive || db.cleanActive > 0 {
		db.bgCond.Wait()
	}
	// All republishers are drained (workers exited; rotation and commit are
	// fenced by closed), so retiring the read state here is final: readers
	// from now on observe nil and fail with ErrClosed. Still-pinned states
	// stay in db.retired so Close can wait for in-flight readers to drain
	// before the table cache is torn down.
	db.retireReadState(db.readState.Swap(nil))
}

// ---------------------------------------------------------------------------
// Writes

// opBatches holds the one-entry batches of Put and Delete. Nothing refers to
// a batch once Apply has returned (the WAL, the value log and the memtable
// each copy what they keep; the commit group drops its members before it
// wakes them), so it is reset and handed to the next caller; under -tags
// invariants Reset poisons the payload, which is what would show a reference
// that was kept.
var opBatches = sync.Pool{New: func() any { return batch.New() }}

func (db *store) applyOp(b *batch.Batch) error {
	err := db.Apply(b)
	b.Reset()
	opBatches.Put(b)
	return err
}

// Put inserts or updates a key.
func (db *store) Put(key, value []byte) error {
	b := opBatches.Get().(*batch.Batch)
	b.Set(key, value)
	return db.applyOp(b)
}

// Delete writes a tombstone for a key.
func (db *store) Delete(key []byte) error {
	b := opBatches.Get().(*batch.Batch)
	b.Delete(key)
	return db.applyOp(b)
}

// Apply commits a batch atomically through the group-commit pipeline: the
// batch joins a write group (possibly with other concurrent committers),
// whose leader appends one WAL record, fsyncs if Options.Sync is set, and
// applies the group to the memtable (see write.go).
func (db *store) Apply(b *batch.Batch) error { return db.commit(b, nil) }

// commit is Apply with the pipeline's appended callback (commit.Pipeline's
// Commit), which a Segment, whose parts are never empty, waits on to learn
// that b holds its sequence range.
func (db *store) commit(b *batch.Batch, appended func()) error {
	if b.Empty() {
		return nil
	}
	start := time.Now()
	defer func() {
		d := time.Since(start)
		db.stats.WriteTime.Add(int64(d))
		db.stats.writeHist.Record(d)
	}()
	return db.pipeline.Commit(b, db.opts.Sync, appended)
}

// ---------------------------------------------------------------------------
// Reads

// ReadSampleEvery is how many Gets share one reading of the clock: two
// time.Now calls, a histogram record and a shared counter add cost about a
// tenth of a cached Get, and a 1-in-16 sample taken by ordinal (not by key
// or outcome) estimates the same latency distribution and total, for traffic
// with no period that divides 16. A constant, exported so that what prints
// Stats.ReadLatency can say what it is.
const ReadSampleEvery = 16

// getAt reads at a pinned sequence (nil = latest). The router resolves a
// public Snapshot to this shard's captured sequence before calling in.
// Stats.Gets counts every call; every ReadSampleEvery-th is timed, standing
// for itself and the fifteen before it in Stats.ReadTime. With own set the
// caller gets bytes of its own; without, the value as it lies, read-only
// (find).
func (db *store) getAt(key []byte, snapSeq *keys.Seq, own bool) ([]byte, error) {
	if db.stats.Gets.Add(1)%ReadSampleEvery != 0 {
		return db.lookup(key, snapSeq, own)
	}
	start := time.Now()
	val, err := db.lookup(key, snapSeq, own)
	d := time.Since(start)
	db.stats.ReadTime.Add(int64(d) * ReadSampleEvery)
	db.stats.readHist.Record(d)
	return val, err
}

// lookup is the point read itself: find, then, for a caller that owns its
// result, the one copy. The copy comes after find has released the read
// state: the bytes it aliases belong to the collector, and nothing writes
// them once they are filled (see "Liveness" in DESIGN).
func (db *store) lookup(key []byte, snapSeq *keys.Seq, own bool) ([]byte, error) {
	val, err := db.find(key, snapSeq)
	if err != nil || !own {
		return val, err
	}
	return bytes.Clone(val), nil
}

// find returns the value of key visible at snapSeq (nil = latest) under a
// read state it holds for the call, as it lies: a memtable's value in the
// skiplist's records, a table's plain value in its data block, a separated
// value in the block cache. Each outlives the read state and none is
// written again, so the caller may keep it but must not write to it.
func (db *store) find(key []byte, snapSeq *keys.Seq) ([]byte, error) {
	// Lock-free: one atomic load + ref pins (mem, imm, version) together; the
	// visible sequence is then read from the Set's atomic counter. Entries at
	// or below that sequence were applied to a memtable before the sequence
	// was published, and every published state contains all previously
	// applied data, so the pair is always consistent.
	rs := db.loadReadState()
	if rs == nil {
		return nil, ErrClosed
	}
	defer rs.unref()
	seq := db.set.LastSeq()
	if snapSeq != nil {
		seq = *snapSeq
	}
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	val, kind, found, err := db.entry(rs, sc, key, seq)
	switch {
	case err != nil:
		return nil, err
	case !found || kind == keys.KindDelete:
		return nil, ErrNotFound
	case kind == keys.KindBlobRef:
		return db.resolveBlob(val)
	}
	return val, nil
}

// entry returns the newest raw entry of key visible at seq in rs — kind and
// stored value; for a pointer entry, the pointer bytes — searching the
// memtables, then the tables, all with the one record it builds into sc.
// A memtable's value aliases the skiplist's buffers and a table's a data
// block; both outlive the read state (the Go GC keeps them alive through
// the returned slice).
func (db *store) entry(rs *readState, sc *readScratch, key []byte, seq keys.Seq) (val []byte, kind keys.Kind, found bool, err error) {
	var sk keys.InternalKey
	sc.rec, sk = memtable.SearchRecord(sc.rec, key, seq)
	val, kind, found = rs.mem.GetEntry(sc.rec)
	if !found && rs.imm != nil {
		val, kind, found = rs.imm.GetEntry(sc.rec)
	}
	if found {
		return val, kind, true, nil
	}
	return db.versionEntry(rs.v, sc, sk)
}

// blobCacheBit namespaces decoded vlog values inside the shared block
// cache: table blocks key by (file number | shard<<48, offset) with shard
// ids below 256, so bit 63 is never set by a table-block key. Segment
// numbers are per shard like file numbers, so a value's key carries the
// shard bits too: (segment | shard<<48 | blobCacheBit, offset).
const blobCacheBit = uint64(1) << 63

// resolveBlob materializes a pointer entry's value from the value log,
// consulting the shared block cache first. The value it returns is the
// cache's private copy, read-only: the cache never writes an entry's bytes,
// and a caller that keeps or changes the value copies it.
func (db *store) resolveBlob(ptr []byte) ([]byte, error) {
	p, ok := vlog.DecodePointer(ptr)
	if !ok {
		return nil, fmt.Errorf("ldc: malformed blob pointer (%d bytes)", len(ptr))
	}
	if db.vlog == nil {
		return nil, fmt.Errorf("ldc: blob pointer %s with no value log", p)
	}
	bc := db.tables.blockCache
	ck := cache.Key{FileNum: db.tables.cacheNum(p.Segment) | blobCacheBit, Offset: p.Offset}
	db.stats.BlobResolves.Add(1)
	if v, hit := bc.Get(ck); hit {
		db.stats.BlobResolveCacheHits.Add(1)
		return v, nil
	}
	r := db.vlog.GetReader()
	_, value, err := r.Read(p)
	if err != nil {
		r.Release()
		return nil, err
	}
	cached := append([]byte(nil), value...)
	r.Release()
	bc.Set(ck, cached, int64(len(cached)))
	return cached, nil
}

// readScratch is one point read's working state, pooled so that a
// steady-state read builds nothing: the search record
// (memtable.SearchRecord), the cursor every table probe of the read works in,
// the user key's bloom.Hash, which every table's filter takes, and the read's
// probe tally.
type readScratch struct {
	rec   []byte
	probe sstable.ProbeCursor
	hash  uint32
	n     probeTally
}

var readScratchPool = sync.Pool{New: func() interface{} { return new(readScratch) }}

// probeTally counts one read's filter consultations and table probes, so the
// shared counters are advanced once per read rather than once per table.
type probeTally struct {
	bloomProbes, bloomNegatives, tableProbes int64
}

// versionEntry searches table files level by level with the search key sk
// and returns the winning raw entry (kind + stored value — for a pointer
// entry, the pointer bytes, not the resolved value). The value aliases a
// data block, which nothing writes once filled, so a caller may copy it after
// releasing the read state; a pointer must be resolved before, while the
// state still keeps its segment. Losers (older versions, tombstones) are
// never copied. found=false with nil err means no table holds a visible
// version.
func (db *store) versionEntry(v *version.Version, sc *readScratch, sk keys.InternalKey) ([]byte, keys.Kind, bool, error) {
	sc.hash, sc.n = bloom.Hash(sk.UserKey()), probeTally{}
	val, kind, found, err := db.searchTables(v, sc, sk)
	db.stats.BloomProbes.Add(sc.n.bloomProbes)
	db.stats.BloomNegatives.Add(sc.n.bloomNegatives)
	db.stats.TableProbes.Add(sc.n.tableProbes)
	return val, kind, found, err
}

func (db *store) searchTables(v *version.Version, sc *readScratch, sk keys.InternalKey) ([]byte, keys.Kind, bool, error) {
	ucmp := db.icmp.User
	key := sk.UserKey()

	// L0: newest file first.
	l0 := v.Levels[0]
	for i := len(l0) - 1; i >= 0; i-- {
		f := l0[i]
		if !f.UserRange().Contains(ucmp, key) {
			continue
		}
		val, kind, _, found, err := db.tableProbe(&f.Table, f.Num, sc, sk)
		if err != nil {
			return nil, 0, false, err
		}
		if found {
			return val, kind, true, nil
		}
	}

	// Sorted levels: probe the slice windows that cover the key, then the
	// file. Files are disjoint, so the key lives in at most one file's own
	// range, but windows of neighbouring files may overlap, so several can
	// cover it; the window candidate with the highest visible sequence wins,
	// which makes the order they are probed in immaterial. Every window of a
	// level reads a file frozen out of the level above after the level's
	// file for the key took its data, so a version a window holds is newer
	// than any the file holds: once a window answers, the file is not
	// probed. Under -tags invariants it is, and a newer version there fails.
	for level := 1; level < version.NumLevels; level++ {
		f := v.FindFile(level, key)
		w := &v.Windows[level]
		if f == nil && len(w.ByLo) == 0 {
			continue
		}
		var (
			bestSeq   keys.Seq
			bestVal   []byte
			bestKind  keys.Kind
			bestFound bool
		)
		// A covering window starts at or below the key, so it is among
		// ByLo[:n]; walking down from there, MaxHi tells when no window
		// further down can reach the key any more.
		for i := w.StartingAtOrBelow(ucmp, key) - 1; i >= 0 && ucmp.Compare(w.MaxHi[i], key) >= 0; i-- {
			s := w.ByLo[i]
			if ucmp.Compare(s.Range.Hi, key) < 0 {
				continue
			}
			val, kind, entrySeq, found, err := db.tableProbe(nil, s.FrozenNum, sc, sk)
			if err != nil {
				return nil, 0, false, err
			}
			if found && (!bestFound || entrySeq > bestSeq) {
				bestSeq, bestVal, bestKind, bestFound = entrySeq, val, kind, true
			}
		}
		if bestFound {
			if invariants.Enabled && f != nil {
				db.checkWindowNewer(f, sc, sk, bestSeq)
			}
			return bestVal, bestKind, true, nil
		}
		if f != nil {
			val, kind, _, found, err := db.tableProbe(&f.Table, f.Num, sc, sk)
			if err != nil {
				return nil, 0, false, err
			}
			if found {
				return val, kind, true, nil
			}
		}
	}
	return nil, 0, false, nil
}

// checkWindowNewer probes file f, which a window of its level has answered
// for sk's key at sequence windowSeq, and fails if f holds a newer visible
// version: the read would have returned a stale one. The probe stays out of
// the read's tally.
func (db *store) checkWindowNewer(f *version.FileMeta, sc *readScratch, sk keys.InternalKey, windowSeq keys.Seq) {
	tally := sc.n
	_, _, seq, found, err := db.tableProbe(&f.Table, f.Num, sc, sk)
	sc.n = tally
	if err == nil && found && seq > windowSeq {
		invariants.Violatedf("file %d holds %q at seq %d, newer than its level's window at seq %d", f.Num, sk.UserKey(), seq, windowSeq)
	}
}

// tableProbe is the per-table point lookup: bloom filter, then the reader's
// direct index→data-block probe (no iterator construction), both with what
// sc carries. table is the reader slot of the meta that named file num in the
// caller's pinned version (tableCache.through), nil for a slice window's
// frozen file, which is looked up by number. The returned value aliases the
// data block — callers copy only what they return. The entry sequence orders
// candidates across overlapping slice windows.
func (db *store) tableProbe(table *atomic.Pointer[sstable.Reader], num uint64, sc *readScratch, sk keys.InternalKey) (val []byte, kind keys.Kind, entrySeq keys.Seq, found bool, err error) {
	r, err := db.tables.through(table, num)
	if err != nil {
		return nil, 0, 0, false, err
	}
	sc.n.bloomProbes++
	if !r.MayContainHash(sc.hash) {
		sc.n.bloomNegatives++
		return nil, 0, 0, false, nil
	}
	sc.n.tableProbes++
	return r.Probe(&sc.probe, sk)
}

// ---------------------------------------------------------------------------
// Snapshots

// snapshotList counts the registrations of each sequence that snapshots and
// read points (ReadPoint) pin on a shard.
type snapshotList struct {
	mu   invariants.Mutex
	seqs map[keys.Seq]int
}

// add registers seq once more.
func (l *snapshotList) add(seq keys.Seq) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addLocked(seq)
}

func (l *snapshotList) addLocked(seq keys.Seq) {
	if l.seqs == nil {
		l.seqs = map[keys.Seq]int{}
	}
	l.seqs[seq]++
}

// release drops one registration of seq.
func (l *snapshotList) release(seq keys.Seq) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := l.seqs[seq]; n <= 1 {
		delete(l.seqs, seq)
	} else {
		l.seqs[seq] = n - 1
	}
}

// floorLocked returns the lowest registered sequence, or seq if none is lower.
func (l *snapshotList) floorLocked(seq keys.Seq) keys.Seq {
	for s := range l.seqs {
		seq = min(seq, s)
	}
	return seq
}

// len counts the registrations live now.
func (l *snapshotList) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.seqs {
		n += c
	}
	return n
}

// snapshotSeq captures and registers this shard's current sequence for a
// snapshot. Returns ErrClosed after Close — a sequence number captured from
// a torn-down store would pin nothing. The public Snapshot (router.go)
// bundles one captured sequence per shard.
func (db *store) snapshotSeq() (keys.Seq, error) {
	// The read-state pointer doubles as the closed gate: it is retired
	// (swapped to nil) before any state a snapshot relies on is torn down.
	rs := db.loadReadState()
	if rs == nil {
		return 0, ErrClosed
	}
	defer rs.unref()
	// The sequence is read under the list's lock, so smallestSnapshot never
	// runs between the read and the registration.
	db.snapshots.mu.Lock()
	defer db.snapshots.mu.Unlock()
	seq := db.set.LastSeq()
	db.snapshots.addLocked(seq)
	return seq, nil
}

// smallestSnapshot reports the oldest sequence any snapshot still needs;
// compactions must preserve versions visible at it.
func (db *store) smallestSnapshot() keys.Seq {
	db.snapshots.mu.Lock()
	defer db.snapshots.mu.Unlock()
	return db.snapshots.floorLocked(db.set.LastSeq())
}

// ---------------------------------------------------------------------------
// Misc accessors

// Stats returns this shard's counters: its counter block, its value log's
// state and the controller's stall accounting, read once, with the ratios
// derived. The router sums these; the shared block cache is folded in
// there, once.
func (db *store) Stats() Stats {
	s := db.stats.snapshot()
	if db.vlog != nil {
		vs := db.vlog.Stats()
		s.VlogSegments, s.VlogTotalBytes = vs.Segments, vs.TotalBytes
		s.VlogDeadBytes, s.VlogAppendedBytes = vs.DeadBytes, vs.AppendedBytes
	}
	if db.controller != nil {
		cm := db.controller.Metrics()
		s.SlowdownCount = cm.Slowdowns
		s.StopCount = cm.Stops
		s.StallTime = time.Duration(cm.StallNanos)
		s.WriteState = cm.State.String()
	}
	s.derive()
	return s
}

// LevelProfile describes one level for diagnostics and experiments.
type LevelProfile struct {
	Level  int
	Files  int
	Bytes  int64
	Slices int
}

// Profile reports per-level shape plus LDC frozen-region state.
type Profile struct {
	Levels         []LevelProfile
	FrozenFiles    int
	FrozenBytes    int64
	SliceThreshold int
}

// CurrentProfile captures the tree's current shape.
func (db *store) CurrentProfile() Profile {
	v := db.set.Current()
	defer v.Unref()
	p := Profile{SliceThreshold: db.picker.SliceThreshold()}
	for level := 0; level < version.NumLevels; level++ {
		p.Levels = append(p.Levels, LevelProfile{
			Level:  level,
			Files:  v.NumFiles(level),
			Bytes:  v.LevelBytes(level),
			Slices: v.SliceCount(level),
		})
	}
	p.FrozenFiles = len(v.Frozen)
	p.FrozenBytes = v.FrozenBytes()
	return p
}

// Flush writes the live memtable out as a table and waits for it to land.
// Rotation is requested through the commit pipeline (the leader-exclusive
// path is the only context allowed to swap the WAL writer), so Flush is
// safe against concurrent writers; with a continuous writer it guarantees
// that data published when the call began has reached a table.
func (db *store) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.flushThroughLocked(db.set.LastSeq())
}

// flushThroughLocked returns once tables cover every sequence up to target,
// rotating the memtable out when no immutable one is pending and waiting on
// bgCond for the flush. db.mu held.
func (db *store) flushThroughLocked(target keys.Seq) error {
	for {
		switch {
		case db.bgErr != nil:
			return db.bgErr
		case db.closed:
			return ErrClosed
		case db.flushedThroughSeq >= target:
			return nil
		case db.imm == nil && db.mem.Empty():
			// Nothing above the floor lives outside tables: all entries up to
			// LastSeq were flushed, and any sequences consumed since
			// (guard-dropped rewrites) added no entries. Promote directly —
			// the rewrite-guard invariant is preserved.
			db.flushedThroughSeq = db.set.LastSeq()
		case db.imm != nil:
			db.bgCond.Wait() // the flush half broadcasts once the memtable has landed
		default:
			db.mu.Unlock()
			err := db.forceRotate()
			db.mu.Lock()
			if err != nil {
				return err
			}
		}
	}
}

// CompactRange steps the shard on the caller's goroutine until it is idle
// (idleLocked), waiting out the jobs and cleanups other goroutines have in
// flight — used by tests and experiments to reach a steady state.
func (db *store) CompactRange() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		did, err := db.stepLocked()
		if err != nil || (!did && db.idleLocked()) {
			return err
		}
		if !did {
			db.bgCond.Wait()
		}
	}
}

// WaitIdle blocks until the shard is idle (idleLocked), closed or poisoned by
// a background error. A store opened without a compaction worker has no one
// to run its picks: step it with CompactRange instead.
func (db *store) WaitIdle() {
	db.mu.Lock()
	for !db.closed && db.bgErr == nil && !db.idleLocked() {
		db.bgCond.Wait()
	}
	db.mu.Unlock()
}

// fatal poisons the store with err's first occurrence. It wakes the readers
// waiting for a read point to publish (awaitPublished): a poisoned store
// publishes nothing more. Caller holds db.mu.
func (db *store) fatal(err error) {
	if db.bgErr == nil {
		db.bgErr = fmt.Errorf("ldc: background error: %w", err)
		db.publishCond.Broadcast()
	}
}
