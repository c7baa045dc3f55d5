package core

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compaction"
	"repro/internal/invariants"
	"repro/internal/iterator"
	"repro/internal/keys"
	"repro/internal/sstable"
	"repro/internal/version"
	"repro/internal/vfs"
	"repro/internal/vlog"
)

// The background engine. A background job is one step: the pending flush, or
// else one pick and its execution. Each shard has a flush worker and a
// compaction worker, long-lived goroutines started by Open and drained by
// Close, each looping over one half of the step; CompactRange is the caller
// stepping until the shard is idle. A flush never queues behind a long merge,
// so the write path's "previous memtable still flushing" stall only lasts as
// long as the flush itself. Two compactions of one shard never overlap
// (compActive), so a pick is a function of the current version alone. A flush
// and a compaction do overlap; their version edits touch disjoint files (a
// flush only adds L0 tables) and are ordered by version.Set.
//
// A compaction.Pick is data — the files to take out of each level and the
// level the outputs land in — and the executor has two shapes for it: a
// metadata edit (trivial move, LDC link; execEdit) and a rewrite (UDC
// compaction, LDC's L0→L1 and LDC merge; execRewrite). A flush is the
// rewrite's table-building loop (writeTables) over a memtable.
//
// db.mu is held while picking and while mutating DB state; it is released
// during all file I/O and during LogAndApply, so foreground reads and writes
// only contend with the brief bookkeeping sections.

// startWorkers launches the flush worker and, if compactor is set, the
// compaction worker (without it the shard compacts only when stepped), once,
// at the end of Open, before the DB is visible to any other goroutine.
func (db *store) startWorkers(compactor bool) {
	halves := []func() bool{db.flushHalfLocked}
	if compactor {
		halves = append(halves, db.compactHalfLocked)
	}
	db.workersRunning = len(halves)
	for _, half := range halves {
		go db.worker(half)
	}
}

// worker runs one half of step whenever it has work, until the DB closes;
// Close waits for workersRunning to reach zero.
func (db *store) worker(half func() bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for !db.closed {
		if !half() {
			db.bgCond.Wait()
		}
	}
	db.workersRunning--
	db.bgCond.Broadcast()
}

// step runs one background job on the caller's goroutine, as the workers
// do: the flush half, or else the pick half. It reports whether it ran one,
// and the store's background error (or ErrClosed).
func (db *store) step() (did bool, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stepLocked()
}

func (db *store) stepLocked() (bool, error) {
	if db.bgErr != nil {
		return false, db.bgErr
	}
	if db.closed {
		return false, ErrClosed
	}
	did := db.flushHalfLocked() || db.compactHalfLocked()
	return did, db.bgErr
}

// flushHalfLocked is step's flush half: it flushes the immutable memtable if
// no one is flushing it, and reports whether it did. db.mu held on entry and
// exit.
func (db *store) flushHalfLocked() bool {
	if db.imm == nil || db.flushActive || db.bgErr != nil {
		return false
	}
	db.runJobLocked(&db.flushActive, &db.stats.FlushTime, db.flushImmLocked)
	return true
}

// compactHalfLocked is step's pick half: if no compaction is in flight, it
// executes the next pick, and reports whether there was one. db.mu held on
// entry and exit.
func (db *store) compactHalfLocked() bool {
	if db.compActive || db.bgErr != nil {
		return false
	}
	pick := db.picker.Pick(db.set.CurrentNoRef())
	if pick.Kind == compaction.PickNone {
		return false
	}
	db.stats.MaxConcurrentCompactions.Store(1)
	db.runJobLocked(&db.compActive, &db.stats.CompactionTime, func() error { return db.execPick(pick) })
	return true
}

// idleLocked is the one quiescence predicate: no flush pending, no job or
// its cleanup running on any goroutine, and nothing pickable.
func (db *store) idleLocked() bool {
	return db.imm == nil && !db.flushActive && !db.compActive && db.cleanActive == 0 &&
		db.picker.Pick(db.set.CurrentNoRef()).Kind == compaction.PickNone
}

// runJobLocked runs one background job under its flag (active), adds its
// time to its half's busy counter and no other, and ends it: it wakes the
// workers (the installed version may expose new work) and the foreground
// waiters (writes stalled on the memtable or L0), then deletes the files the
// job made obsolete with db.mu released. The cleanup is announced before mu
// drops, so the idle predicate covers the deletions too. A failed job
// poisons the store.
func (db *store) runJobLocked(active *bool, busy *atomic.Int64, job func() error) {
	*active = true
	start := time.Now()
	err := job()
	busy.Add(int64(time.Since(start)))
	*active = false
	if err != nil {
		db.fatal(err)
	}
	db.cleanActive++
	db.bgCond.Broadcast()
	db.mu.Unlock()

	db.deleteObsoleteFiles()
	db.mu.Lock()
	db.cleanActive--
	db.bgCond.Broadcast()
}

// execPick runs one unit of compaction work in the shape its kind
// calls for. db.mu held on entry and exit; released during I/O and the
// version edit.
func (db *store) execPick(pick compaction.Pick) error {
	if pick.Kind == compaction.PickTrivialMove || pick.Kind == compaction.PickLink {
		return db.execEdit(pick)
	}
	return db.execRewrite(pick)
}

// flushImmLocked writes the immutable memtable as an L0 table. db.mu is
// held on entry and exit; it is released during file I/O and the MANIFEST
// edit.
func (db *store) flushImmLocked() error {
	imm := db.imm
	logNum := db.logNum // WAL in use *after* the switch; older logs die with the flush
	// Captured under mu: the boundary set when this imm was rotated in. New
	// rotations cannot happen while imm != nil, so it is stable for the
	// whole flush; promoting the GC guard floor to it on success preserves
	// the invariant that everything above the floor is in mem ∪ imm.
	boundary := db.rotBoundarySeq
	db.mu.Unlock()

	// No size cap: one memtable becomes exactly one L0 table.
	outputs, err := db.writeTables(db.fsFlush, imm.NewIterator(), nil, 0)
	if err == nil {
		e := &version.Edit{}
		e.SetLogNum(logNum)
		for _, meta := range outputs {
			e.AddFile(0, meta)
			db.stats.FlushWriteBytes.Add(meta.Size)
		}
		err = db.set.LogAndApply(e)
	}

	db.mu.Lock()
	if err != nil {
		return err
	}
	db.imm = nil
	db.flushedThroughSeq = boundary
	db.publishReadState() // drop imm from the read view; pick up the L0 table
	db.stats.FlushCount.Add(1)
	return nil
}

// writeTables streams the entries of it (already in internal order) into new
// table files on fs and returns their metadata. Entries for which drop (when
// non-nil) reports true are left out; a table is closed once it reaches
// maxSize — at the next change of user key, since the versions of one key a
// snapshot keeps alive must not straddle two tables of a sorted level — and
// never when maxSize is 0. On
// error the partial table is only closed: nothing references it, so the next
// Open's orphan sweep removes it along with the job's finished outputs.
// Called without db.mu.
func (db *store) writeTables(fs vfs.FS, it iterator.Iterator,
	drop func(ik keys.InternalKey, value []byte) bool, maxSize int64) ([]*version.FileMeta, error) {
	defer it.Close()
	wopts := sstable.WriterOptions{
		Cmp:             db.icmp,
		BlockSize:       db.opts.BlockSize,
		BloomBitsPerKey: db.opts.BloomBitsPerKey,
		Compression:     db.opts.Compression,
	}
	var (
		outputs []*version.FileMeta
		w       *sstable.Writer
		f       vfs.File
		num     uint64
		err     error
		full    bool // the table has reached maxSize, on user key lastKey
		lastKey []byte
	)
	finish := func() error {
		props, err := w.Finish()
		if err != nil {
			return err
		}
		file, built := f, w
		w, f, full = nil, nil, false
		if err := file.Close(); err != nil {
			return err
		}
		if err := db.tables.install(num, built); err != nil {
			return err
		}
		outputs = append(outputs, &version.FileMeta{
			Num:      num,
			Size:     props.FileSize,
			Smallest: props.Smallest,
			Largest:  props.Largest,
		})
		db.stats.UncompressedBytesWritten.Add(props.UncompressedBytes)
		db.stats.CompressedBytesWritten.Add(props.CompressedBytes)
		return nil
	}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik, value := keys.InternalKey(it.Key()), it.Value()
		if drop != nil && drop(ik, value) {
			continue
		}
		if full && db.icmp.User.Compare(ik.UserKey(), lastKey) != 0 {
			if err = finish(); err != nil {
				break
			}
		}
		if w == nil {
			num = db.set.NewFileNum()
			if f, err = fs.Create(version.TableFileName(db.dir, num)); err != nil {
				break
			}
			f = vfs.NewBuffered(f, sstable.IOChunk)
			w = sstable.NewWriter(f, wopts)
		}
		if err = w.Add(ik, value); err != nil {
			break
		}
		if !full && maxSize > 0 && w.EstimatedSize() >= maxSize {
			full, lastKey = true, append(lastKey[:0], ik.UserKey()...)
		}
	}
	if err == nil {
		err = it.Error()
	}
	if err == nil && w != nil {
		err = finish()
	}
	if err != nil && f != nil {
		_ = f.Close() // partial table, left for the orphan sweep
	}
	return outputs, err
}

// pointerEdit records the round-robin cursor advance for a level in the
// edit (for recovery and for applyPointers). Pure computation — safe
// without db.mu; the picker itself is updated by applyPointers only after
// the edit commits.
func (db *store) pointerEdit(e *version.Edit, level int, inputs []*version.FileMeta) {
	var largest keys.InternalKey
	for _, f := range inputs {
		if largest == nil || db.icmp.Compare(f.Largest, largest) > 0 {
			largest = f.Largest
		}
	}
	if largest == nil {
		return
	}
	e.CompactPointers = append(e.CompactPointers, version.CompactPointer{Level: level, Key: largest.Clone()})
}

// applyPointers moves the picker's round-robin cursors to where a committed
// edit put them. Caller holds db.mu.
func (db *store) applyPointers(e *version.Edit) {
	for _, cp := range e.CompactPointers {
		db.picker.SetPointer(cp.Level, cp.Key)
	}
}

// execEdit runs the picks that move no data. A trivial move reparents
// Inputs[0] one level down. An LDC link (paper Algorithm 1, lines 1–9)
// freezes it instead and attaches one slice per overlapped lower file — pure
// metadata, which is why LDC's per-action cost is tiny.
func (db *store) execEdit(pick compaction.Pick) error {
	su := pick.Inputs[0]
	e := &version.Edit{}
	e.DeleteFile(pick.Level, su.Num)
	count := &db.stats.TrivialMoveCount
	if pick.Kind == compaction.PickLink {
		count = &db.stats.LinkCount
		overlaps := append([]*version.FileMeta(nil), pick.Overlaps...)
		windows := compaction.SliceWindows(db.icmp.User, su, overlaps)
		e.FreezeFile(&version.FrozenMeta{
			Num:      su.Num,
			Size:     su.Size,
			Smallest: su.Smallest,
			Largest:  su.Largest,
		})
		linkSeq := db.set.NewLinkSeq()
		per := su.Size / int64(len(overlaps))
		for i, sl := range overlaps {
			e.AddSlice(pick.OutputLevel, sl.Num, version.Slice{
				FrozenNum: su.Num,
				Range:     windows[i],
				LinkSeq:   linkSeq,
				Bytes:     per,
			})
		}
	} else {
		e.AddFile(pick.OutputLevel, su)
	}
	db.pointerEdit(e, pick.Level, pick.Inputs)

	db.mu.Unlock()
	err := db.set.LogAndApply(e)
	db.mu.Lock()
	if err != nil {
		return err
	}
	db.applyPointers(e)
	db.publishReadState()
	count.Add(1)
	return nil
}

// compactionState carries a rewrite's drop logic.
type compactionState struct {
	db           *store
	v            *version.Version
	outputLevel  int
	smallestSnap keys.Seq

	lastUserKey   []byte
	haveLastUser  bool
	lastSeqForKey keys.Seq
}

// drop decides whether an entry can be elided, following LevelDB's rules:
// older versions hidden behind a newer one visible to every snapshot are
// dropped; tombstones additionally require that no deeper level could hold
// the key (otherwise deleted data would resurface). This is also where
// value-log bytes die: a dropped pointer entry means its record can never be
// read again, so its weight moves to the owning segment's dead count — the
// signal LDC-driven GC ranks segments by.
func (cs *compactionState) drop(ik keys.InternalKey, value []byte) bool {
	ucmp := cs.db.icmp.User
	uk := ik.UserKey()
	if !cs.haveLastUser || ucmp.Compare(uk, cs.lastUserKey) != 0 {
		cs.lastUserKey = append(cs.lastUserKey[:0], uk...)
		cs.haveLastUser = true
		cs.lastSeqForKey = keys.MaxSeq
	}
	drop := false
	switch {
	case cs.lastSeqForKey <= cs.smallestSnap:
		drop = true // shadowed by a newer version visible to all snapshots
	case ik.Kind() == keys.KindDelete && ik.Seq() <= cs.smallestSnap && cs.isBaseLevelForKey(uk):
		drop = true
	}
	cs.lastSeqForKey = ik.Seq()
	if drop && ik.Kind() == keys.KindBlobRef && cs.db.vlog != nil {
		if p, ok := vlog.DecodePointer(value); ok {
			cs.db.vlog.MarkDead(p.Segment, int64(p.Length))
		}
	}
	return drop
}

// isBaseLevelForKey consults the version the job was picked from. A flush
// may have installed a newer one by the time drop runs, but the answer cannot
// be wrongly "true": new data for the key only ever enters *above* (via
// flushes into L0), and no other compaction of this shard runs beside this one.
func (cs *compactionState) isBaseLevelForKey(uk []byte) bool {
	point := keys.KeyRange{Lo: uk, Hi: uk}
	// The job rewrites every overlapping file at the output level, so the
	// check starts below it.
	for level := cs.outputLevel + 1; level < version.NumLevels; level++ {
		if len(cs.v.EffectiveOverlaps(level, point)) > 0 {
			return false
		}
	}
	return true
}

// meteredFile counts the bytes read through a compaction input's handle, so
// a job reports what it fetched rather than an estimate of it.
type meteredFile struct {
	vfs.File
	read *int64
}

func (m meteredFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := m.File.ReadAt(p, off)
	*m.read += int64(n)
	return n, err
}

// compactionInput is one input pass of a rewrite: a view of the input's
// table, the view's read sink, and for a slice the clamp to its window.
// Pooled, with the buffers of the clamp's bounds, so that opening a pass
// allocates nothing but its file handle.
type compactionInput struct {
	view  sstable.Reader
	stats sstable.ReadStats
	clamp iterator.Clamped
}

var inputPool = sync.Pool{New: func() interface{} { return new(compactionInput) }}

// inputIterators builds a rewrite's input iterators: one pass per file, plus
// one per attached slice, clamped to the slice's window of its frozen file as
// a scan clamps it (sliceIter.enter). A pass is a table iterator on a view of
// the table cache's reader (sstable.Reader.View), which reads through a handle
// of its own on db.fsCompR, charging the I/O to the compaction-read category;
// the bytes it reads are added to *read while the merge runs. The caller
// hands the inputs to closeInputs once the iterators are closed; on error,
// the iterators already are.
func (db *store) inputIterators(files []*version.FileMeta, read *int64) ([]iterator.Iterator, []*compactionInput, error) {
	n := 0
	for _, f := range files {
		n += 1 + len(f.Slices)
	}
	its, inputs := make([]iterator.Iterator, 0, n), make([]*compactionInput, 0, n)
	open := func(num uint64, window *keys.KeyRange) error {
		r, err := db.tables.get(num)
		if err != nil {
			return err
		}
		f, err := db.fsCompR.Open(version.TableFileName(db.dir, num))
		if err != nil {
			return err
		}
		in := inputPool.Get().(*compactionInput)
		inputs = append(inputs, in)
		r.View(&in.view, meteredFile{f, read}, &in.stats)
		if window == nil {
			its = append(its, in.view.NewIterator())
			return nil
		}
		in.clamp.Init(db.icmp.User, *window)
		in.clamp.Child = in.view.NewIteratorUpTo(in.clamp.Hi())
		its = append(its, &in.clamp)
		return nil
	}
	for _, f := range files {
		err := open(f.Num, nil)
		for i := 0; err == nil && i < len(f.Slices); i++ {
			err = open(f.Slices[i].FrozenNum, &f.Slices[i].Range)
		}
		if err != nil {
			for _, it := range its {
				_ = it.Close() // read-only
			}
			return nil, inputs, err
		}
	}
	return its, inputs, nil
}

// closeInputs closes the views of a rewrite's inputs, whose iterators the
// merge has closed, and pools them without their references into the tables.
// Under -tags invariants a closed view stays out of the pool, so a late use
// of it trips the reader's use-after-Close trap.
func closeInputs(inputs []*compactionInput) {
	for _, in := range inputs {
		_ = in.view.Close() // read-only handles
		if !invariants.Enabled {
			in.view, in.clamp.Child = sstable.Reader{}, nil
			inputPool.Put(in)
		}
	}
}

// execRewrite runs the picks that move data, all of them one merge sort: the
// pick's Inputs and Overlaps, each with the slice windows of the frozen files
// linked to it, are merged into new tables at pick.OutputLevel. For a
// conventional compaction (UDC at any level, LDC's L0→L1) that is one level
// down. For LDC's merge phase (paper Algorithm 1, lines 10–22) it is the
// level of the one input, the lower-level target: only the slice ranges of
// the frozen files are read — the halved compaction I/O of Fig 10(c) — and
// those files stay where they are, pinned by the version ref. A merge was not
// chosen by the level's round-robin cursor, so it alone leaves the cursor
// where it is. db.mu held on entry/exit; released for the whole merge and
// version edit.
func (db *store) execRewrite(pick compaction.Pick) error {
	// Current (not CurrentNoRef+Ref) so the reference is acquired under
	// set.mu, atomically with the pointer read: LogAndApply runs outside
	// db.mu, so the flush worker could otherwise install a new version and
	// drop the fetched one to zero refs between the read and the Ref.
	v := db.set.Current()
	smallestSnap := db.smallestSnapshot()
	db.mu.Unlock()

	merge := pick.Kind == compaction.PickMerge
	e := &version.Edit{}
	var readBytes, outBytes int64
	all := append(append([]*version.FileMeta(nil), pick.Inputs...), pick.Overlaps...)
	its, inputs, err := db.inputIterators(all, &readBytes)
	if err == nil {
		cs := &compactionState{db: db, v: v, outputLevel: pick.OutputLevel, smallestSnap: smallestSnap}
		merged := iterator.NewMerging(db.icmp.Compare, its...)
		var outputs []*version.FileMeta
		outputs, err = db.writeTables(db.fsCompW, merged, cs.drop, db.opts.SSTableSize)
		if err == nil {
			for _, f := range pick.Inputs {
				e.DeleteFile(pick.Level, f.Num)
			}
			for _, f := range pick.Overlaps {
				e.DeleteFile(pick.OutputLevel, f.Num)
			}
			for _, out := range outputs {
				e.AddFile(pick.OutputLevel, out)
				outBytes += out.Size
			}
			if !merge {
				db.pointerEdit(e, pick.Level, pick.Inputs)
			}
			err = db.set.LogAndApply(e)
		}
	}
	closeInputs(inputs)
	v.Unref()

	db.mu.Lock()
	if err != nil {
		return err
	}
	db.applyPointers(e)
	db.publishReadState()
	db.stats.CompactionReadBytes.Add(readBytes)
	db.stats.CompactionWriteBytes.Add(outBytes)
	if merge {
		db.stats.MergeReadBytes.Add(readBytes)
		db.stats.MergeWriteBytes.Add(outBytes)
		db.stats.MergeCount.Add(1)
	} else {
		db.stats.CompactionCount.Add(1)
	}
	return nil
}

// deleteObsoleteFiles removes table files no longer referenced by any
// version, this shard's WALs below the covered floor and the value-log
// segments of its pending list that no reader can reach, and returns how
// many segments stay pending. Called without db.mu; safe for concurrent
// callers: TakeObsolete hands each table number to exactly one of them, and
// each WAL and segment number leaves its list under db.mu before it is
// removed.
func (db *store) deleteObsoleteFiles() (pending int) {
	for _, num := range db.set.TakeObsolete() {
		db.tables.evict(num)
		if err := db.fsMeta.Remove(version.TableFileName(db.dir, num)); err == nil {
			db.stats.ObsoleteDeleted.Add(1)
		}
	}
	// The floor never passes the live WAL.
	floor := db.set.LogNum()
	var buf [8]uint64
	db.mu.Lock()
	n, _ := slices.BinarySearch(db.logs, floor)
	dead := append(buf[:0], db.logs[:n]...)
	db.logs = slices.Delete(db.logs, 0, n)
	segs := db.takeDeadSegmentsLocked()
	pending = len(db.pendingSegs)
	db.mu.Unlock()
	for _, num := range segs {
		db.tables.blockCache.EvictFile(db.tables.cacheNum(num) | blobCacheBit)
		if err := db.vlog.DeleteSegment(num); err == nil {
			db.stats.VlogGCPasses.Add(1)
		}
	}
	failed := dead[:0]
	for _, num := range dead {
		if err := db.fsMeta.Remove(db.logFileName(num)); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			failed = append(failed, num) // the next job retries it
		}
	}
	if len(failed) > 0 {
		db.mu.Lock()
		db.logs = append(db.logs, failed...)
		slices.Sort(db.logs)
		db.mu.Unlock()
	}
	return pending
}
