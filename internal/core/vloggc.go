package core

import (
	"errors"
	"time"

	"repro/internal/batch"
	"repro/internal/keys"
	"repro/internal/vlog"
)

// Value-log garbage collection. Each shard collects its own log: a pass
// ranks the log's sealed segments by the dead-byte accounting compactions
// feed as they drop pointer entries (LDC-style), and collects them worst
// first. The router only paces the passes and runs them shard by shard.
//
// A pass over a segment works in rounds: scan the segment, test each record
// for liveness through the normal read path, append a fresh copy of every
// live record to the active segment, and inject pointer rewrites through
// the commit pipeline (KindBlobRewrite — applied only if the commit-time
// guard proves no newer write raced the liveness read). A round that finds
// zero live records proves the segment dead at the current sequence and at
// every later one — no future write can ever point into a sealed segment —
// so once the rewrites are flushed and every reader older than the proof has
// drained (blobBarrier) the file is deleted. Guarded rewrites leave their
// old record live, so the next round simply rewrites it again with a fresh
// guard sequence; the rounds are bounded and a still-live segment is left
// for a later pass rather than ever deleted unsafely.

// errGCBusy reports a GC pass that could not outwait its older readers (or
// flush its rewrites) within gcBarrierTimeout; the segment is skipped, not
// deleted, and a later pass retries. Deliberately not a user-visible error.
var errGCBusy = errors.New("ldc: value-log gc could not quiesce; segment skipped")

// gcBarrierTimeout bounds blobBarrier; a variable so a test that holds a
// reader open on purpose need not sit out the full wait.
var gcBarrierTimeout = 2 * time.Second

// gcMaxRounds bounds rewrite rounds per segment per pass. Two rounds
// suffice unless user writes keep racing the guard; beyond that the
// segment is contended and better left for a quieter moment.
const gcMaxRounds = 3

// gcChunkRecords / gcChunkBytes cap one injected rewrite batch, so GC
// commits stay small enough to ride normal write groups without stalling
// foreground writers behind a giant memtable application.
const (
	gcChunkRecords = 128
	gcChunkBytes   = 1 << 20
)

// runValueGC collects every sealed segment of the shard's log whose dead
// ratio is at least threshold, worst first; threshold < 0 means every
// sealed segment. The first failure ends the pass: errGCBusy, which the
// router treats as a skip, or a real error.
func (db *store) runValueGC(threshold float64) error {
	if db.vlog == nil {
		return nil
	}
	var nums []uint64
	if threshold < 0 {
		nums = db.vlog.SealedSegments()
	} else {
		nums = db.vlog.Candidates(threshold)
	}
	for _, num := range nums {
		if err := db.vlogGCSegment(num); err != nil {
			return err
		}
	}
	return nil
}

// vlogGCSegment runs one full GC pass over segment num. Returns nil on
// success, errGCBusy on a clean skip; real I/O errors propagate.
func (db *store) vlogGCSegment(num uint64) error {
	var rewritten int64
	for round := 0; round < gcMaxRounds; round++ {
		live, bytes, err := db.vlogGCRound(num)
		if err != nil {
			if errors.Is(err, vlog.ErrSegmentGone) {
				return nil // someone else finished it
			}
			return err
		}
		rewritten += bytes
		if live == 0 {
			if err := db.vlogGCDelete(num); err != nil {
				return err
			}
			db.stats.VlogGCPasses.Add(1)
			db.stats.VlogGCBytesRewritten.Add(rewritten)
			return nil
		}
	}
	// Still-live records after bounded rounds: user writes kept winning the
	// guard race. Leave the segment; its dead ratio only grows.
	return errGCBusy
}

// vlogGCRound scans the segment once, rewriting every record that is still
// the newest version of its key. Returns how many live records it found
// (and their byte count) — zero means the segment holds no reachable data.
func (db *store) vlogGCRound(num uint64) (live int, liveBytes int64, err error) {
	seg, err := db.vlog.OpenSegment(num)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := seg.Close(); err == nil {
			err = cerr
		}
	}()
	b := batch.New()
	var chunkBytes int64
	readSeq := db.set.LastSeq()
	var ptrBuf [vlog.PointerLen]byte

	flush := func() error {
		if b.Empty() {
			return nil
		}
		if err := db.Apply(b); err != nil {
			return err
		}
		b = batch.New()
		chunkBytes = 0
		readSeq = db.set.LastSeq()
		return nil
	}

	scanErr := seg.Scan(func(ptr vlog.Pointer, key, value []byte) error {
		isLive, err := db.recordLive(key, ptr)
		if err != nil {
			return err
		}
		if !isLive {
			return nil
		}
		live++
		liveBytes += int64(ptr.Length)
		// Relocate: new copy first (write-through, so the pointer is
		// resolvable the instant the rewrite applies), then the guarded
		// pointer rewrite through the normal commit pipeline.
		np, err := db.vlogw.Append(key, value)
		if err != nil {
			return err
		}
		b.SetBlobRewrite(key, readSeq, np.Encode(ptrBuf[:0]))
		chunkBytes += int64(len(value))
		if b.Count() >= gcChunkRecords || chunkBytes >= gcChunkBytes {
			return flush()
		}
		return nil
	})
	if scanErr != nil {
		return live, liveBytes, scanErr
	}
	return live, liveBytes, flush()
}

// recordLive reports whether the record at ptr is still the newest version
// of key — i.e. the current entry is a pointer naming exactly this record.
// No newer write can make a record live again (pointers into sealed
// segments are never created after the original commit), so a false result
// is stable; a true result is re-verified by the commit-time guard.
func (db *store) recordLive(key []byte, ptr vlog.Pointer) (bool, error) {
	rs := db.loadReadState()
	if rs == nil {
		return false, ErrClosed
	}
	defer rs.unref()
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	val, kind, found, err := db.entry(rs, sc, key, db.set.LastSeq())
	if err != nil {
		return false, err
	}
	if !found || kind != keys.KindBlobRef {
		return false, nil
	}
	cur, ok := vlog.DecodePointer(val)
	return ok && cur == ptr, nil
}

// vlogGCDelete makes segment deletion safe, then deletes: the shard's
// active segment is synced (the relocated copies must be durable) and
// blobBarrier outwaits everything that could still reach the old copies.
// Cached decoded values die with the segment.
func (db *store) vlogGCDelete(num uint64) error {
	if err := db.vlogw.Sync(); err != nil {
		return err
	}
	if err := db.blobBarrier(db.set.LastSeq()); err != nil {
		return err
	}
	db.tables.blockCache.EvictFile(db.tables.cacheNum(num) | blobCacheBit)
	return db.vlog.DeleteSegment(num)
}

// blobBarrier applies the liveness rule to a segment proved dead at or
// before sequence target: nil once nothing can reach the segment any more,
// errGCBusy past gcBarrierTimeout — the caller skips the deletion, never
// forces it. Three things could still reach it. Recovery, which drops GC
// rewrites found in the WAL: wait until tables cover every sequence up to
// target. A reader pinned on a read state published before target: retire
// the current state if it is that old and wait for the older states to
// drain; states at or past target read where the segment is unreferenced,
// so readers arriving during or after the pass neither block nor race it.
// A read at a registered snapshot below target: wait for the snapshot floor,
// the one compactions keep shadowed entries for.
func (db *store) blobBarrier(target keys.Seq) error {
	deadline := time.Now().Add(gcBarrierTimeout)
	var older []*readState
	db.mu.Lock()
	if err := db.flushThroughLocked(target, deadline); err != nil {
		db.mu.Unlock()
		return err
	}
	if db.readState.Load().seq < target {
		db.publishReadState()
	}
	for _, rs := range db.retired {
		if rs.seq < target {
			older = append(older, rs)
		}
	}
	db.mu.Unlock()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for _, rs := range older {
		select {
		case <-rs.done:
		case <-timer.C:
			return errGCBusy
		}
	}
	return db.snapshots.awaitFloor(target, deadline)
}

// forceRotate rotates to a fresh memtable and WAL via the commit pipeline,
// the only context allowed to swap the WAL writer (a leader holds the slot
// no other group can append under, and rotateMemtableLocked waits out the
// groups still syncing the old WAL). The empty
// barrier batch costs one 12-byte WAL record and no sequence numbers.
func (db *store) forceRotate() error {
	db.rotateForced.Store(true)
	return db.pipeline.Commit(batch.New(), false, nil)
}
