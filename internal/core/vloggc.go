package core

import (
	"errors"
	"slices"

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
// so once the relocated copies are synced and the rewrites flushed, the
// segment joins the shard's pending list and dies by the rule that deletes
// tables and WALs: the post-job sweep (deleteObsoleteFiles) removes it once
// no reader older than the proof can reach it. Nothing waits on a reader.
// Guarded rewrites leave their old record live, so the next round simply
// rewrites it again with a fresh guard sequence; the rounds are bounded and
// a still-live segment is left for a later pass rather than ever deleted
// unsafely.

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

// pendingSegment is a value-log segment a GC pass proved dead at seq, left
// for the sweep to delete.
type pendingSegment struct {
	num uint64
	seq keys.Seq
}

// runValueGC collects every sealed segment of the shard's log whose dead
// ratio is at least threshold, worst first; threshold < 0 means every
// sealed segment. The pass sweeps before each segment and at its end; while
// an emptied segment still waits on its readers it relocates nothing more,
// so at most one per shard does. A contended segment is left for a later
// pass; only a real error ends the pass.
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
		if db.deleteObsoleteFiles() > 0 {
			return nil
		}
		if err := db.vlogGCSegment(num); err != nil {
			return err
		}
	}
	db.deleteObsoleteFiles()
	return nil
}

// vlogGCSegment runs one full GC pass over segment num and queues it for
// deletion once a round finds it empty. Real I/O errors propagate.
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
			db.stats.VlogGCBytesRewritten.Add(rewritten)
			return db.queueSegment(num, db.set.LastSeq())
		}
	}
	// Still-live records after bounded rounds: user writes kept winning the
	// guard race. Leave the segment; its dead ratio only grows.
	return nil
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

// queueSegment adds segment num, proved dead at sequence seq, to the
// shard's pending list once the proof holds across a crash: the relocated
// copies are synced, and tables cover seq, because recovery drops the GC
// rewrites it finds in the WAL.
func (db *store) queueSegment(num uint64, seq keys.Seq) error {
	if err := db.vlogw.Sync(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.flushThroughLocked(seq); err != nil {
		return err
	}
	db.pendingSegs = append(db.pendingSegs, pendingSegment{num, seq})
	return nil
}

// takeDeadSegmentsLocked takes off the pending list, and returns, every
// segment nothing can reach any more (DESIGN.md "Liveness"): tables cover
// its proof sequence, no retired read state published before the proof is
// still pinned, and no snapshot or read point is registered below it. A
// current state older than the proof is retired first; states at or past
// it read where the segment is unreferenced, so readers arriving later
// never keep it. db.mu held.
func (db *store) takeDeadSegmentsLocked() (nums []uint64) {
	if len(db.pendingSegs) == 0 {
		return nil
	}
	db.pendingSegs = slices.DeleteFunc(db.pendingSegs, func(p pendingSegment) bool {
		if rs := db.readState.Load(); rs != nil && rs.seq < p.seq {
			db.publishReadState()
		}
		dead := db.flushedThroughSeq >= p.seq && db.smallestSnapshot() >= p.seq &&
			!slices.ContainsFunc(db.retired, func(rs *readState) bool { return rs.seq < p.seq && !rs.drained() })
		if dead {
			nums = append(nums, p.num)
		}
		return dead
	})
	return nums
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
