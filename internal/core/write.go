package core

import (
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/commit"
	"repro/internal/encoding"
	"repro/internal/keys"
	"repro/internal/memtable"
	"repro/internal/vlog"
)

// This file wires the store into the commit pipeline (internal/commit): the
// group-commit front end that batches concurrent Apply callers into write
// groups, and the controller that owns the write-throttle state machine.
// Lock ordering is pipeline lock → db.mu → set.mu; the WAL fsync runs with
// db.mu released so reads and background work proceed during slow syncs.

// initCommitPipeline builds the controller and pipeline over this store.
// Called once from Open, before any writer can exist.
func (db *store) initCommitPipeline() {
	db.controller = commit.NewController(commit.ControllerEnv{
		Lock:   db.mu.Lock,
		Unlock: db.mu.Unlock,
		Err: func() error {
			if db.bgErr != nil {
				return db.bgErr
			}
			if db.closed {
				// Close ran while this writer was stalled; don't write
				// into a store whose WAL is about to be torn down.
				return ErrClosed
			}
			return nil
		},
		L0Files:    func() int { return db.set.CurrentNoRef().NumFiles(0) },
		MemFull:    func() bool { return db.mem.ApproximateBytes() >= db.opts.MemTableSize },
		ImmPending: func() bool { return db.imm != nil },
		Rotate:     db.rotateMemtableLocked,
		Wait:       db.bgCond.Wait,
	})
	db.lastAlloc = db.set.LastSeq()
	db.pipeline = commit.NewPipeline(commit.Env{
		MakeRoom: db.controller.MakeRoom,
		Commit:   db.commitGroup,
	})
}

// rotateMemtableLocked switches to a fresh WAL and memtable, handing the
// full table to the flush worker. Caller holds db.mu (the controller, or a
// commit leader honoring a forced rotation). It first waits until no sync
// group is between its WAL append and its publish (commitGroup): each
// group's entries must land in the memtable whose WAL holds its record.
func (db *store) rotateMemtableLocked() error {
	for db.published != db.appended {
		db.publishCond.Wait()
	}
	if db.bgErr != nil {
		return db.bgErr
	}
	if db.closed {
		return ErrClosed
	}
	if err := db.newLogLocked(); err != nil {
		return err
	}
	db.imm, db.mem = db.mem, memtable.New(db.icmp)
	// Everything at or below the current sequence is now in imm (or
	// tables); the flush worker promotes flushedThroughSeq to this
	// boundary when the imm lands (see rewriteGuardLocked).
	db.rotBoundarySeq = db.set.LastSeq()
	db.publishReadState()
	db.bgCond.Broadcast()
	return nil
}

// vlogSync is one sync group's value-log fsync, run on a goroutine of its
// own beside the group's WAL append and fsync and joined before the group
// publishes. Groups in flight side by side each hold one; they are recycled
// through db.vlogSyncs, so a slot is made only when more groups overlap than
// ever before.
type vlogSync struct {
	done chan error
	run  func()
}

// startVlogSyncLocked starts an fsync of the shard's value log and returns
// the slot its result arrives in. Caller holds db.mu.
func (db *store) startVlogSyncLocked() *vlogSync {
	var vs *vlogSync
	if n := len(db.vlogSyncs); n > 0 {
		vs = db.vlogSyncs[n-1]
		db.vlogSyncs = db.vlogSyncs[:n-1]
	} else {
		vs = &vlogSync{done: make(chan error, 1)}
		w := db.vlogw
		vs.run = func() { vs.done <- w.Sync() }
	}
	go vs.run()
	return vs
}

// commitGroup durably applies one formed write group: append its separated
// values to the value log, stamp its sequence range, append the concatenated
// record to the WAL, then apply to the memtable and publish the sequence.
// Memtable application precedes SetLastSeq so no reader can observe a
// sequence whose entries are not yet visible. A sync group waits once, with
// db.mu released, for two fsyncs that run side by side:
//
//	vlog append → (vlog fsync ∥ WAL append → WAL fsync) → join → apply → SetLastSeq
//
// Application and the acknowledgement follow both durability points, so
// nothing becomes visible before it is durable. The WAL record may reach the
// device before the values its pointers name; that order is safe because
// recovery treats a record whose pointers dangle past the value log's valid
// extent as torn and drops the batch whole (replayLog) — exactly what a crash
// before an unacknowledged commit may do.
//
// Sync groups are pipelined: once its record is appended a group releases
// the pipeline's leader slot, so the next group forms, appends and starts
// its own fsyncs while this one's are still running. Groups take their
// sequence ranges from db.lastAlloc and a ticket from db.appended at the
// append, and publish by ticket (publishLocked), so the published sequence
// (set.LastSeq) only ever moves past whole, durable groups in order.
// Non-sync groups keep one critical section from append to publish.
func (db *store) commitGroup(g *batch.Group, sync bool, release func()) error {
	// Value separation runs before db.mu: the pipeline's leader slot, held
	// until the WAL append, keeps this shard's commit-side vlog appends in
	// group order, and the (possibly slow) value writes overlap reads and
	// background work. The appended records are readable immediately
	// (write-through) but referenced only once the group's pointers are
	// applied below.
	b := g.Batch()
	sep, extraUserBytes, onVlog, err := db.separateValues(b)
	if err != nil {
		db.mu.Lock()
		db.fatal(err)
		db.mu.Unlock()
		return err
	}
	if sep != nil {
		b = sep
		defer recycleSeparated(sep)
	}
	// One vlog durability point per sync group whose records name values in
	// the log, mirroring the WAL's: an acknowledged sync commit must never
	// lose its separated values. A group that names none skips it even while
	// an earlier group's values are unsynced: it publishes after that group,
	// and recovery stops at the first record whose pointers dangle, so what
	// it acknowledges never depends on them. The fsync is joined below on
	// every path, so Close, which waits for every group in flight, never
	// tears the writer down under it.
	db.mu.Lock()
	var vs *vlogSync
	if sync && onVlog {
		vs = db.startVlogSyncLocked()
	}
	seq, ticket, err := db.logGroupLocked(g, sep, b)
	appended := err == nil
	if sync {
		// The fsyncs run outside db.mu and outside the leader slot: readers,
		// background work and the next group's append all proceed meanwhile.
		// The WAL writer cannot be swapped under this fsync — rotation waits
		// for every appended group to publish first.
		logw := db.logw
		db.mu.Unlock()
		release()
		var syncErr error
		if appended {
			start := time.Now()
			syncErr = logw.Sync()
			db.stats.WALSyncNanos.Add(int64(time.Since(start)))
			db.stats.WALSyncCount.Add(1)
		}
		if vs != nil {
			// The WAL's error wins when both fsyncs fail: program order, not
			// completion order, so the reported error is deterministic.
			if verr := <-vs.done; syncErr == nil {
				syncErr = verr
			}
		}
		db.mu.Lock()
		if vs != nil {
			db.vlogSyncs = append(db.vlogSyncs, vs)
		}
		if syncErr != nil {
			db.fatal(syncErr)
			if err == nil {
				err = syncErr
			}
		}
	}
	if appended {
		err = db.publishLocked(ticket, seq, b, extraUserBytes, err)
	}
	db.mu.Unlock()
	if err == nil {
		db.stats.WriteGroupsTotal.Add(1)
		db.stats.WriteBatchesTotal.Add(int64(g.Len()))
	}
	return err
}

// publishLocked is a group's last step: wait until every group appended
// before it has published or failed, then apply its entries to the memtable
// and publish its sequence range. A group fails instead, publishing nothing,
// when its own fsync failed (err) or the store is poisoned — an earlier
// group's failure included, so the published sequence never skips a range.
// Caller holds db.mu.
func (db *store) publishLocked(ticket uint64, seq keys.Seq, b *batch.Batch, extraUserBytes int64, err error) error {
	for db.published != ticket {
		db.publishCond.Wait()
	}
	if err == nil && db.bgErr != nil {
		err = db.bgErr
	}
	if err == nil {
		db.applyLocked(seq, b, extraUserBytes)
	}
	db.published++
	db.publishCond.Broadcast()
	return err
}

// applyLocked adds a logged group's entries to the memtable and publishes
// its sequence range. Caller holds db.mu.
func (db *store) applyLocked(seq keys.Seq, b *batch.Batch, extraUserBytes int64) {
	i := keys.Seq(0)
	var userBytes, puts, deletes int64
	b.Each(func(kind keys.Kind, key, value []byte) error {
		if kind == keys.KindBlobRewrite {
			// GC pointer rewrite: apply as a plain pointer entry only if the
			// key was not written past the GC's read sequence; a failed
			// guard drops the rewrite (its sequence number stays consumed)
			// and marks the new copy dead for a later pass. Not counted as
			// user bytes or a put — it is background relocation, not a user
			// write.
			readSeq := keys.Seq(encoding.Fixed64(value))
			ptr := value[8:]
			if db.rewriteGuardLocked(key, readSeq) {
				db.mem.Add(seq+i, keys.KindBlobRef, key, ptr)
			} else {
				if p, ok := vlog.DecodePointer(ptr); ok {
					db.vlog.MarkDead(p.Segment, int64(p.Length))
				}
				db.stats.VlogGCRecordsGuarded.Add(1)
			}
			i++
			return nil
		}
		db.mem.Add(seq+i, kind, key, value)
		userBytes += int64(len(key) + len(value))
		if kind == keys.KindDelete {
			deletes++
		} else {
			puts++
		}
		i++
		return nil
	})
	// Separated entries count at their original size: the user wrote the
	// value, even though the tree stores a 20-byte pointer.
	db.stats.UserWriteBytes.Add(userBytes + extraUserBytes)
	// Request counters move where entries are applied, so a write counts the
	// same whether it arrived through Put, Delete or a batch.
	db.stats.Puts.Add(puts)
	db.stats.Deletes.Add(deletes)
	db.set.SetLastSeq(seq + keys.Seq(b.Count()) - 1)
}

// logGroupLocked is commitGroup's step under db.mu up to the WAL append:
// refuse a poisoned or closed store, honor a pending forced rotation, stamp
// the group's sequence range and append its record. It returns the group's
// first sequence and its publication ticket. A failure that leaves the log
// or the rotation half done poisons the store here; the caller only unlocks
// and reports.
func (db *store) logGroupLocked(g *batch.Group, sep, b *batch.Batch) (keys.Seq, uint64, error) {
	if db.bgErr != nil {
		return 0, 0, db.bgErr
	}
	if db.closed {
		return 0, 0, ErrClosed
	}
	if db.rotateForced.Load() && db.imm == nil {
		// Flush or a GC pass requested a rotation; only a leader may swap the
		// WAL writer, and rotateMemtableLocked outwaits the groups still
		// syncing the old one. The group's own entries land in the fresh
		// memtable.
		db.rotateForced.Store(false)
		if !db.mem.Empty() {
			if err := db.rotateMemtableLocked(); err != nil {
				if err != ErrClosed {
					db.fatal(err)
				}
				return 0, 0, err
			}
		}
	}
	seq := db.lastAlloc + 1
	g.SetSequence(seq)
	if sep != nil {
		// The transformed batch is not a group member; stamp it directly so
		// the WAL record and memtable application agree with the sequences
		// the group's callers observe.
		sep.SetSequence(seq)
	}
	// The range is spent from here on, whatever the append does: a failure
	// poisons the store, so it is never reassigned.
	db.lastAlloc += keys.Seq(b.Count())
	rec := b.Encode()
	if err := db.logw.AddRecord(rec); err != nil {
		// The log may now hold a partial record for an unpublished sequence
		// range; poison the store.
		db.fatal(err)
		return 0, 0, err
	}
	db.stats.WALWriteBytes.Add(int64(len(rec)))
	ticket := db.appended
	db.appended++
	return seq, ticket, nil
}

// separateValues is the commit-time value-separation transform: every Set
// whose value is at least Options.BlobThreshold bytes is appended to the
// value log and replaced by a fixed-size pointer entry. Returns a nil sep
// when nothing qualifies — the common case, detected without building a
// replacement batch. extraUserBytes is the user-byte undercount of the
// transformed batch (original value sizes minus the pointers that replaced
// them), so write accounting reflects what the user wrote. onVlog reports
// that the batch names values in the value log that its own commit depends
// on: one it separated, or a GC rewrite, whose relocated copy the GC
// appended. A non-nil sep comes from sepBatches and belongs to the caller
// until it recycles it (recycleSeparated).
func (db *store) separateValues(b *batch.Batch) (sep *batch.Batch, extraUserBytes int64, onVlog bool, err error) {
	if db.vlogw == nil {
		return nil, 0, false, nil
	}
	qualifies := false
	_ = b.Each(func(kind keys.Kind, key, value []byte) error {
		switch {
		case kind == keys.KindBlobRewrite:
			onVlog = true
		case kind == keys.KindSet && db.opts.BlobThreshold > 0 && int64(len(value)) >= db.opts.BlobThreshold:
			qualifies = true
		}
		return nil
	})
	if !qualifies {
		return nil, 0, onVlog, nil
	}
	out := sepBatches.Get().(*batch.Batch)
	var sepCount, sepBytes int64
	var ptrBuf [vlog.PointerLen]byte
	eachErr := b.Each(func(kind keys.Kind, key, value []byte) error {
		if kind == keys.KindSet && int64(len(value)) >= db.opts.BlobThreshold {
			p, aerr := db.vlogw.Append(key, value)
			if aerr != nil {
				return aerr
			}
			out.SetBlobRef(key, p.Encode(ptrBuf[:0]))
			sepCount++
			sepBytes += int64(len(value))
			extraUserBytes += int64(len(value)) - vlog.PointerLen
			return nil
		}
		switch kind {
		case keys.KindDelete:
			out.Delete(key)
		case keys.KindBlobRef:
			out.SetBlobRef(key, value)
		case keys.KindBlobRewrite:
			out.SetBlobRewrite(key, keys.Seq(encoding.Fixed64(value)), value[8:])
		default:
			out.Set(key, value)
		}
		return nil
	})
	if eachErr != nil {
		recycleSeparated(out)
		return nil, 0, false, eachErr
	}
	db.stats.BlobValuesSeparated.Add(sepCount)
	db.stats.BlobBytesSeparated.Add(sepBytes)
	return out, extraUserBytes, true, nil
}

// sepBatches holds separateValues' rewritten batches, each grown to the
// largest group it carried. A rewritten batch is in use until its group's
// commitGroup returns: the WAL record is encoded from it at the append, and a
// pipelined group applies it to the memtable only at its publish, after its
// fsyncs. Nothing refers to it after that (the WAL and the memtable copy
// what they keep), so commitGroup hands it back then, reset; under -tags
// invariants Reset poisons the payload, which is what would show a
// reference that was kept.
var sepBatches = sync.Pool{New: func() any { return batch.New() }}

func recycleSeparated(b *batch.Batch) {
	b.Reset()
	sepBatches.Put(b)
}

// rewriteGuardLocked decides whether a GC rewrite whose liveness was read
// at readSeq still describes key's newest version. Soundness rests on the
// invariant that every entry with a sequence above flushedThroughSeq is
// present in mem ∪ imm: if readSeq has not fallen below that floor and
// neither memtable holds a newer version of key, no newer version exists
// anywhere, so installing the rewritten pointer cannot shadow a user
// write. Caller holds db.mu.
func (db *store) rewriteGuardLocked(key []byte, readSeq keys.Seq) bool {
	if readSeq < db.flushedThroughSeq {
		return false
	}
	if s, ok := db.mem.LatestSeq(key); ok && s > readSeq {
		return false
	}
	if db.imm != nil {
		if s, ok := db.imm.LatestSeq(key); ok && s > readSeq {
			return false
		}
	}
	return true
}
