package core

import (
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
	db.controller = commit.NewController(
		commit.ControllerConfig{
			MemTableSize:      db.opts.MemTableSize,
			L0SlowdownTrigger: db.opts.L0SlowdownTrigger,
			L0StopTrigger:     db.opts.L0StopTrigger,
			// The debt term of the slowdown curve saturates when the tree
			// owes a full level-1's worth of rewriting.
			DebtCeiling: int64(db.opts.Fanout) * db.opts.SSTableSize,
		},
		commit.ControllerEnv{
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
			L0Files: func() int { return db.set.CurrentNoRef().NumFiles(0) },
			CompactionDebt: func() int64 {
				return db.picker.Debt(db.set.CurrentNoRef())
			},
			MemBytes:   func() int64 { return db.mem.ApproximateBytes() },
			ImmPending: func() bool { return db.imm != nil },
			Rotate:     db.rotateMemtableLocked,
			Wait:       db.bgCond.Wait,
		})
	db.pipeline = commit.NewPipeline(commit.Env{
		MakeRoom: db.controller.MakeRoom,
		Commit:   db.commitGroup,
	}, commit.Options{
		ClosedError: ErrClosed,
	})
}

// rotateMemtableLocked switches to a fresh WAL and memtable, handing the
// full table to the flush worker. Caller holds db.mu (the controller, or
// recovery's exclusive section).
func (db *store) rotateMemtableLocked() error {
	if err := db.newLogLocked(); err != nil {
		return err
	}
	db.imm, db.mem = db.mem, memtable.New(db.icmp)
	// Everything at or below the current sequence is now in imm (or
	// tables); the flush worker promotes flushedThroughSeq to this
	// boundary when the imm lands (see rewriteGuardLocked).
	db.rotBoundarySeq = db.set.LastSeq()
	db.publishReadState()
	db.flushCond.Signal()
	return nil
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
// before an unacknowledged commit may do. Only the pipeline calls this, one
// group at a time.
func (db *store) commitGroup(g *batch.Group, sync bool) error {
	// Value separation runs before db.mu: the pipeline serializes leaders,
	// so this shard's vlog appends are single-writer, and the (possibly
	// slow) value writes overlap reads and background work. The appended
	// records are readable immediately (write-through) but referenced only
	// once the group's pointers are applied below.
	b := g.Batch()
	sep, extraUserBytes, err := db.separateValues(b)
	if err != nil {
		db.mu.Lock()
		db.fatal(err)
		db.mu.Unlock()
		return err
	}
	if sep != nil {
		b = sep
	}
	// One vlog durability point per sync group, mirroring the WAL's: an
	// acknowledged sync commit must never lose its separated values. It runs
	// on its own goroutine, which takes only the writer's lock, and is joined
	// below on every path — so Close, which waits for the in-flight group,
	// never tears the writer down under it.
	vlogSync := sync && db.vlogw != nil && db.vlogw.Dirty()
	if vlogSync {
		go db.vlogSyncFn()
	}
	db.mu.Lock()
	seq, err := db.logGroupLocked(g, sep, b)
	if sync {
		// The leader waits outside db.mu: readers, the flush worker, and
		// compactions all proceed during the fsyncs, and followers piling up
		// behind this group are exactly how sync cost gets amortized. The
		// WAL writer cannot be swapped concurrently — rotation only happens
		// on this (leader-exclusive) path.
		logw := db.logw
		db.mu.Unlock()
		var syncErr error
		if err == nil {
			start := time.Now()
			syncErr = logw.Sync()
			db.stats.walSyncNanos.Add(int64(time.Since(start)))
			db.stats.walSyncCount.Add(1)
		}
		if vlogSync {
			// The WAL's error wins when both fsyncs fail: program order, not
			// completion order, so the reported error is deterministic.
			if verr := <-db.vlogSynced; syncErr == nil {
				syncErr = verr
			}
		}
		db.mu.Lock()
		if syncErr != nil {
			db.fatal(syncErr)
			if err == nil {
				err = syncErr
			}
		}
	}
	if err != nil {
		db.mu.Unlock()
		return err
	}
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
				db.vlog.NoteGuardedRewrite()
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
	db.stats.userWriteBytes.Add(userBytes + extraUserBytes)
	// Request counters move where entries are applied, so a write counts the
	// same whether it arrived through Put, Delete or a batch.
	db.stats.puts.Add(puts)
	db.stats.deletes.Add(deletes)
	db.set.SetLastSeq(seq + keys.Seq(b.Count()) - 1)
	db.observeMix()
	db.mu.Unlock()
	return nil
}

// logGroupLocked is commitGroup's step under db.mu up to the WAL append:
// refuse a poisoned or closed store, honor a pending forced rotation, stamp
// the group's sequence range and append its record. It returns the group's
// first sequence. A failure that leaves the log or the rotation half done
// poisons the store here; the caller only unlocks and reports.
func (db *store) logGroupLocked(g *batch.Group, sep, b *batch.Batch) (keys.Seq, error) {
	if db.bgErr != nil {
		return 0, db.bgErr
	}
	if db.closed {
		return 0, ErrClosed
	}
	if db.rotateForced.Load() && db.imm == nil {
		// GC flush barrier requested a rotation; this is the leader-
		// exclusive path, so swapping the WAL writer is safe here and
		// nowhere else. The group's own entries land in the fresh memtable.
		db.rotateForced.Store(false)
		if !db.mem.Empty() {
			if err := db.rotateMemtableLocked(); err != nil {
				db.fatal(err)
				return 0, err
			}
		}
	}
	seq := db.set.LastSeq() + 1
	g.SetSequence(seq)
	if sep != nil {
		// The transformed batch is not a group member; stamp it directly so
		// the WAL record and memtable application agree with the sequences
		// the group's callers observe.
		sep.SetSequence(seq)
	}
	rec := b.Encode()
	if err := db.logw.AddRecord(rec); err != nil {
		// The log may now hold a partial record for an unpublished sequence
		// range; poison the store so the range is never reassigned.
		db.fatal(err)
		return 0, err
	}
	db.stats.walWriteBytes.Add(int64(len(rec)))
	return seq, nil
}

// separateValues is the commit-time value-separation transform: every Set
// whose value is at least Options.BlobThreshold bytes is appended to the
// value log and replaced by a fixed-size pointer entry. Returns (nil, 0,
// nil) when nothing qualifies — the common case, detected without building
// a replacement batch. extraUserBytes is the user-byte undercount of the
// transformed batch (original value sizes minus the pointers that replaced
// them), so write accounting reflects what the user wrote.
func (db *store) separateValues(b *batch.Batch) (sep *batch.Batch, extraUserBytes int64, err error) {
	if db.vlogw == nil || db.opts.BlobThreshold <= 0 {
		return nil, 0, nil
	}
	qualifies := false
	_ = b.Each(func(kind keys.Kind, key, value []byte) error {
		if kind == keys.KindSet && int64(len(value)) >= db.opts.BlobThreshold {
			qualifies = true
		}
		return nil
	})
	if !qualifies {
		return nil, 0, nil
	}
	out := batch.New()
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
		return nil, 0, eachErr
	}
	db.stats.blobValuesSeparated.Add(sepCount)
	db.stats.blobBytesSeparated.Add(sepBytes)
	return out, extraUserBytes, nil
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
