package vlog

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/invariants"
	"repro/internal/vfs"
)

// ErrClosed reports use of a closed Writer.
var ErrClosed = errors.New("vlog: writer closed")

// Writer is one shard's appender. The shard's group-commit leader calls
// Append for each separated value and then one Sync for the whole write
// group — one durability point per group, mirroring the WAL. The GC worker
// appends through the same Writer (its own lock acquisition), so rotation
// and offsets stay single-writer per shard. Syncs run their fsync outside
// the lock, so the next group's appends need not wait for one.
type Writer struct {
	log   *Log
	shard int

	mu      invariants.Mutex
	synced  *sync.Cond // broadcast when the last running Sync returns
	closed  bool
	seg     *segment
	f       vfs.File
	off     int64
	dirty   bool   // appended since the last Sync that covered every append
	appends uint64 // records appended, ever: a Sync clears dirty only if none landed during its fsync
	syncing int    // Syncs in their fsync; rotation and Close wait them out
	buf     []byte
}

// NewWriter returns shard's appender. The first segment file is created on
// first Append, so a database that never separates a value never creates
// vlog files.
func (l *Log) NewWriter(shard int) *Writer {
	w := &Writer{log: l, shard: shard}
	w.mu.Rank("vlog.writer.mu", 55)
	w.synced = sync.NewCond(&w.mu)
	return w
}

// Append writes one record and returns its pointer. The record is written
// through to the filesystem (no writer-side buffering), so it is readable
// as soon as the pointer is published; durability still requires Sync.
func (w *Writer) Append(key, value []byte) (Pointer, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return Pointer{}, ErrClosed
	}
	if w.seg == nil || w.off >= w.log.segSize {
		if err := w.rotateLocked(); err != nil {
			return Pointer{}, err
		}
	}
	w.buf = AppendRecord(w.buf[:0], key, value)
	//ldclint:ignore mutexio appends must serialize under w.mu: the commit leader and the GC relocator race for the same segment tail, and record offsets are assigned by write order
	n, err := w.f.Write(w.buf)
	if err != nil {
		return Pointer{}, fmt.Errorf("vlog: append: %w", err)
	}
	if n != len(w.buf) {
		return Pointer{}, fmt.Errorf("vlog: short append: %d of %d", n, len(w.buf))
	}
	p := Pointer{Segment: w.seg.num, Offset: uint64(w.off), Length: uint32(len(w.buf))}
	w.off += int64(len(w.buf))
	w.seg.size.Store(w.off)
	w.log.appended.Add(int64(len(w.buf)))
	w.dirty = true
	w.appends++
	return p, nil
}

// rotateLocked seals the current segment and starts a fresh one. A running
// Sync holds the current file, so it first waits those out; another append
// may rotate meanwhile, leaving nothing to do.
func (w *Writer) rotateLocked() error {
	for w.syncing > 0 {
		w.synced.Wait()
	}
	if w.closed {
		return ErrClosed
	}
	if w.seg != nil && w.off < w.log.segSize {
		return nil
	}
	if w.f != nil {
		err := w.f.Sync()
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.seg.active.Store(false)
		w.f, w.seg = nil, nil
		if err != nil {
			return fmt.Errorf("vlog: seal segment: %w", err)
		}
	}
	l := w.log
	l.mu.Lock()
	num := l.nextSeg
	l.nextSeg++
	seg := newSegment(num, w.shard)
	seg.active.Store(true)
	l.segs[num] = seg
	l.mu.Unlock()

	f, err := l.fs.Create(l.dir + "/" + SegmentFileName(w.shard, num))
	if err != nil {
		l.mu.Lock()
		delete(l.segs, num)
		l.mu.Unlock()
		return fmt.Errorf("vlog: create segment: %w", err)
	}
	w.seg, w.f, w.off = seg, f, 0
	return nil
}

// Sync makes every record appended before the call durable. No-op when
// nothing was appended since the last Sync that covered every append. The
// fsync runs outside w.mu, so appends (the next write group's, the GC
// relocator's) and other Syncs proceed beside it; a Sync clears Dirty only
// when no record was appended during its fsync.
func (w *Writer) Sync() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.f == nil || !w.dirty {
		w.mu.Unlock()
		return nil
	}
	f, appends := w.f, w.appends
	w.syncing++
	w.mu.Unlock()

	err := f.Sync()

	w.mu.Lock()
	if err == nil && w.appends == appends {
		w.dirty = false
	}
	if w.syncing--; w.syncing == 0 {
		w.synced.Broadcast()
	}
	w.mu.Unlock()
	if err != nil {
		return fmt.Errorf("vlog: sync: %w", err)
	}
	return nil
}

// Close seals the active segment and releases the writer.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	for w.syncing > 0 {
		w.synced.Wait()
	}
	if w.f == nil {
		return nil
	}
	//ldclint:ignore mutexio teardown path; closed flag is already set so no append can contend
	err := w.f.Sync()
	//ldclint:ignore mutexio teardown path; closed flag is already set so no append can contend
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.seg.active.Store(false)
	w.f, w.seg = nil, nil
	return err
}
