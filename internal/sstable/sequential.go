package sstable

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/block"
	"repro/internal/invariants"
	"repro/internal/iterator"
	"repro/internal/keys"
	"repro/internal/vfs"
)

// IOChunk is the request size of background table I/O. Tables are written
// through a buffer of this size (core.writeTables) and compaction inputs are
// read back in runs of at most this size, so the device sees the same large
// sequential requests in both directions. A constant, not an option: the
// device charges a fixed cost per request, and nothing in the engine wants a
// different value.
const IOChunk = 64 << 10

// readAheadMin is the size of the first request a user iterator reads ahead
// with once it steps forward off a block onto one that is not cached; the size
// doubles with every such request up to IOChunk, and a seek starts it over. A
// short scan so over-reads little, a long one soon reads like a compaction.
const readAheadMin = 16 << 10

var (
	chunkPool   = sync.Pool{New: func() interface{} { return new([IOChunk]byte) }}
	seqIterPool = sync.Pool{New: func() interface{} { return new(seqIter) }}
)

// NewSequential returns an iterator for one forward pass over the table — a
// compaction input — that reads through f, a handle of the caller's on the
// same file. With a window, the pass covers exactly the entries whose user
// key lies in it (an LDC slice of a frozen table); without, the whole table.
//
// The pass walks r's decoded index and reads only the data blocks that can
// hold a key of the window: from the first block whose last key reaches
// window.Lo through the first block whose last key reaches window.Hi. Those
// blocks are fetched in runs of whole, adjacent blocks of at most IOChunk
// bytes per read (a single block larger than that is read alone), and every
// block is verified and decoded out of the run exactly as a point read does.
// Nothing else of r is touched: not its file handle, not its read counters
// (its ReadStats describe user reads), and not the block cache — a
// compaction reads each block once, so caching them would only evict what
// user reads put there. The footer, index and filter blocks are not read.
//
// The iterator owns f and closes it on Close. Values alias the run's buffer
// and, as the Iterator contract says, die at the next positioning call.
func (r *Reader) NewSequential(f vfs.File, window *keys.KeyRange) iterator.Iterator {
	r.checkOpen("NewSequential")
	t := seqIterPool.Get().(*seqIter)
	t.r, t.f = r, f
	t.clamped = window != nil
	if window != nil {
		// The smallest and the largest internal key a user key in the window
		// can have.
		t.lo = keys.MakeSearchKey(t.lo[:0], window.Lo, keys.MaxSeq)
		t.hi = keys.MakeInternalKey(t.hi[:0], window.Hi, 0, keys.KindDelete)
	}
	t.run, t.last, t.dataOK = nil, false, false
	t.err = nil
	t.closed = false
	return t
}

// seqIter is the sequential-read table iterator. It holds one run of blocks
// in memory at a time and hands the buffer over to the next run when the
// current one is used up.
type seqIter struct {
	r       *Reader  // shared: only its index, checksum kind and options are used
	f       vfs.File // this pass's own handle
	clamped bool
	lo, hi  keys.InternalKey

	next int          // position in r.index of the first block after the current run
	run  []indexEntry // the current run's blocks, adjacent on disk: a stretch of r.index
	last bool         // the run ends with the window's last block
	pos  int          // data is bound to run[pos]

	chunk *[IOChunk]byte // pooled run buffer, taken at the first fetch
	buf   []byte         // the run's bytes: chunk[:n], or a one-off for an oversized block
	blk   block.Reader
	data  block.Iter

	dataOK bool // data is bound to a block of the window
	err    error
	closed bool
}

// assertOpen catches use-after-Close under -tags invariants, where Close
// keeps the iterator out of the pool so a stale caller trips here instead of
// silently driving the next owner's pass.
func (t *seqIter) assertOpen() {
	if invariants.Enabled && t.closed {
		panic("invariant violated: sequential table iterator used after Close")
	}
}

// poison overwrites a buffer the iterator lets go of, under -tags invariants,
// so that a slice kept into it reads 0xDD instead of plausible bytes.
func poison(b []byte) {
	if invariants.Enabled {
		for i := range b {
			b[i] = 0xDD
		}
	}
}

// nextRun sizes the run of a forward pass that starts with block i of the
// index: the blocks from i on, for as long as they are adjacent on disk and
// together fit budget bytes (the first is taken whatever its size), through the
// block that holds upper when there is one — index keys are the last key of
// their block, so the first to reach upper names the last block a key up to it
// can be in. The run is r.index[i:end]; n is its length on disk, and last
// reports that it ends with upper's block.
func (r *Reader) nextRun(i, budget int, upper []byte) (end, n int, last bool) {
	for end = i; end < len(r.index) && !last; end++ {
		h := r.index[end].h
		size := int(h.length) + blockTrailerLen
		if end > i && (h.offset != r.index[i].h.offset+uint64(n) || n+size > budget) {
			break
		}
		n += size
		last = upper != nil && r.cmp(r.indexKey(end), upper) >= 0
	}
	return end, n, last
}

// readRun fills buf with the run that starts at off, through f. A short read
// is an error whatever the file says about it: decoding the part that arrived
// would end the input early, silently.
func (r *Reader) readRun(f vfs.File, buf []byte, off uint64) error {
	if got, err := f.ReadAt(buf, int64(off)); got < len(buf) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("sstable %06d: read [%d,+%d): %w", r.opts.FileNum, off, len(buf), err)
	}
	return nil
}

// fetchRun reads the next run of the window, at most one chunk of blocks. It
// reports false at the end of the window or on error.
func (t *seqIter) fetchRun() bool {
	poison(t.buf) // a value kept across the hand-over reads as garbage at once
	t.pos = 0
	var upper []byte
	if t.clamped {
		upper = t.hi
	}
	end, n, last := t.r.nextRun(t.next, IOChunk, upper)
	t.run, t.next, t.last = t.r.index[t.next:end], end, last
	if len(t.run) == 0 {
		return false
	}
	if n <= IOChunk {
		if t.chunk == nil {
			t.chunk = chunkPool.Get().(*[IOChunk]byte)
		}
		t.buf = t.chunk[:n]
	} else {
		t.buf = make([]byte, n)
	}
	t.err = t.r.readRun(t.f, t.buf, t.run[0].h.offset)
	return t.err == nil
}

// nextBlock binds data to the block after the current one, fetching the next
// run when this one is used up.
func (t *seqIter) nextBlock() bool {
	t.dataOK = false
	t.pos++
	if t.pos >= len(t.run) && (t.last || !t.fetchRun()) {
		return false
	}
	h := t.run[t.pos].h
	start := h.offset - t.run[0].h.offset
	contents, err := t.r.decodeBlock(t.buf[start:start+h.length+blockTrailerLen], h.offset)
	if err == nil {
		if err = t.blk.Init(t.r.cmp, contents); err != nil {
			err = fmt.Errorf("%w: file %06d offset %d: %v", ErrCorrupt, t.r.opts.FileNum, h.offset, err)
		}
	}
	if err != nil {
		t.err = err
		return false
	}
	t.data.Init(&t.blk)
	t.dataOK = true
	return true
}

// settle moves off exhausted blocks and ends the pass at the first key past
// the window. Only the window's last block can hold one: every earlier block
// ends below hi.
func (t *seqIter) settle() {
	for t.dataOK && !t.data.Valid() {
		if err := t.data.Error(); err != nil {
			t.err = err
			return
		}
		if !t.nextBlock() {
			return
		}
		t.data.SeekToFirst()
	}
	if t.dataOK && t.last && t.pos == len(t.run)-1 && t.r.cmp(t.data.Key(), t.hi) > 0 {
		t.dataOK = false
	}
}

// seek starts the pass at the first entry >= target inside the window; a nil
// target is the window's first entry.
func (t *seqIter) seek(target []byte) {
	t.assertOpen()
	if t.err != nil {
		return
	}
	t.run, t.pos, t.last, t.dataOK = nil, -1, false, false
	if t.clamped {
		if target == nil || t.r.cmp(target, t.lo) < 0 {
			target = t.lo
		}
		if t.r.cmp(target, t.hi) > 0 {
			return // nothing at or after target is inside the window
		}
	}
	t.next = 0
	if target != nil {
		t.next = t.r.seekIndex(target)
	}
	if !t.nextBlock() {
		return
	}
	if target == nil {
		t.data.SeekToFirst()
	} else {
		t.data.SeekGE(target)
	}
	t.settle()
}

func (t *seqIter) SeekGE(target []byte) { t.seek(target) }
func (t *seqIter) SeekToFirst()         { t.seek(nil) }

func (t *seqIter) Next() {
	t.assertOpen()
	if !t.Valid() {
		return
	}
	t.data.Next()
	t.settle()
}

func (t *seqIter) Valid() bool {
	t.assertOpen()
	return t.err == nil && t.dataOK && t.data.Valid()
}

func (t *seqIter) Key() []byte   { return t.data.Key() }
func (t *seqIter) Value() []byte { return t.data.Value() }

func (t *seqIter) Error() error {
	if t.err != nil {
		return t.err
	}
	if t.dataOK {
		return t.data.Error()
	}
	return nil
}

// Close releases the file and the run buffer and returns the iterator to the
// pool. Double-Close is tolerated (the second call reports the same error),
// but any other use after Close is invalid.
func (t *seqIter) Close() error {
	if t.closed {
		return t.err
	}
	t.err = t.Error()
	t.closed = true
	if err := t.f.Close(); err != nil && t.err == nil {
		t.err = err
	}
	if t.chunk != nil {
		poison(t.chunk[:])
		chunkPool.Put(t.chunk)
		t.chunk = nil
	}
	// Drop every reference into the run and the index before pooling.
	t.r, t.f, t.buf, t.run, t.blk, t.dataOK = nil, nil, nil, nil, block.Reader{}, false
	t.data.Init(nil)
	if invariants.Enabled {
		return t.err // the carcass stays out of the pool: see assertOpen
	}
	err := t.err
	seqIterPool.Put(t)
	return err
}
