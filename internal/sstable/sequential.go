package sstable

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/invariants"
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

var chunkPool = sync.Pool{New: func() interface{} { return new([IOChunk]byte) }}

// View makes v a reader of r's table for a compaction pass, which reads
// through f, a handle of the caller's on the same file, and counts into
// stats, a sink of the caller's. The view shares r's decoded index, filter
// and size, so making it reads nothing, and differs from r in three ways:
//
//   - it has no block cache: a pass reads each block once, so caching would
//     only evict what user reads put there, and a block that goes into no
//     cache is not copied out of the run buffer it was read into — a value
//     aliases that buffer and, as the Iterator contract says, dies when the
//     next run is read into it;
//   - it counts into stats, so r's counters keep describing user reads;
//   - its iterators read ahead IOChunk bytes from the seek on instead of
//     ramping up from readAheadMin.
//
// A pass over a view (NewIteratorUpTo with the window's upper bound, clamped
// by the caller) so reads the data blocks from the one its seek lands in
// through the one that holds the bound, in runs of whole, adjacent blocks of
// at most IOChunk bytes (a single larger block is read alone); the footer,
// index and filter blocks are not read. Closing v closes f.
func (r *Reader) View(v *Reader, f vfs.File, stats *ReadStats) {
	r.checkOpen("View")
	*v = Reader{
		opts: ReaderOptions{
			Cmp:             r.opts.Cmp,
			FileNum:         r.opts.FileNum,
			VerifyChecksums: r.opts.VerifyChecksums,
			Stats:           stats,
		},
		cmp: r.cmp, f: f, size: r.size,
		index: r.index, indexBlock: r.indexBlock, filter: r.filter,
		aheadMin: IOChunk,
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
// can be in. The run is r.index[i:end], and n is its length on disk.
func (r *Reader) nextRun(i, budget int, upper []byte) (end, n int) {
	last := false
	for end = i; end < len(r.index) && !last; end++ {
		h := r.index[end].h
		size := int(h.length) + blockTrailerLen
		if end > i && (h.offset != r.index[i].h.offset+uint64(n) || n+size > budget) {
			break
		}
		n += size
		last = upper != nil && r.cmp(r.indexKey(end), upper) >= 0
	}
	return end, n
}

// readRun fills buf with the bytes at off. A short read is an error whatever
// the file says about it: decoding the part that arrived would end the input
// early, silently.
func (r *Reader) readRun(buf []byte, off uint64) error {
	if got, err := r.f.ReadAt(buf, int64(off)); got < len(buf) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("sstable %06d: read [%d,+%d): %w", r.opts.FileNum, off, len(buf), err)
	}
	return nil
}
