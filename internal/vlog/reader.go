package vlog

import (
	"fmt"
)

// Reader resolves pointers to values. Readers are pooled: GetReader must
// be paired with Release, and the slices returned by Read are valid only
// until the next Read or Release.
type Reader struct {
	log *Log
	buf []byte
}

// GetReader returns a pooled reader.
func (l *Log) GetReader() *Reader {
	return l.readers.Get().(*Reader)
}

// Release returns r to the pool.
func (r *Reader) Release() {
	if r.log != nil {
		r.log.readers.Put(r)
	}
}

// Read resolves p. The returned key and value alias the reader's internal
// buffer. A pointer whose segment does not exist — not registered, or its
// file missing — returns ErrSegmentGone; a pointer that fails bounds or
// checksum validation returns ErrCorrupt. Neither is retryable: the engine
// unlinks a segment only after every reader that could hold a pointer into
// it has drained, so both mean the tree references bytes the log lost.
func (r *Reader) Read(p Pointer) (key, value []byte, err error) {
	seg := r.log.lookup(p.Segment)
	if seg == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrSegmentGone, p)
	}
	if p.Length < recordHeaderLen || int64(p.Offset)+int64(p.Length) > seg.size.Load() {
		return nil, nil, fmt.Errorf("%w: %s out of bounds", ErrCorrupt, p)
	}
	f, err := r.log.readHandle(seg)
	if err != nil {
		return nil, nil, fmt.Errorf("vlog: open segment %d: %w", p.Segment, err)
	}
	if cap(r.buf) < int(p.Length) {
		r.buf = make([]byte, p.Length)
	}
	r.buf = r.buf[:p.Length]
	if _, err := f.ReadAt(r.buf, int64(p.Offset)); err != nil {
		return nil, nil, fmt.Errorf("vlog: read %s: %w", p, err)
	}
	key, value, n, err := DecodeRecord(r.buf)
	if err != nil {
		return nil, nil, err
	}
	if n != int(p.Length) {
		return nil, nil, fmt.Errorf("%w: %s length mismatch (record %d)", ErrCorrupt, p, n)
	}
	return key, value, nil
}
