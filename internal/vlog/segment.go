package vlog

import (
	"fmt"

	"repro/internal/vfs"
)

// Segment is an independent read handle over one sealed segment, used by
// the GC worker to scan records front to back. It holds its own file
// handle (not the pooled resolution handle) so a long scan never contends
// with foreground reads; Close releases it.
type Segment struct {
	num  uint64
	size int64
	f    vfs.File
}

// OpenSegment opens a scan handle over sealed segment num. The valid
// extent is snapshotted at open; records appended later (impossible for
// sealed segments) are not visited.
func (l *Log) OpenSegment(num uint64) (*Segment, error) {
	seg := l.lookup(num)
	if seg == nil {
		return nil, fmt.Errorf("%w: segment %d", ErrSegmentGone, num)
	}
	f, err := l.scanFS.Open(l.dir + "/" + SegmentFileName(seg.shard, seg.num))
	if err != nil {
		return nil, fmt.Errorf("vlog: open segment %d: %w", num, err)
	}
	return &Segment{num: num, size: seg.size.Load(), f: f}, nil
}

// Size reports the segment's valid extent at open time.
func (s *Segment) Size() int64 { return s.size }

// Scan invokes fn for every record in the valid extent, in file order.
// key and value alias a scan buffer reused across calls. Returning an
// error from fn stops the scan and propagates the error.
func (s *Segment) Scan(fn func(ptr Pointer, key, value []byte) error) error {
	if s.size == 0 {
		return nil
	}
	buf := make([]byte, s.size)
	if _, err := s.f.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("vlog: scan segment %d: %w", s.num, err)
	}
	var off int64
	for off < s.size {
		key, value, n, err := DecodeRecord(buf[off:])
		if err != nil {
			return fmt.Errorf("vlog: scan segment %d at %d: %w", s.num, off, err)
		}
		ptr := Pointer{Segment: s.num, Offset: uint64(off), Length: uint32(n)}
		if err := fn(ptr, key, value); err != nil {
			return err
		}
		off += int64(n)
	}
	return nil
}

// Close releases the scan handle.
func (s *Segment) Close() error {
	return s.f.Close()
}
