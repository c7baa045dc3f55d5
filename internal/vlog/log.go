package vlog

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/invariants"
	"repro/internal/vfs"
)

// DefaultSegmentSize is the rotation threshold when Options.SegmentSize is
// zero: large enough that segment metadata stays negligible, small enough
// that one dead-heavy segment is a bounded GC unit.
const DefaultSegmentSize = 64 << 20

// Options configures a Log.
type Options struct {
	// SegmentSize is the rotation threshold for active segments.
	SegmentSize int64
	// ReadFS, when non-nil, is used for pointer-resolution read handles
	// (so a simulated device can charge them as user reads). Defaults to
	// the Open fs.
	ReadFS vfs.FS
	// ScanFS, when non-nil, is used for GC segment scans (charged as
	// compaction reads). Defaults to the Open fs.
	ScanFS vfs.FS
}

// Stats is a point-in-time summary of the log's own state, which the owning
// shard reports in its Stats. The resolves and GC work the store does
// through the log are counted by the store.
type Stats struct {
	Segments      int
	TotalBytes    int64 // valid extents of all segments
	DeadBytes     int64 // bytes of records known dropped or superseded
	AppendedBytes int64 // lifetime foreground + GC appends
}

// segment is a registry entry. size is the valid extent: everything below
// it parses and checksums; a torn physical tail past it is logically
// truncated. dead is advisory accounting, rebuilt lazily after restart as
// compactions re-discover dropped pointers and GC verifies liveness.
type segment struct {
	num   uint64
	shard int // names the file: VLOG-<shard>-<num>.vlog

	size atomic.Int64
	dead atomic.Int64

	active atomic.Bool // owned by a Writer; ineligible for GC

	mu invariants.Mutex
	rf vfs.File // shared lazy read handle for pointer resolution
}

// newSegment builds segment num owned by shard; both segment-creation
// sites (recovery and writer rotation) go through it so the mutex rank is
// declared exactly once.
func newSegment(num uint64, shard int) *segment {
	s := &segment{num: num, shard: shard}
	s.mu.Rank("vlog.segment.mu", 65)
	return s
}

// Log is one shard's value log: the segments in one directory.
type Log struct {
	fs      vfs.FS
	readFS  vfs.FS
	scanFS  vfs.FS
	dir     string
	segSize int64

	mu      invariants.Mutex
	segs    map[uint64]*segment
	nextSeg uint64

	appended atomic.Int64

	readers sync.Pool
}

// SegmentFileName returns the file name of segment num owned by shard.
func SegmentFileName(shard int, num uint64) string {
	return fmt.Sprintf("VLOG-%d-%06d.vlog", shard, num)
}

// ParseSegmentFileName parses a name produced by SegmentFileName.
func ParseSegmentFileName(name string) (shard int, num uint64, ok bool) {
	rest, found := strings.CutPrefix(name, "VLOG-")
	if !found {
		return 0, 0, false
	}
	rest, found = strings.CutSuffix(rest, ".vlog")
	if !found {
		return 0, 0, false
	}
	shardStr, numStr, found := strings.Cut(rest, "-")
	if !found {
		return 0, 0, false
	}
	s, err := strconv.Atoi(shardStr)
	if err != nil || s < 0 {
		return 0, 0, false
	}
	n, err := strconv.ParseUint(numStr, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return s, n, true
}

// Open opens (creating if needed) the value log rooted at dir. Existing
// segments are scanned from the front; each is registered sealed with its
// valid extent ending at the last record that parses and checksums, so a
// torn final record is logically truncated. Writers never append to a
// recovered segment.
func Open(fs vfs.FS, dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("vlog: mkdir %s: %w", dir, err)
	}
	l := &Log{
		fs:      fs,
		readFS:  opts.ReadFS,
		scanFS:  opts.ScanFS,
		dir:     dir,
		segSize: opts.SegmentSize,
		segs:    map[uint64]*segment{},
		nextSeg: 1,
	}
	l.mu.Rank("vlog.log.mu", 60)
	if l.readFS == nil {
		l.readFS = fs
	}
	if l.scanFS == nil {
		l.scanFS = fs
	}
	l.readers.New = func() interface{} { return &Reader{log: l} }

	names, err := fs.List(dir)
	if err != nil {
		return nil, fmt.Errorf("vlog: list %s: %w", dir, err)
	}
	for _, name := range names {
		shard, num, ok := ParseSegmentFileName(name)
		if !ok {
			continue
		}
		valid, err := l.scanValidExtent(name)
		if err != nil {
			return nil, fmt.Errorf("vlog: recover %s: %w", name, err)
		}
		seg := newSegment(num, shard)
		seg.size.Store(valid)
		l.segs[num] = seg
		if num >= l.nextSeg {
			l.nextSeg = num + 1
		}
	}
	return l, nil
}

// scanValidExtent walks records from the front of the named segment and
// returns the offset past the last record that parses and checksums.
func (l *Log) scanValidExtent(name string) (int64, error) {
	f, err := l.fs.Open(l.dir + "/" + name)
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }()
	size, err := f.Size()
	if err != nil {
		return 0, err
	}
	if size == 0 {
		return 0, nil
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return 0, err
	}
	var off int64
	for off < size {
		_, _, n, err := DecodeRecord(buf[off:])
		if err != nil {
			break // torn or corrupt tail: logical truncation point
		}
		off += int64(n)
	}
	return off, nil
}

// lookup returns the registered segment, or nil.
func (l *Log) lookup(num uint64) *segment {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[num]
}

// Valid reports whether p points inside the valid extent of a registered
// segment. Recovery uses it to detect pointers whose value never became
// durable (the WAL-ahead-of-vlog torn-tail case).
func (l *Log) Valid(p Pointer) bool {
	seg := l.lookup(p.Segment)
	if seg == nil || p.Length < recordHeaderLen {
		return false
	}
	return int64(p.Offset)+int64(p.Length) <= seg.size.Load()
}

// MarkDead adds n record bytes of dead weight to segment num. Compactions
// call it when they drop a pointer entry; GC calls it for orphans and
// guard-failed rewrites. Unknown segments are ignored (already deleted).
func (l *Log) MarkDead(num uint64, n int64) {
	if seg := l.lookup(num); seg != nil {
		seg.dead.Add(n)
	}
}

// segmentInfo is a GC-facing snapshot of one segment.
type segmentInfo struct {
	Num  uint64
	Size int64
	Dead int64
}

// Candidates returns sealed segments whose dead fraction is at or above
// threshold, worst first. Active segments are never candidates.
func (l *Log) Candidates(threshold float64) []uint64 {
	infos := l.sealed()
	var out []segmentInfo
	for _, si := range infos {
		if si.Size > 0 && float64(si.Dead)/float64(si.Size) >= threshold {
			out = append(out, si)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return float64(out[i].Dead)*float64(out[j].Size) > float64(out[j].Dead)*float64(out[i].Size)
	})
	nums := make([]uint64, len(out))
	for i, si := range out {
		nums[i] = si.Num
	}
	return nums
}

// SealedSegments returns every sealed segment number (forced-GC sweeps).
func (l *Log) SealedSegments() []uint64 {
	infos := l.sealed()
	nums := make([]uint64, len(infos))
	for i, si := range infos {
		nums[i] = si.Num
	}
	return nums
}

func (l *Log) sealed() []segmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []segmentInfo
	for _, seg := range l.segs {
		if seg.active.Load() {
			continue
		}
		out = append(out, segmentInfo{seg.num, seg.size.Load(), seg.dead.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Num < out[j].Num })
	return out
}

// DeleteSegment removes segment num from the registry and the filesystem.
// The caller must first have made the segment unreachable: every pointer
// into it superseded, the rewrites flushed, and every reader that could
// still hold one drained (DESIGN.md "Liveness"). A pointer resolved
// afterwards is dangling and reads as ErrSegmentGone.
func (l *Log) DeleteSegment(num uint64) error {
	l.mu.Lock()
	seg := l.segs[num]
	delete(l.segs, num)
	l.mu.Unlock()
	if seg == nil {
		return nil
	}
	seg.mu.Lock()
	if seg.rf != nil {
		//ldclint:ignore mutexio closing the read handle of an unregistered segment; no reader can be queued behind this lock
		_ = seg.rf.Close()
		seg.rf = nil
	}
	seg.mu.Unlock()
	return l.fs.Remove(l.dir + "/" + SegmentFileName(seg.shard, seg.num))
}

// Stats returns a consistent-enough snapshot for reporting.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	var total, dead int64
	n := len(l.segs)
	for _, seg := range l.segs {
		total += seg.size.Load()
		dead += seg.dead.Load()
	}
	l.mu.Unlock()
	return Stats{Segments: n, TotalBytes: total, DeadBytes: dead, AppendedBytes: l.appended.Load()}
}

// Close closes every cached read handle. The Writer is closed first, by
// the shard that owns the Log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for _, seg := range l.segs {
		seg.mu.Lock()
		if seg.rf != nil {
			//ldclint:ignore mutexio teardown path; nothing contends these locks after Close begins
			if err := seg.rf.Close(); err != nil && first == nil {
				first = err
			}
			seg.rf = nil
		}
		seg.mu.Unlock()
	}
	return first
}

// readHandle returns the segment's shared lazy read handle. A registered
// segment whose file is missing is as gone as an unregistered one.
func (l *Log) readHandle(seg *segment) (vfs.File, error) {
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if seg.rf == nil {
		//ldclint:ignore mutexio one-time lazy open; per-segment lock so only first readers of a segment contend
		f, err := l.readFS.Open(l.dir + "/" + SegmentFileName(seg.shard, seg.num))
		if errors.Is(err, vfs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %v", ErrSegmentGone, err)
		}
		if err != nil {
			return nil, err
		}
		seg.rf = f
	}
	return seg.rf, nil
}
