// Package tracefs is the benchmark's measuring filesystem: a vfs.FS wrapper
// that classifies every file by role (wal, sst, manifest, vlog, other),
// counts and optionally spans every call, and can charge a fixed cost to
// each Sync of a log file.
//
// It must sit BELOW the SSD simulator — ssdsim.Wrap(tracefs.New(vfs.Mem()),
// dev) — because the engine type-asserts Options.FS to *ssdsim.FS to tag its
// I/O categories; wrapped the other way round, every device category but
// "other" would read zero.
package tracefs

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/bench/span"
	"repro/internal/vfs"
)

// Class is a file's role in the engine.
type Class int

// File classes, by name.
const (
	WAL Class = iota
	SST
	Manifest
	Vlog
	Other
	NumClasses
)

// String names the class as it appears in metric and span names.
func (c Class) String() string {
	return [...]string{"wal", "sst", "manifest", "vlog", "other"}[c]
}

// Classify maps a file name to its class. MANIFEST-*, CURRENT and the
// CURRENT-swap temp files are all manifest traffic.
func Classify(name string) Class {
	base := filepath.Base(name)
	switch {
	case strings.HasSuffix(base, ".log"):
		return WAL
	case strings.HasSuffix(base, ".sst"):
		return SST
	case strings.HasSuffix(base, ".vlog"):
		return Vlog
	case strings.HasPrefix(base, "MANIFEST-"), base == "CURRENT", strings.HasSuffix(base, ".tmp"):
		return Manifest
	}
	return Other
}

// ClassCounters is one class's tally.
type ClassCounters struct {
	Creates, Removes     int64
	WriteOps, WriteBytes int64
	ReadOps, ReadBytes   int64
	Syncs, SyncNanos     int64
}

// Counters is a snapshot of every class's tally.
type Counters [NumClasses]ClassCounters

// Sub returns c - base, field by field.
func (c Counters) Sub(base Counters) Counters {
	var d Counters
	for i := range c {
		d[i] = ClassCounters{
			Creates: c[i].Creates - base[i].Creates, Removes: c[i].Removes - base[i].Removes,
			WriteOps: c[i].WriteOps - base[i].WriteOps, WriteBytes: c[i].WriteBytes - base[i].WriteBytes,
			ReadOps: c[i].ReadOps - base[i].ReadOps, ReadBytes: c[i].ReadBytes - base[i].ReadBytes,
			Syncs: c[i].Syncs - base[i].Syncs, SyncNanos: c[i].SyncNanos - base[i].SyncNanos,
		}
	}
	return d
}

type classCounters struct {
	creates, removes     atomic.Int64
	writeOps, writeBytes atomic.Int64
	readOps, readBytes   atomic.Int64
	syncs, syncNanos     atomic.Int64
}

// FS wraps an inner filesystem. The zero sync cost and nil recorder make it
// a pure counter.
type FS struct {
	inner vfs.FS
	cnt   [NumClasses]classCounters

	// syncCost is the fixed time charged to every Sync of a wal or vlog
	// file, in nanoseconds; 0 charges nothing.
	syncCost atomic.Int64

	// Span recording. Writes and reads are high-volume, so only every
	// sample-th call of each is spanned; creates, syncs and removes always
	// are. parent is the span (a phase) that FS spans hang under.
	rec     *span.Recorder
	sample  int64
	parent  atomic.Uint32
	nthCall atomic.Int64
}

// New wraps inner.
func New(inner vfs.FS) *FS { return &FS{inner: inner, sample: 1} }

// Inner returns the wrapped filesystem (vfs.Unwrapper), so vfs.TotalBytes
// sees through to the in-memory store.
func (fs *FS) Inner() vfs.FS { return fs.inner }

// SetSyncCost sets the fixed cost charged to every Sync of a wal or vlog
// file from now on.
func (fs *FS) SetSyncCost(d time.Duration) { fs.syncCost.Store(int64(d)) }

// Trace turns span recording on: call before the filesystem is shared.
// sampleEvery ≥ 1 thins Write and ReadAt spans.
func (fs *FS) Trace(rec *span.Recorder, sampleEvery int) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	fs.rec, fs.sample = rec, int64(sampleEvery)
}

// SetParent names the span that subsequent FS spans are children of.
func (fs *FS) SetParent(id span.ID) { fs.parent.Store(uint32(id)) }

// Snapshot returns the current tallies.
func (fs *FS) Snapshot() Counters {
	var c Counters
	for i := range fs.cnt {
		k := &fs.cnt[i]
		c[i] = ClassCounters{
			Creates: k.creates.Load(), Removes: k.removes.Load(),
			WriteOps: k.writeOps.Load(), WriteBytes: k.writeBytes.Load(),
			ReadOps: k.readOps.Load(), ReadBytes: k.readBytes.Load(),
			Syncs: k.syncs.Load(), SyncNanos: k.syncNanos.Load(),
		}
	}
	return c
}

func (fs *FS) span(call string, c Class, start int64) {
	fs.rec.Add("vfs."+c.String()+"."+call, span.ID(fs.parent.Load()), 0, start, fs.rec.Now())
}

// sampled reports whether this high-volume call gets a span.
func (fs *FS) sampled() bool {
	return fs.rec != nil && fs.nthCall.Add(1)%fs.sample == 0
}

// Create implements vfs.FS.
func (fs *FS) Create(name string) (vfs.File, error) {
	c := Classify(name)
	start := fs.rec.Now()
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	fs.cnt[c].creates.Add(1)
	if fs.rec != nil {
		fs.span("create", c, start)
	}
	return &file{f: f, fs: fs, class: c}, nil
}

// Open implements vfs.FS.
func (fs *FS) Open(name string) (vfs.File, error) {
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{f: f, fs: fs, class: Classify(name)}, nil
}

// Remove implements vfs.FS.
func (fs *FS) Remove(name string) error {
	c := Classify(name)
	start := fs.rec.Now()
	if err := fs.inner.Remove(name); err != nil {
		return err
	}
	fs.cnt[c].removes.Add(1)
	if fs.rec != nil {
		fs.span("remove", c, start)
	}
	return nil
}

// Rename implements vfs.FS.
func (fs *FS) Rename(o, n string) error { return fs.inner.Rename(o, n) }

// Exists implements vfs.FS.
func (fs *FS) Exists(name string) bool { return fs.inner.Exists(name) }

// List implements vfs.FS.
func (fs *FS) List(dir string) ([]string, error) { return fs.inner.List(dir) }

// MkdirAll implements vfs.FS.
func (fs *FS) MkdirAll(dir string) error { return fs.inner.MkdirAll(dir) }

type file struct {
	f     vfs.File
	fs    *FS
	class Class
}

func (f *file) Write(p []byte) (int, error) {
	spanned := f.fs.sampled()
	var start int64
	if spanned {
		start = f.fs.rec.Now()
	}
	n, err := f.f.Write(p)
	k := &f.fs.cnt[f.class]
	k.writeOps.Add(1)
	k.writeBytes.Add(int64(n))
	if spanned {
		f.fs.span("write", f.class, start)
	}
	return n, err
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	spanned := f.fs.sampled()
	var start int64
	if spanned {
		start = f.fs.rec.Now()
	}
	n, err := f.f.ReadAt(p, off)
	k := &f.fs.cnt[f.class]
	k.readOps.Add(1)
	k.readBytes.Add(int64(n))
	if spanned {
		f.fs.span("read", f.class, start)
	}
	return n, err
}

func (f *file) Sync() error {
	t0 := time.Now()
	start := f.fs.rec.At(t0)
	err := f.f.Sync()
	if cost := f.fs.syncCost.Load(); cost > 0 && (f.class == WAL || f.class == Vlog) {
		time.Sleep(time.Duration(cost))
	}
	k := &f.fs.cnt[f.class]
	k.syncs.Add(1)
	k.syncNanos.Add(int64(time.Since(t0)))
	if f.fs.rec != nil {
		f.fs.span("sync", f.class, start)
	}
	return err
}

func (f *file) Close() error         { return f.f.Close() }
func (f *file) Size() (int64, error) { return f.f.Size() }
