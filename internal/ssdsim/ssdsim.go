// Package ssdsim simulates a flash-based SSD beneath the store.
//
// The paper evaluates on an enterprise PCIe SSD (Memblaze Q520) that is not
// available here; this package is the substitution documented in DESIGN.md.
// It reproduces the two device properties the paper's analysis depends on:
//
//  1. Asymmetric read/write performance — writes are roughly an order of
//     magnitude slower than reads (paper §I), which is what makes trading
//     read amplification for write reduction profitable (paper eq. (2)).
//  2. Write endurance — flash cells survive a bounded number of program/
//     erase cycles (paper §I), so total write volume matters; the simulator
//     accounts erase-block wear so the "LDC halves compaction writes ⇒
//     extends SSD lifetime" claim (paper §IV-D) is measurable.
//
// Mechanically, a Device wraps a vfs.FS; every read and write reserves the
// device's shared busy-line for a duration computed from a Profile, so
// concurrent callers queue behind each other (background compaction
// contends with foreground requests, as on a real device), and increments
// per-category byte/op counters. Latency can be scaled uniformly
// (Profile.Scale) while preserving the read/write ratio — the quantity the
// paper's shapes depend on; Scale 0 keeps the accounting but injects no
// latency.
package ssdsim

import (
	"sync/atomic"
	"time"

	"repro/internal/invariants"
	"repro/internal/vfs"
)

// Category tags I/O by purpose, mirroring the breakdown the paper reports
// (compaction reads/writes in Fig 10(c), flush writes, user reads).
type Category int

// I/O accounting categories.
const (
	CatOther Category = iota
	CatUserRead
	CatWAL
	CatFlush
	CatCompactionRead
	CatCompactionWrite
	numCategories
)

// String names the category for reports.
func (c Category) String() string {
	switch c {
	case CatUserRead:
		return "user-read"
	case CatWAL:
		return "wal"
	case CatFlush:
		return "flush"
	case CatCompactionRead:
		return "compaction-read"
	case CatCompactionWrite:
		return "compaction-write"
	default:
		return "other"
	}
}

// Profile describes device timing. Latency of an operation of n bytes is
// PerOp + n*PerByte, multiplied by Scale.
type Profile struct {
	ReadPerOp    time.Duration // fixed cost of a read request
	ReadPerByte  time.Duration // per-byte read cost (inverse bandwidth)
	WritePerOp   time.Duration // fixed cost of a write request
	WritePerByte time.Duration // per-byte write cost (inverse bandwidth)
	// EraseBlockBytes sizes the flash erase block for wear accounting.
	EraseBlockBytes int64
	// Scale multiplies every latency; 0 disables latency injection entirely
	// (accounting still runs). 1.0 is full speed realism.
	Scale float64
}

// DefaultProfile models an enterprise PCIe SSD with ~1.2 GB/s reads and
// ~120 MB/s sustained random writes — the ~10× read/write asymmetry the
// paper's motivation describes. Scale 1.0 applies it in full; experiments
// that only need accounting set Scale to 0.
func DefaultProfile() Profile {
	return Profile{
		ReadPerOp:       20 * time.Microsecond,
		ReadPerByte:     time.Second / (1200 << 20), // ~1.2 GB/s
		WritePerOp:      50 * time.Microsecond,
		WritePerByte:    time.Second / (120 << 20), // ~120 MB/s
		EraseBlockBytes: 2 << 20,
		Scale:           1.0,
	}
}

// CatStats is the per-category I/O tally.
type CatStats struct {
	ReadOps, ReadBytes   int64
	WriteOps, WriteBytes int64
}

// Stats is a snapshot of device counters.
type Stats struct {
	ByCategory [numCategories]CatStats
	// BusyTime is the total simulated device time charged (unscaled).
	BusyTime time.Duration
	// EraseCycles estimates consumed program/erase cycles:
	// total bytes written / erase block size.
	EraseCycles int64
}

// Totals sums all categories.
func (s Stats) Totals() CatStats {
	var t CatStats
	for _, c := range s.ByCategory {
		t.ReadOps += c.ReadOps
		t.ReadBytes += c.ReadBytes
		t.WriteOps += c.WriteOps
		t.WriteBytes += c.WriteBytes
	}
	return t
}

// FlushWrite reports the bytes flushes wrote.
func (s Stats) FlushWrite() int64 { return s.ByCategory[CatFlush].WriteBytes }

// Device simulates one SSD as a shared, bandwidth-limited resource: every
// operation reserves the device's virtual busy-line for its scaled
// duration, so concurrent callers queue behind each other. This contention
// is what lets background compaction I/O slow foreground requests — the
// mechanism behind the paper's throughput and tail-latency results (its
// eq. (3) models the same shared bandwidth).
type Device struct {
	prof Profile

	mu   invariants.Mutex
	cats [numCategories]CatStats

	busyNanos  atomic.Int64
	writeBytes atomic.Int64

	// busyUntil is the virtual time (ns, monotonic epoch of start) through
	// which the device is reserved.
	busyUntil atomic.Int64
	start     time.Time
}

// NewDevice returns a device with the given profile.
func NewDevice(p Profile) *Device {
	if p.EraseBlockBytes == 0 {
		p.EraseBlockBytes = 2 << 20
	}
	d := &Device{prof: p, start: time.Now()}
	d.mu.Rank("ssdsim.device.mu", 85)
	return d
}

// minSleep is the smallest backlog worth sleeping for; smaller reservations
// still advance the busy-line (self-correcting virtual time) but return
// immediately, staying above the OS timer resolution.
const minSleep = time.Millisecond

func (d *Device) charge(lat time.Duration) {
	d.busyNanos.Add(int64(lat))
	if d.prof.Scale <= 0 {
		return
	}
	scaled := int64(float64(lat) * d.prof.Scale)
	for {
		now := int64(time.Since(d.start))
		cur := d.busyUntil.Load()
		begin := now
		if cur > begin {
			begin = cur
		}
		end := begin + scaled
		if !d.busyUntil.CompareAndSwap(cur, end) {
			continue
		}
		if wait := time.Duration(end - now); wait >= minSleep {
			time.Sleep(wait)
		}
		return
	}
}

// Read charges a read of n bytes under category cat.
func (d *Device) Read(cat Category, n int) {
	d.mu.Lock()
	d.cats[cat].ReadOps++
	d.cats[cat].ReadBytes += int64(n)
	d.mu.Unlock()
	d.charge(d.prof.ReadPerOp + time.Duration(n)*d.prof.ReadPerByte)
}

// Write charges a write of n bytes under category cat.
func (d *Device) Write(cat Category, n int) {
	d.mu.Lock()
	d.cats[cat].WriteOps++
	d.cats[cat].WriteBytes += int64(n)
	d.mu.Unlock()
	d.writeBytes.Add(int64(n))
	d.charge(d.prof.WritePerOp + time.Duration(n)*d.prof.WritePerByte)
}

// Snapshot returns current counters.
func (d *Device) Snapshot() Stats {
	d.mu.Lock()
	cats := d.cats
	d.mu.Unlock()
	return Stats{
		ByCategory:  cats,
		BusyTime:    time.Duration(d.busyNanos.Load()),
		EraseCycles: d.writeBytes.Load() / d.prof.EraseBlockBytes,
	}
}

// Reset zeroes all counters (between experiment phases).
func (d *Device) Reset() {
	d.mu.Lock()
	d.cats = [numCategories]CatStats{}
	d.mu.Unlock()
	d.busyNanos.Store(0)
	d.writeBytes.Store(0)
}

// ---------------------------------------------------------------------------
// Filesystem wrapper

// FS wraps an inner filesystem so that all file I/O through it is charged to
// the device under a fixed category. Use WithCategory to derive views for
// other categories sharing the same device and inner FS.
type FS struct {
	inner vfs.FS
	dev   *Device
	cat   Category
}

// Wrap layers a device over inner with the default category.
func Wrap(inner vfs.FS, dev *Device) *FS {
	return &FS{inner: inner, dev: dev, cat: CatOther}
}

// WithCategory derives a view charging I/O to cat.
func (s *FS) WithCategory(cat Category) *FS {
	return &FS{inner: s.inner, dev: s.dev, cat: cat}
}

// Inner returns the wrapped filesystem.
func (s *FS) Inner() vfs.FS { return s.inner }

// Create implements vfs.FS.
func (s *FS) Create(name string) (vfs.File, error) {
	f, err := s.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &simFile{f: f, dev: s.dev, cat: s.cat}, nil
}

// Open implements vfs.FS.
func (s *FS) Open(name string) (vfs.File, error) {
	f, err := s.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &simFile{f: f, dev: s.dev, cat: s.cat}, nil
}

// Remove implements vfs.FS.
func (s *FS) Remove(name string) error { return s.inner.Remove(name) }

// Rename implements vfs.FS.
func (s *FS) Rename(o, n string) error { return s.inner.Rename(o, n) }

// Exists implements vfs.FS.
func (s *FS) Exists(name string) bool { return s.inner.Exists(name) }

// List implements vfs.FS.
func (s *FS) List(dir string) ([]string, error) { return s.inner.List(dir) }

// MkdirAll implements vfs.FS.
func (s *FS) MkdirAll(dir string) error { return s.inner.MkdirAll(dir) }

type simFile struct {
	f   vfs.File
	dev *Device
	cat Category
}

func (f *simFile) Write(p []byte) (int, error) {
	n, err := f.f.Write(p)
	if n > 0 {
		f.dev.Write(f.cat, n)
	}
	return n, err
}

func (f *simFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(p, off)
	if n > 0 {
		f.dev.Read(f.cat, n)
	}
	return n, err
}

func (f *simFile) Close() error         { return f.f.Close() }
func (f *simFile) Sync() error          { return f.f.Sync() }
func (f *simFile) Size() (int64, error) { return f.f.Size() }
