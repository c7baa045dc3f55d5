// Package ldc is the public API of the LDC key-value store: a complete
// LSM-tree storage engine (memtable + WAL + SSTables + leveled compaction,
// LevelDB-compatible semantics) implementing the Lower-level Driven
// Compaction method of Chai et al., "LDC: A Lower-Level Driven Compaction
// Method to Optimize SSD-Oriented Key-Value Stores" (ICDE 2019), alongside
// the traditional upper-level driven baseline.
//
// Quick start:
//
//	db, err := ldc.Open("/tmp/mydb", &ldc.Options{Policy: ldc.PolicyLDC})
//	if err != nil { ... }
//	defer db.Close()
//
//	db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
//	pairs, err := db.Scan([]byte("a"), 100)
//
// Choosing a policy:
//
//   - PolicyLDC (the paper's contribution) splits each compaction into a
//     metadata-only link phase and a lower-level-driven merge phase,
//     roughly halving compaction I/O and cutting write tail latency — the
//     right default on SSDs.
//   - PolicyUDC is the classic LevelDB behaviour, kept as the baseline.
//
// Scaling out on one machine:
//
// Options.Shards splits the store into N hash-partitioned engine
// instances behind the same DB — each shard has its own memtable, WAL,
// value log and compaction pipeline, so concurrent writers overlap each
// other's flush and compaction stalls instead of queuing behind one
// engine; the block cache is the one thing shards share. Point operations
// route by key hash; Scan and NewIterator merge all shards back into one
// sorted keyspace. One shard (the default) has the same on-disk layout as
// many: an LDC_SHARDS marker beside one shard-<i> directory per shard, each
// holding that shard's every file. See DESIGN.md ("Sharding") for the
// cross-shard batch-visibility caveat.
//
// Keys are ordered bytewise; there is no other key order. Iterators move
// forward only — Seek or SeekToFirst, then Next — because every range read
// the store serves, the paper's SCAN among them, walks keys ascending.
//
// Bounding tail latency:
//
// LDC cuts the tail by doing less compaction I/O, not by pacing it. The one
// throttle is on the foreground: write admission slows on a ramp over L0
// depth, LevelDB's one signal, rather than at a cliff, and once L0 reaches the
// slowdown trigger the picker runs the L0→L1 compaction ahead of lower-level
// merges. Stats reports full read/write latency percentile ladders beside
// the stall, slowdown and stop counters. See DESIGN.md ("Admission
// control").
//
// Separating large values:
//
// Options.BlobThreshold moves values at or above the threshold into a
// segmented append-only value log (WiscKey-style), leaving a 20-byte
// pointer in the tree — compaction rewrites pointers, not payloads. Log
// garbage collection is driven by compaction's own dead-byte accounting
// and relocates live records through the normal commit pipeline, guarded
// so concurrent overwrites always win. The default (0) disables
// separation and creates no value-log segment. See DESIGN.md ("Value
// separation").
//
// Durability and errors:
//
// With Options.Sync an acknowledged write is never lost. A write that
// returned an error is indeterminate until the next successful Open: it is
// not visible on the handle that failed, which refuses every later write
// with the same error, but after reopening its keys hold either that write
// (whole) or what preceded it. Reads never answer wrongly instead of
// failing: a value that cannot be read is an error from Get and Scan, and
// an iterator that meets one stops being Valid and reports it from Error.
// A Snapshot must stay unreleased while reads and iterators use it. See
// DESIGN.md ("Write path", "Liveness").
//
// For experiments, an SSD simulator with asymmetric read/write timing and
// per-category I/O accounting is available via NewSimulatedSSD.
package ldc

import (
	"repro/internal/batch"
	"repro/internal/compaction"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/ssdsim"
	"repro/internal/vfs"
)

// DB is the key-value store handle. All methods are safe for concurrent
// use. See core.DB for the full method set: Put, Get, Delete, Apply,
// Scan, NewIterator, NewSnapshot, Stats, CurrentProfile, Close, …
type DB = core.DB

// Options configures Open. The zero value gives a LevelDB-like store
// (UDC policy, 4 MiB memtable, 2 MiB tables, fan-out 10, 10-bit Bloom
// filters) on the operating-system filesystem.
type Options = core.Options

// Stats is a snapshot of store counters: I/O volumes by purpose,
// compaction/link/merge counts, stall time, and write amplification.
type Stats = core.Stats

// Profile describes the tree's current shape (files and bytes per level,
// LDC frozen-region size, current SliceLink threshold).
type Profile = core.Profile

// Snapshot pins a point-in-time view for reads and iterators.
type Snapshot = core.Snapshot

// Iterator walks user keys in ascending order, newest visible version of
// each, skipping deletions. It moves forward only: there is no Prev or
// SeekToLast, since no range read of the store walks backward.
type Iterator = core.Iterator

// KV is a key/value pair returned by Scan.
type KV = core.KV

// Batch collects Set/Delete operations for atomic application via
// DB.Apply.
type Batch = batch.Batch

// Policy selects the compaction algorithm.
type Policy = compaction.Policy

// Compaction policies.
const (
	// PolicyUDC is traditional upper-level driven compaction (LevelDB).
	PolicyUDC = compaction.UDC
	// PolicyLDC is the paper's lower-level driven compaction.
	PolicyLDC = compaction.LDC
)

// Compression selects the per-block codec for newly written tables
// (Options.Compression). Incompressible blocks are stored raw regardless,
// and a reopened store reads tables written with any codec.
type Compression = compress.Kind

// Block codecs.
const (
	// CompressionNone stores blocks raw (the default).
	CompressionNone = compress.None
	// CompressionLZ4 is a from-scratch LZ4-class codec.
	CompressionLZ4 = compress.LZ4
)

// Errors re-exported from the engine.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = core.ErrNotFound
	// ErrClosed reports use after Close.
	ErrClosed = core.ErrClosed
)

// FS abstracts the filesystem under the store.
type FS = vfs.FS

// Open opens (creating if necessary) a database in dir. A nil opts uses
// defaults.
func Open(dir string, opts *Options) (*DB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	return core.Open(dir, o)
}

// NewBatch returns an empty write batch.
func NewBatch() *Batch { return batch.New() }

// MemFS returns an in-memory filesystem, useful for tests and experiments.
func MemFS() FS { return vfs.Mem() }

// OSFS returns the real filesystem (the default).
func OSFS() FS { return vfs.OS() }

// SSD is the simulated flash device; its Snapshot method reports
// per-category I/O counters, total device busy time, and consumed erase
// cycles.
type SSD = ssdsim.Device

// SSDProfile describes simulated device timing.
type SSDProfile = ssdsim.Profile

// DefaultSSDProfile models an enterprise PCIe SSD with the ~10×
// read/write asymmetry the paper targets.
func DefaultSSDProfile() SSDProfile { return ssdsim.DefaultProfile() }

// NewSimulatedSSD wraps a filesystem with a simulated SSD so that all
// store I/O is timed and accounted. Pass the returned FS as Options.FS;
// the returned device exposes the counters.
func NewSimulatedSSD(inner FS, profile SSDProfile) (FS, *SSD) {
	dev := ssdsim.NewDevice(profile)
	return ssdsim.Wrap(inner, dev), dev
}
