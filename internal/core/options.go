// Package core implements the LSM-tree key-value store itself — the
// equivalent of LevelDB's db layer, built on the repository's substrates
// (memtable, sstable, wal, version, compaction) — with the paper's
// Lower-level Driven Compaction available as a policy beside the
// traditional upper-level driven baseline.
package core

import (
	"repro/internal/cache"
	"repro/internal/compaction"
	"repro/internal/compress"
	"repro/internal/vfs"
	"repro/internal/vlog"
)

// Options configures a DB. The zero value is usable: every field defaults
// to the LevelDB-like settings the paper's baseline uses.
type Options struct {
	// FS is the filesystem (possibly an ssdsim.FS). Defaults to vfs.OS().
	FS vfs.FS
	// Policy selects the compaction algorithm (UDC or LDC).
	Policy compaction.Policy

	// Shards hash-partitions the store into this many independent engines —
	// each with its own directory, memtable, WAL, value log, group-commit
	// pipeline, read state, table readers, stall controller, flush worker
	// and compaction worker — behind one DB facade, sharing only the block
	// cache. 0 means one shard on creation and the recorded count on reopen;
	// one shard has the same on-disk layout as many. Counts are rounded up
	// to the next power of two (mirroring the block cache's shard clamping)
	// so key routing is a mask, and clamped to MaxShards. The count is fixed
	// at creation and recorded on disk (LDC_SHARDS); reopening with a
	// conflicting explicit value fails.
	Shards int

	// MemTableSize triggers a flush when the memtable reaches it (default 4 MiB).
	MemTableSize int64
	// SSTableSize is the paper's b: target table file size (default 2 MiB).
	SSTableSize int64
	// Fanout is the paper's k: capacity ratio between levels (default 10).
	Fanout int
	// SliceLinkThreshold is the paper's T_s (default Fanout). Ignored unless
	// Policy == LDC.
	SliceLinkThreshold int

	// BlockSize is the SSTable data block size (default 4 KiB).
	BlockSize int
	// Compression selects the per-block codec for newly written tables:
	// compress.None (default) or compress.LZ4 (the from-scratch LZ4-class
	// codec). The choice applies to flushes and every compaction rewrite, so
	// changing it on reopen progressively recompresses the tree; individual
	// incompressible blocks are stored raw regardless, and tables written
	// with either codec always read back. Every block is checksummed with
	// CRC32C.
	Compression compress.Kind
	// BloomBitsPerKey sizes table filters; 0 uses the default (10);
	// negative disables filters.
	BloomBitsPerKey int
	// BlockCacheSize bounds the shared data-block cache (default 8 MiB). The
	// cache is striped into cache.DefaultShards() locks, fewer when that
	// would leave a stripe under 4×BlockSize (cache.ClampShards).
	BlockCacheSize int64

	// BlobThreshold enables value separation: values at or above this many
	// bytes are appended to the shard's value log (internal/vlog) inside
	// the group-commit leader's critical section, and the LSM stores a
	// 20-byte pointer entry instead — so flushes and compactions move
	// pointers, not kilobytes. 0 (default) disables separation; existing
	// vlog segments still resolve, so the knob is reopen-safe in both
	// directions. Must not exceed SSTableSize.
	BlobThreshold int64
	// BlobSegmentSize is the value-log rotation threshold (default
	// 64 MiB). Small values make GC units finer at the cost of more files.
	BlobSegmentSize int64

	// Sync makes every committed write fsync the WAL (default false, like
	// LevelDB: the OS buffers).
	Sync bool
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = vfs.OS()
	}
	o.Shards = normalizeShards(o.Shards)
	if o.MemTableSize <= 0 {
		o.MemTableSize = 4 << 20
	}
	if o.SSTableSize <= 0 {
		o.SSTableSize = 2 << 20
	}
	if o.Fanout <= 1 {
		o.Fanout = 10
	}
	if o.SliceLinkThreshold <= 0 {
		o.SliceLinkThreshold = o.Fanout
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 4 << 10
	}
	if o.BloomBitsPerKey == 0 {
		o.BloomBitsPerKey = 10
	}
	if o.BloomBitsPerKey < 0 {
		o.BloomBitsPerKey = 0 // disabled
	}
	if o.BlockCacheSize <= 0 {
		o.BlockCacheSize = 8 << 20
	}
	if o.BlobSegmentSize <= 0 {
		o.BlobSegmentSize = vlog.DefaultSegmentSize
	}
	return o
}

// MaxShards caps Options.Shards. Past this point per-shard memtables and
// WAL segments stop buying concurrency and start costing memory and file
// handles; a process wanting more partitions should run more processes.
const MaxShards = 256

// normalizeShards maps the user's requested shard count to the effective
// one: 0 and 1 mean one shard, other counts round up to the next power of
// two — mirroring cache.ClampShards' power-of-two discipline — and clamp to
// MaxShards. Negative counts are rejected by Validate before this runs.
func normalizeShards(n int) int {
	if n <= 1 {
		return 1
	}
	if n > MaxShards {
		n = MaxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (o Options) compactionParams() compaction.Params {
	return compaction.Params{
		Fanout:         o.Fanout,
		SSTableSize:    o.SSTableSize,
		SliceThreshold: o.SliceLinkThreshold,
	}
}

func (o Options) newBlockCache() *cache.Cache {
	// Capacity splits evenly across shards, so clamp the count to keep each
	// shard's slice well above the block size — otherwise a small cache with
	// many shards silently caches nothing.
	n := cache.ClampShards(cache.DefaultShards(), o.BlockCacheSize, int64(o.BlockSize))
	return cache.NewSharded(o.BlockCacheSize, n)
}
