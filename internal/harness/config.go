// Package harness regenerates every table and figure of the paper's
// evaluation (§IV) on this repository's store and SSD simulator. Each
// RunXxx function performs the experiment and returns printable rows; the
// ldcbench command and the repository benchmarks are thin wrappers.
//
// Absolute numbers differ from the paper (the substrate is a simulator and
// the workloads are scaled down), but each experiment's *shape* — who wins,
// by roughly what factor, where the knees are — is the reproduction target;
// see EXPERIMENTS.md for paper-vs-measured.
package harness

import (
	"repro/internal/checksum"
	"repro/internal/compress"
	"repro/internal/ssdsim"
)

// Config scales an experiment. The paper runs 10–30 M requests over an
// 800 GB SSD; the defaults here shrink the tree proportionally (smaller
// memtable/SSTables, fewer requests) so the tree still reaches the same
// heights and compaction dynamics on a laptop-scale run.
type Config struct {
	// Ops is the measured request count per run.
	Ops int64
	// KeySpace is the number of distinct keys.
	KeySpace int64
	// ValueSize is the value payload (paper: 1 KiB).
	ValueSize int

	// MemTableSize and SSTableSize shape the tree (paper: 2 MiB tables).
	MemTableSize int64
	SSTableSize  int64
	// Fanout is the paper's k (default 10).
	Fanout int
	// SliceThreshold is the paper's T_s (default = Fanout).
	SliceThreshold int
	// BloomBitsPerKey sizes table filters (paper default: 10).
	BloomBitsPerKey int
	// BlockCacheSize bounds the block cache.
	BlockCacheSize int64

	// Clients is the number of concurrent workload clients. The default is
	// 1: on a single-core host, extra client goroutines add scheduler
	// jitter that swamps the policies' differences.
	Clients int
	// MaxWriteGroupBytes caps the commit pipeline's write groups; 0 uses the
	// store default (1 MiB). Only matters with Clients > 1.
	MaxWriteGroupBytes int
	// Shards is the number of hash-partitioned engine instances behind the
	// DB facade (0 or 1 = the single classic engine, matching the paper's
	// setup). Non-powers-of-two round up; only matters with Clients > 1,
	// where shards overlap each other's flush/compaction stalls.
	Shards int
	// Seed fixes the workload randomness.
	Seed int64

	// Device is the simulated SSD profile.
	Device ssdsim.Profile

	// Compression selects the per-block codec for written tables
	// (default raw, matching the paper's format).
	Compression compress.Kind
	// ChecksumKind selects the per-table block checksum (default CRC32C).
	ChecksumKind checksum.Kind
	// ValueCompressibility is the redundant fraction of each value
	// (0 = the incompressible xorshift values of every other experiment;
	// the format benchmarks use 0.5 so codecs have something to find).
	ValueCompressibility float64

	// BlobThreshold enables value separation: values at or above this many
	// bytes live in the value log and the tree stores pointers (0 = off,
	// the layout of every other experiment). The blob sweep sets it.
	BlobThreshold int64
	// BlobGCThreshold is the dead-byte fraction at which value-log GC
	// rewrites a segment (0 = store default).
	BlobGCThreshold float64
	// BlobSegmentSize is the value-log rotation threshold (0 = store
	// default).
	BlobSegmentSize int64

	// CompactionRateBytesPerSec caps background table-write bandwidth via
	// the store's I/O scheduler (0 = unlimited; the brownout experiment
	// sets it on one side of its comparison).
	CompactionRateBytesPerSec int64
	// CompactionRateBurstBytes bounds the limiter's idle token accumulation
	// (0 = store default).
	CompactionRateBurstBytes int64

	// AdaptiveThreshold enables §III-B-4 self-tuning in LDC runs.
	AdaptiveThreshold bool
	// DisableTrivialMove forces rewrites instead of metadata moves
	// (ablation).
	DisableTrivialMove bool
}

// Default returns the standard experiment scale: ~100k requests against a
// tree of 256 KiB tables — roughly 1/8000th of the paper's data volume with
// the same fan-out and mix parameters. One run takes a few seconds.
func Default() Config {
	dev := ssdsim.DefaultProfile()
	// Slow the device 2.5× relative to the profile so that device time
	// dominates the Go compute of this single-core environment, as the SSD
	// dominated the paper's testbed. Shapes, not absolute ops/s, are the
	// target.
	dev.Scale = 2.5
	return Config{
		Ops:             60_000,
		KeySpace:        24_000,
		ValueSize:       1024,
		MemTableSize:    256 << 10,
		SSTableSize:     256 << 10,
		Fanout:          10,
		SliceThreshold:  10,
		BloomBitsPerKey: 10,
		BlockCacheSize:  8 << 20,
		Clients:         1,

		Seed:   1,
		Device: dev,
	}
}

// Quick returns a reduced scale for unit tests and smoke runs (sub-second,
// no latency injection).
func Quick() Config {
	c := Default()
	c.Ops = 8_000
	c.KeySpace = 4_000
	c.ValueSize = 256
	c.MemTableSize = 32 << 10
	c.SSTableSize = 32 << 10
	c.Fanout = 4
	c.SliceThreshold = 4
	c.Device.Scale = 0
	return c
}

// ScaleOps returns a copy with the request count (and preload via key
// space) multiplied — the Fig 14/15 sweeps.
func (c Config) ScaleOps(factor float64) Config {
	c.Ops = int64(float64(c.Ops) * factor)
	return c
}
