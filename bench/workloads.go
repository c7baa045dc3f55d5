package main

import (
	"time"

	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/vfs"
)

// workload is one named set of inputs. Op counts are fixed — a rate times
// the run's nominal seconds — never a duration, so the engine's counters are
// comparable across commits: a faster engine finishes the same ops sooner.
type workload struct {
	name string
	why  string

	served  bool // through internal/server over loopback, else embedded
	clients int  // closed-loop client goroutines (connections when served)

	keys      int64   // key space at scale 1
	preloaded float64 // share of the key space written during set-up
	opsPerSec int64   // measured ops per nominal second, sized on the 2-vCPU reference host
	burst     int     // served only: commands per pipelined burst

	// Each client's op sequence is cut into this many equal slices. Throughput
	// and the p50 metrics are taken per slice and then across slices, so that
	// what the host does to part of a run cannot move them: see sliceQ.
	slices int
	// sliceQ is the quantile of the per-slice times that is reported. Where
	// flushes and compactions run behind the client, slices differ for real
	// and the metric is their median (0.5). Where nothing runs behind it,
	// every slice does the same work, a slow slice can only be the host's
	// doing, and the metric is the lower decile (0.1).
	sliceQ float64

	putShare, getShare float64 // the rest are Scan(scanLen)
	zipfTheta          float64 // 0 = uniform
	size               valueSizer
	warm               bool // read every key once before measuring

	shards        int
	sync          bool
	blobThreshold int64
	// syncCost is charged by the bench filesystem to every Sync of a .log
	// or .vlog file while measuring (vfs.Mem's own Sync is free).
	syncCost time.Duration
}

const scanLen = 100

// slowLimit is the fixed latency limit behind slow_5ms_pct, the stand-in
// for the paper's P99.9 (which does not repeat within 14–20 % here).
const slowLimit = 5 * time.Millisecond

var workloads = []*workload{
	{
		name:    "fill_wo",
		why:     "the paper's WO: 1 KiB puts overwrite a uniform key space on a near-empty store, so commit, wal, memtable, flush, LDC link/merge and the device do the work; read path, cache, server and vlog do none",
		clients: 1, keys: 40_000, preloaded: 0.1, opsPerSec: 8_000, slices: 40, sliceQ: 0.5,
		putShare: 1, size: fixedSize(1024),
	},
	{
		name:    "mixed_rwb",
		why:     "the paper's RWB plus scans: 50/45/5 put/get/scan over data 4x the block cache, so cache-missing reads and scans compete with compaction for the device; a write gain that costs reads shows here",
		clients: 1, keys: 32_000, preloaded: 1, opsPerSec: 9_000, slices: 40, sliceQ: 0.5,
		putShare: 0.50, getShare: 0.45, size: fixedSize(1024),
	},
	{
		name:    "read_hot",
		why:     "zipfian gets over 1.5 MB that fit the 8 MiB block cache: device, compaction, commit and wal are idle, so this is the CPU cost of the cached read path and nothing done to compaction may move it",
		clients: 1, keys: 1_500, preloaded: 1, opsPerSec: 600_000, slices: 10_000, sliceQ: 0.1,
		getShare: 1, zipfTheta: 0.99, size: fixedSize(1024), warm: true,
	},
	{
		name:   "served_durable",
		why:    "client to RESP to server to 2 shards with Sync=true, 1 ms fsyncs and value separation, in 16-command pipelined bursts: the only workload where fsync, group commit, shards and the vlog are live",
		served: true, clients: 2, keys: 100_000, preloaded: 0.5, opsPerSec: 3_400, burst: 16, slices: 40, sliceQ: 0.5,
		putShare: 0.70, getShare: 0.30, size: smallMostly(128, 4096),
		shards: 2, sync: true, blobThreshold: 1024, syncCost: time.Millisecond,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizing is a workload's counts for one run: fixed by (seconds, scale) alone.
type sizing struct {
	keys      int64
	preloaded int64
	ops       int64 // total measured ops (commands when served), all clients
}

// sizing resolves w's counts. scale shrinks key space and ops together (the
// 1/100 smoke test); seconds only lengthens the measured phase.
func (w *workload) sizing(seconds int, scale float64) sizing {
	keys := int64(float64(w.keys) * scale)
	if min := int64(w.clients * 2 * scanLen); keys < min {
		keys = min
	}
	ops := int64(float64(w.opsPerSec*int64(seconds)) * scale)
	per := int64(w.clients)
	if w.burst > 0 {
		per *= int64(w.burst)
	}
	if ops < per {
		ops = per
	}
	ops -= ops % per // every client runs the same whole number of ops or bursts
	return sizing{keys: keys, preloaded: int64(float64(keys) * w.preloaded), ops: ops}
}

// engineOptions is the harness's scaled tree shape under LDC. Options whose
// default depends on the host (CompactionParallelism, BlockCacheShards) stay
// defaulted: they are what users get, and the env block records what they
// resolved to.
func (w *workload) engineOptions(fs vfs.FS) core.Options {
	return core.Options{
		FS:                 fs,
		Policy:             compaction.LDC,
		MemTableSize:       256 << 10,
		SSTableSize:        256 << 10,
		Fanout:             10,
		SliceLinkThreshold: 10,
		BloomBitsPerKey:    10,
		BlockCacheSize:     8 << 20,
		Shards:             w.shards,
		Sync:               w.sync,
		BlobThreshold:      w.blobThreshold,
	}
}
