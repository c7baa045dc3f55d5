package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/histogram"
)

// Stats is a snapshot of the store's internal counters. The categories map
// onto the paper's measurements: compaction read/write bytes (Fig 10c,
// Fig 12d/e/f, Fig 14), time share of compaction work (Table I), and write
// stalls (the mechanism behind Fig 1 and Fig 8 tail latencies).
type Stats struct {
	// I/O volumes in bytes, counted at the table-building layer.
	FlushWriteBytes      int64
	CompactionReadBytes  int64
	CompactionWriteBytes int64
	// MergeReadBytes/MergeWriteBytes are the LDC merge-phase subset of the
	// compaction totals (diagnostics and the ablation benches).
	MergeReadBytes  int64
	MergeWriteBytes int64
	UserWriteBytes  int64
	WALWriteBytes   int64

	// Operation counts.
	FlushCount       int64
	CompactionCount  int64 // conventional compactions (UDC, LDC L0→L1)
	LinkCount        int64 // LDC link phases (metadata only)
	MergeCount       int64 // LDC merge phases
	TrivialMoveCount int64
	ObsoleteDeleted  int64

	// Timing (Table I's breakdown).
	CompactionTime time.Duration // background compaction + flush work
	FlushTime      time.Duration // flush-worker subset of CompactionTime
	WriteTime      time.Duration // user write path (DoWrite)
	ReadTime       time.Duration // user read path; an estimate: the 1-in-16 sampled Gets' time, scaled by 16
	StallTime      time.Duration // write-path waits on compaction
	SlowdownCount  int64         // 1ms L0 slowdowns applied
	StopCount      int64         // hard write stops encountered

	// Commit pipeline (the group-commit front end).
	WriteGroupsTotal  int64   // write groups committed to the WAL
	WriteBatchesTotal int64   // member batches across all groups (≥ groups)
	AvgGroupSize      float64 // batches per group
	WALSyncNanos      int64   // time spent in WAL fsync (outside db.mu)
	WALSyncCount      int64   // WAL fsyncs issued by group leaders
	WriteState        string  // controller admission state: ok|delayed|stopped

	// MaxConcurrentCompactions is the high-water mark of simultaneously
	// executing compaction jobs: 0 or 1 per shard, summed across shards.
	MaxConcurrentCompactions int64

	// Request counts (exact: every request counts itself).
	Puts, Gets, Deletes, Scans int64

	// Read path (the lock-free read-state refactor's observability).
	BloomProbes        int64   // bloom-filter consultations by point gets
	BloomNegatives     int64   // probes skipped by a negative filter answer
	TableProbes        int64   // tables actually probed (post-filter) by point gets
	PointReadAmp       float64 // TableProbes per Get — the point read amplification
	ReadStatePublishes int64   // read-state rebuilds (rotations, flushes, version installs)
	BlockCacheHits     int64
	BlockCacheMisses   int64
	BlockCacheHitRatio float64

	// On-disk format (per-block compression, the hot-format work).
	// Read side: totals over block fetches that missed the block cache —
	// CompressedBytesRead is what came off the device, UncompressedBytesRead
	// what the blocks decoded to (equal for raw blocks).
	CompressedBytesRead   int64
	UncompressedBytesRead int64
	// Write side: block payload bytes before/after compression across all
	// flushed and compacted tables.
	UncompressedBytesWritten int64
	CompressedBytesWritten   int64
	// CompressionRatio is uncompressed/compressed over written block
	// payloads (1.0 when nothing compressed; 0 when nothing written yet).
	CompressionRatio float64

	// Foreground latency distributions: full percentile ladders for the
	// user-facing read (Get) and write (Apply) paths — the tail-latency lens
	// of Fig 1 and Fig 8. Populated by the router from merged per-shard
	// histograms; zero in aggregateStats input. WriteLatency holds
	// every Apply. ReadLatency is a 1-in-16 sample (ReadSampleEvery): every
	// sixteenth Get of a shard, by ordinal, so Count is Gets/16. It stands for
	// all Gets only when the traffic has no period that divides 16: a client
	// loop of 15 cached Gets and a cold one always times the same position.
	ReadLatency  histogram.Distribution
	WriteLatency histogram.Distribution

	// Value separation (internal/vlog). The first two are per-shard commit
	// path counters; the Vlog*/Blob* group reflects the one shared value
	// log and is folded in once by the router (zero per shard, like the
	// block cache).
	BlobValuesSeparated  int64   // Set entries redirected to the value log
	BlobBytesSeparated   int64   // user value bytes those entries carried
	VlogSegments         int     // live segment files
	VlogTotalBytes       int64   // valid extents of all segments
	VlogDeadBytes        int64   // bytes compactions/GC proved unreachable
	VlogLiveRatio        float64 // 1 - dead/total (1.0 when empty)
	VlogAppendedBytes    int64   // lifetime appends, foreground + GC
	VlogGCPasses         int64   // segments reclaimed
	VlogGCBytesRewritten int64   // live bytes relocated by GC
	VlogGCRecordsGuarded int64   // rewrites dropped by the commit-time guard
	BlobResolves         int64   // pointer resolutions on the read path
	BlobResolveCacheHits int64   // resolutions served from the block cache

	// The four IOSched fields are always zero: the background I/O rate
	// limiter they counted is deleted.
	//
	// Deprecated: bench/ is the last reader; ROADMAP 3(b) deletes it.
	IOSchedFlushBytes int64
	// Deprecated: bench/ is the last reader; ROADMAP 3(b) deletes it.
	IOSchedL0Bytes int64
	// Deprecated: bench/ is the last reader; ROADMAP 3(b) deletes it.
	IOSchedMergeBytes int64
	// Deprecated: bench/ is the last reader; ROADMAP 3(b) deletes it.
	IOSchedThrottleTime time.Duration
}

// WriteAmplification reports physical table writes per user byte:
// (flush + compaction writes) / user bytes.
func (s Stats) WriteAmplification() float64 {
	if s.UserWriteBytes == 0 {
		return 0
	}
	return float64(s.FlushWriteBytes+s.CompactionWriteBytes) / float64(s.UserWriteBytes)
}

// CompactionIOBytes reports the paper's Fig 10(c) quantity.
func (s Stats) CompactionIOBytes() (read, write int64) {
	return s.CompactionReadBytes, s.CompactionWriteBytes
}

// String renders a compact summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"flushW=%dMB compR=%dMB compW=%dMB userW=%dMB wamp=%.2f flush=%d compact=%d link=%d merge=%d move=%d stall=%v slow=%d stop=%d",
		s.FlushWriteBytes>>20, s.CompactionReadBytes>>20, s.CompactionWriteBytes>>20,
		s.UserWriteBytes>>20, s.WriteAmplification(),
		s.FlushCount, s.CompactionCount, s.LinkCount, s.MergeCount, s.TrivialMoveCount,
		s.StallTime, s.SlowdownCount, s.StopCount)
}

// dbStats is the live atomic counterpart of Stats.
type dbStats struct {
	flushWriteBytes      atomic.Int64
	compactionReadBytes  atomic.Int64
	compactionWriteBytes atomic.Int64
	mergeReadBytes       atomic.Int64
	mergeWriteBytes      atomic.Int64
	userWriteBytes       atomic.Int64
	walWriteBytes        atomic.Int64

	flushCount       atomic.Int64
	compactionCount  atomic.Int64
	linkCount        atomic.Int64
	mergeCount       atomic.Int64
	trivialMoveCount atomic.Int64
	obsoleteDeleted  atomic.Int64

	compactionNanos atomic.Int64
	flushNanos      atomic.Int64
	writeNanos      atomic.Int64
	readNanos       atomic.Int64
	walSyncNanos    atomic.Int64
	walSyncCount    atomic.Int64

	maxConcurrentCompactions atomic.Int64 // 1 once the compaction worker has run a job

	puts, gets, deletes, scans atomic.Int64

	bloomProbes        atomic.Int64
	bloomNegatives     atomic.Int64
	tableProbes        atomic.Int64
	readStatePublishes atomic.Int64

	blockBytesUncompressed atomic.Int64 // block payloads written, pre-compression
	blockBytesCompressed   atomic.Int64 // block payloads written, on-disk form

	blobValuesSeparated atomic.Int64 // Sets redirected to the value log
	blobBytesSeparated  atomic.Int64 // value bytes those Sets carried

	// Foreground latency histograms (lock-free atomic buckets). The router
	// merges shards' histograms and snapshots the result; the per-shard
	// Stats carries its own snapshot.
	readHist  histogram.Histogram
	writeHist histogram.Histogram
}

func (d *dbStats) snapshot() Stats {
	s := Stats{
		FlushWriteBytes:      d.flushWriteBytes.Load(),
		CompactionReadBytes:  d.compactionReadBytes.Load(),
		CompactionWriteBytes: d.compactionWriteBytes.Load(),
		MergeReadBytes:       d.mergeReadBytes.Load(),
		MergeWriteBytes:      d.mergeWriteBytes.Load(),
		UserWriteBytes:       d.userWriteBytes.Load(),
		WALWriteBytes:        d.walWriteBytes.Load(),
		FlushCount:           d.flushCount.Load(),
		CompactionCount:      d.compactionCount.Load(),
		LinkCount:            d.linkCount.Load(),
		MergeCount:           d.mergeCount.Load(),
		TrivialMoveCount:     d.trivialMoveCount.Load(),
		ObsoleteDeleted:      d.obsoleteDeleted.Load(),
		CompactionTime:       time.Duration(d.compactionNanos.Load()),
		FlushTime:            time.Duration(d.flushNanos.Load()),
		WriteTime:            time.Duration(d.writeNanos.Load()),
		ReadTime:             time.Duration(d.readNanos.Load()),
		WALSyncNanos:         d.walSyncNanos.Load(),
		WALSyncCount:         d.walSyncCount.Load(),

		MaxConcurrentCompactions: d.maxConcurrentCompactions.Load(),

		Puts:    d.puts.Load(),
		Gets:    d.gets.Load(),
		Deletes: d.deletes.Load(),
		Scans:   d.scans.Load(),

		BloomProbes:        d.bloomProbes.Load(),
		BloomNegatives:     d.bloomNegatives.Load(),
		TableProbes:        d.tableProbes.Load(),
		ReadStatePublishes: d.readStatePublishes.Load(),

		UncompressedBytesWritten: d.blockBytesUncompressed.Load(),
		CompressedBytesWritten:   d.blockBytesCompressed.Load(),

		BlobValuesSeparated: d.blobValuesSeparated.Load(),
		BlobBytesSeparated:  d.blobBytesSeparated.Load(),
	}
	if s.Gets > 0 {
		s.PointReadAmp = float64(s.TableProbes) / float64(s.Gets)
	}
	if s.CompressedBytesWritten > 0 {
		s.CompressionRatio = float64(s.UncompressedBytesWritten) / float64(s.CompressedBytesWritten)
	}
	s.ReadLatency = d.readHist.Snapshot()
	s.WriteLatency = d.writeHist.Snapshot()
	return s
}

// writeStateRank orders controller admission states by severity so the
// aggregate can report the worst shard's state.
func writeStateRank(s string) int {
	switch s {
	case "stopped":
		return 2
	case "delayed":
		return 1
	default:
		return 0
	}
}

// aggregateStats folds per-shard snapshots into one database-wide Stats.
// Raw counters sum; derived ratios (AvgGroupSize, PointReadAmp,
// CompressionRatio) are recomputed from the summed numerators and
// denominators rather than averaged, so they stay exact; WriteState reports
// the most-restricted shard; MaxConcurrentCompactions sums the per-shard
// high-water marks (shards compact independently, so the sum is the
// database-wide capacity bound). Block-cache and latency-distribution fields
// are left zero — the cache is shared and folded in exactly once by the
// router, and distributions cannot be summed (the router merges the shards'
// raw histograms instead).
func aggregateStats(per []Stats) Stats {
	var s Stats
	for _, p := range per {
		s.FlushWriteBytes += p.FlushWriteBytes
		s.CompactionReadBytes += p.CompactionReadBytes
		s.CompactionWriteBytes += p.CompactionWriteBytes
		s.MergeReadBytes += p.MergeReadBytes
		s.MergeWriteBytes += p.MergeWriteBytes
		s.UserWriteBytes += p.UserWriteBytes
		s.WALWriteBytes += p.WALWriteBytes

		s.FlushCount += p.FlushCount
		s.CompactionCount += p.CompactionCount
		s.LinkCount += p.LinkCount
		s.MergeCount += p.MergeCount
		s.TrivialMoveCount += p.TrivialMoveCount
		s.ObsoleteDeleted += p.ObsoleteDeleted

		s.CompactionTime += p.CompactionTime
		s.FlushTime += p.FlushTime
		s.WriteTime += p.WriteTime
		s.ReadTime += p.ReadTime
		s.StallTime += p.StallTime
		s.SlowdownCount += p.SlowdownCount
		s.StopCount += p.StopCount

		s.WriteGroupsTotal += p.WriteGroupsTotal
		s.WriteBatchesTotal += p.WriteBatchesTotal
		s.WALSyncNanos += p.WALSyncNanos
		s.WALSyncCount += p.WALSyncCount
		if writeStateRank(p.WriteState) > writeStateRank(s.WriteState) {
			s.WriteState = p.WriteState
		}

		s.MaxConcurrentCompactions += p.MaxConcurrentCompactions

		s.Puts += p.Puts
		s.Gets += p.Gets
		s.Deletes += p.Deletes
		s.Scans += p.Scans

		s.BloomProbes += p.BloomProbes
		s.BloomNegatives += p.BloomNegatives
		s.TableProbes += p.TableProbes
		s.ReadStatePublishes += p.ReadStatePublishes

		s.CompressedBytesRead += p.CompressedBytesRead
		s.UncompressedBytesRead += p.UncompressedBytesRead
		s.UncompressedBytesWritten += p.UncompressedBytesWritten
		s.CompressedBytesWritten += p.CompressedBytesWritten

		s.BlobValuesSeparated += p.BlobValuesSeparated
		s.BlobBytesSeparated += p.BlobBytesSeparated
	}
	if s.WriteState == "" && len(per) > 0 {
		s.WriteState = per[0].WriteState
	}
	if s.WriteGroupsTotal > 0 {
		s.AvgGroupSize = float64(s.WriteBatchesTotal) / float64(s.WriteGroupsTotal)
	}
	if s.Gets > 0 {
		s.PointReadAmp = float64(s.TableProbes) / float64(s.Gets)
	}
	if s.CompressedBytesWritten > 0 {
		s.CompressionRatio = float64(s.UncompressedBytesWritten) / float64(s.CompressedBytesWritten)
	}
	return s
}
