package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/histogram"
	"repro/internal/sstable"
)

// Stats is a snapshot of the store's internal counters. The categories map
// onto the paper's measurements: compaction read/write bytes (Fig 10c,
// Fig 12d/e/f, Fig 14), time share of compaction work (Table I), block
// reads (Fig 13), and write stalls (the mechanism behind Fig 1 and Fig 8
// tail latencies).
//
// DB.Stats is the sum of the shards' Stats: every integer field adds up
// across ShardStats, except the shared folds — BlockCacheHits and
// BlockCacheMisses, the counters of the one block cache the shards share —
// which are zero per shard and appear once, in DB.Stats. The ratio fields
// are derived from the counters they divide.
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
	CompactionTime time.Duration // compaction jobs' busy time (step's pick half), flushes excluded
	FlushTime      time.Duration // flushes' busy time (step's flush half)
	WriteTime      time.Duration // user write path (DoWrite)
	ReadTime       time.Duration // user read path; an estimate: the 1-in-16 sampled Gets' time, scaled by 16
	StallTime      time.Duration // write-path waits on compaction
	SlowdownCount  int64         // L0 slowdown delays applied (up to 1ms each)
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

	// Request counts (exact: every request counts itself). Scans counts
	// each Scan and NewIterator once, on shard 0, whatever the shards read.
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
	// BlockReads counts data blocks fetched from storage and decoded (block
	// cache misses of user reads; Fig 13).
	BlockReads int64

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
	// of Fig 1 and Fig 8. DB.Stats merges the shards' histograms rather than
	// summing their snapshots. WriteLatency holds
	// every Apply. ReadLatency is a 1-in-16 sample (ReadSampleEvery): every
	// sixteenth Get of a shard, by ordinal, so Count is Gets/16. It stands for
	// all Gets only when the traffic has no period that divides 16: a client
	// loop of 15 cached Gets and a cold one always times the same position.
	ReadLatency  histogram.Distribution
	WriteLatency histogram.Distribution

	// Value separation (internal/vlog). Each shard counts the values it
	// separates, the pointers it resolves and the GC work it does, and
	// reports its own value log's segments, total, dead and appended bytes.
	BlobValuesSeparated  int64   // Set entries redirected to the value log
	BlobBytesSeparated   int64   // user value bytes those entries carried
	VlogSegments         int     // live segment files
	VlogTotalBytes       int64   // valid extents of all segments
	VlogDeadBytes        int64   // bytes compactions/GC proved unreachable
	VlogLiveRatio        float64 // 1 - dead/total (0 when the log holds nothing)
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

// String renders a compact summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"flushW=%dMB compR=%dMB compW=%dMB userW=%dMB wamp=%.2f flush=%d compact=%d link=%d merge=%d move=%d stall=%v slow=%d stop=%d",
		s.FlushWriteBytes>>20, s.CompactionReadBytes>>20, s.CompactionWriteBytes>>20,
		s.UserWriteBytes>>20, s.WriteAmplification(),
		s.FlushCount, s.CompactionCount, s.LinkCount, s.MergeCount, s.TrivialMoveCount,
		s.StallTime, s.SlowdownCount, s.StopCount)
}

// counters is one shard's block of live counters, the only place a
// shard-owned counter is declared. Each field is named after the Stats field
// it fills (durations count nanoseconds), so snapshot copies the block in
// one loop; the embedded sstable.ReadStats is the sink the shard's table
// readers count into. Adding a counter takes its Stats field, its field here
// and its increment.
type counters struct {
	sstable.ReadStats // BlockReads, CompressedBytesRead, UncompressedBytesRead

	FlushWriteBytes      atomic.Int64
	CompactionReadBytes  atomic.Int64
	CompactionWriteBytes atomic.Int64
	MergeReadBytes       atomic.Int64
	MergeWriteBytes      atomic.Int64
	UserWriteBytes       atomic.Int64
	WALWriteBytes        atomic.Int64

	FlushCount       atomic.Int64
	CompactionCount  atomic.Int64
	LinkCount        atomic.Int64
	MergeCount       atomic.Int64
	TrivialMoveCount atomic.Int64
	ObsoleteDeleted  atomic.Int64

	CompactionTime atomic.Int64
	FlushTime      atomic.Int64
	WriteTime      atomic.Int64
	ReadTime       atomic.Int64

	WriteGroupsTotal  atomic.Int64 // counted by commitGroup once a group publishes
	WriteBatchesTotal atomic.Int64
	WALSyncNanos      atomic.Int64
	WALSyncCount      atomic.Int64

	MaxConcurrentCompactions atomic.Int64 // 1 once the compaction worker has run a job

	Puts, Gets, Deletes, Scans atomic.Int64

	BloomProbes        atomic.Int64
	BloomNegatives     atomic.Int64
	TableProbes        atomic.Int64
	ReadStatePublishes atomic.Int64

	UncompressedBytesWritten atomic.Int64
	CompressedBytesWritten   atomic.Int64

	BlobValuesSeparated  atomic.Int64
	BlobBytesSeparated   atomic.Int64
	BlobResolves         atomic.Int64
	BlobResolveCacheHits atomic.Int64
	VlogGCPasses         atomic.Int64
	VlogGCBytesRewritten atomic.Int64
	VlogGCRecordsGuarded atomic.Int64 // counted where the commit-time guard drops a rewrite

	// Foreground latency histograms (lock-free atomic buckets). DB.Stats
	// merges the shards' histograms and snapshots the result.
	readHist  histogram.Histogram
	writeHist histogram.Histogram
}

// counterField pairs a live counter, by its index path in counters, with the
// Stats field of the same name.
type counterField struct {
	live []int
	stat int
}

// counterFields is every counter of the block, matched to its Stats field
// by name once; TestEveryCounterHasAStatsField fails on a counter left out.
var counterFields = matchCounters()

func matchCounters() []counterField {
	var out []counterField
	stats := reflect.TypeOf(Stats{})
	for _, f := range reflect.VisibleFields(reflect.TypeOf(counters{})) {
		if f.Type != reflect.TypeOf(atomic.Int64{}) || !f.IsExported() {
			continue
		}
		if sf, ok := stats.FieldByName(f.Name); ok {
			out = append(out, counterField{live: f.Index, stat: sf.Index[0]})
		}
	}
	return out
}

// snapshot copies every counter into the Stats field of its name.
func (c *counters) snapshot() Stats {
	var s Stats
	cv, sv := reflect.ValueOf(c).Elem(), reflect.ValueOf(&s).Elem()
	for _, f := range counterFields {
		sv.Field(f.stat).SetInt(cv.FieldByIndex(f.live).Addr().Interface().(*atomic.Int64).Load())
	}
	s.ReadLatency = c.readHist.Snapshot()
	s.WriteLatency = c.writeHist.Snapshot()
	return s
}

// derive computes the ratio fields from the counters they divide. A shard's
// Stats and the sum both call it, so a ratio is never averaged.
func (s *Stats) derive() {
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	s.AvgGroupSize = ratio(s.WriteBatchesTotal, s.WriteGroupsTotal)
	s.PointReadAmp = ratio(s.TableProbes, s.Gets)
	s.CompressionRatio = ratio(s.UncompressedBytesWritten, s.CompressedBytesWritten)
	s.BlockCacheHitRatio = ratio(s.BlockCacheHits, s.BlockCacheHits+s.BlockCacheMisses)
	s.VlogLiveRatio = ratio(max(s.VlogTotalBytes-s.VlogDeadBytes, 0), s.VlogTotalBytes)
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

// aggregateStats sums per-shard snapshots: every integer field adds up,
// durations included (MaxConcurrentCompactions, a per-shard high-water mark,
// sums to the database-wide bound), and WriteState reports the most
// restricted shard. Ratios, the block cache's shared folds and the
// distributions are the caller's.
func aggregateStats(per []Stats) Stats {
	var s Stats
	sv := reflect.ValueOf(&s).Elem()
	for _, p := range per {
		pv := reflect.ValueOf(p)
		for i := 0; i < sv.NumField(); i++ {
			if f := sv.Field(i); f.CanInt() {
				f.SetInt(f.Int() + pv.Field(i).Int())
			}
		}
		if s.WriteState == "" || writeStateRank(p.WriteState) > writeStateRank(s.WriteState) {
			s.WriteState = p.WriteState
		}
	}
	return s
}
