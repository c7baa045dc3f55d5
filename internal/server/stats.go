package server

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/histogram"
)

// commandNames is the fixed dispatch set. The per-command stats map is
// built over it once at New, so the hot path records into it lock-free.
var commandNames = []string{
	"ping", "echo", "set", "get", "del", "mget", "mset", "scan",
	"dbsize", "info", "quit", "command", "config", "select",
}

// cmdStat counts one command's calls and holds its latency histogram
// (geometric buckets, P50..P99.99 reads — the paper's tail-latency lens
// applied to the serving layer).
type cmdStat struct {
	calls atomic.Int64
	hist  histogram.Histogram
}

// serverStats is the live counter set; all fields are updated lock-free.
type serverStats struct {
	connsAccepted atomic.Int64
	connsCurrent  atomic.Int64
	commands      atomic.Int64
	unknownCmds   atomic.Int64
	protoErrors   atomic.Int64

	// Write batching: pipelined write commands coalesce into one engine
	// batch per segment. applyBatches counts the segments submitted
	// (core.Segment.Submit), applyOps the write commands they carried;
	// ops/batches is the server-side batching factor that then feeds the
	// engine's group commit.
	applyBatches atomic.Int64
	applyOps     atomic.Int64
	applyHist    histogram.Histogram

	perCmd map[string]*cmdStat
	other  cmdStat // unknown / rejected commands
}

func (st *serverStats) init() {
	st.perCmd = make(map[string]*cmdStat, len(commandNames))
	for _, name := range commandNames {
		st.perCmd[name] = &cmdStat{}
	}
}

// observe records one handled command. The map is read-only after init, so
// this is a lock-free lookup plus atomic adds.
func (st *serverStats) observe(name string, d time.Duration) {
	st.commands.Add(1)
	cs := st.perCmd[name]
	if cs == nil {
		cs = &st.other
	}
	cs.calls.Add(1)
	cs.hist.Record(d)
}

// CommandMetrics is one command's snapshot.
type CommandMetrics struct {
	Name  string
	Calls int64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Metrics is a point-in-time snapshot of the server-side counters.
type Metrics struct {
	Uptime         time.Duration
	ConnsAccepted  int64
	ConnsCurrent   int64
	Commands       int64
	UnknownCmds    int64
	ProtoErrors    int64
	ApplyBatches   int64
	ApplyOps       int64
	AvgOpsPerApply float64
	Commandstats   []CommandMetrics
}

func (st *serverStats) snapshot(started time.Time) Metrics {
	m := Metrics{
		Uptime:        time.Since(started),
		ConnsAccepted: st.connsAccepted.Load(),
		ConnsCurrent:  st.connsCurrent.Load(),
		Commands:      st.commands.Load(),
		UnknownCmds:   st.unknownCmds.Load(),
		ProtoErrors:   st.protoErrors.Load(),
		ApplyBatches:  st.applyBatches.Load(),
		ApplyOps:      st.applyOps.Load(),
	}
	if m.ApplyBatches > 0 {
		m.AvgOpsPerApply = float64(m.ApplyOps) / float64(m.ApplyBatches)
	}
	for _, name := range commandNames {
		cs := st.perCmd[name]
		if n := cs.calls.Load(); n > 0 {
			m.Commandstats = append(m.Commandstats, CommandMetrics{
				Name:  name,
				Calls: n,
				Mean:  cs.hist.Mean(),
				P50:   cs.hist.Percentile(50),
				P99:   cs.hist.Percentile(99),
				Max:   cs.hist.Max(),
			})
		}
	}
	sort.Slice(m.Commandstats, func(i, j int) bool {
		return m.Commandstats[i].Calls > m.Commandstats[j].Calls
	})
	return m
}

// renderInfo builds the INFO reply: redis-style "# Section" headers and
// key:value lines, covering the server counters and the engine's
// DB.Stats() — including the group-commit observability fields
// (write_groups_total, avg_group_size) that make the pipelining→group-
// commit coupling visible from a client.
func (s *Server) renderInfo(section string) string {
	var b strings.Builder
	m := s.Metrics()
	want := func(name string) bool {
		return section == "" || strings.EqualFold(section, name)
	}

	if want("server") {
		fmt.Fprintf(&b, "# Server\r\n")
		fmt.Fprintf(&b, "server_name:ldcserver\r\n")
		fmt.Fprintf(&b, "engine:ldc\r\n")
		if addr := s.Addr(); addr != nil {
			fmt.Fprintf(&b, "tcp_addr:%s\r\n", addr)
		}
		fmt.Fprintf(&b, "uptime_in_seconds:%d\r\n", int64(m.Uptime.Seconds()))
		fmt.Fprintf(&b, "max_connections:%d\r\n", s.cfg.MaxConns)
		fmt.Fprintf(&b, "\r\n")
	}
	if want("clients") {
		fmt.Fprintf(&b, "# Clients\r\n")
		fmt.Fprintf(&b, "connected_clients:%d\r\n", m.ConnsCurrent)
		fmt.Fprintf(&b, "total_connections_received:%d\r\n", m.ConnsAccepted)
		fmt.Fprintf(&b, "\r\n")
	}
	if want("stats") {
		fmt.Fprintf(&b, "# Stats\r\n")
		fmt.Fprintf(&b, "total_commands_processed:%d\r\n", m.Commands)
		fmt.Fprintf(&b, "unknown_commands:%d\r\n", m.UnknownCmds)
		fmt.Fprintf(&b, "protocol_errors:%d\r\n", m.ProtoErrors)
		fmt.Fprintf(&b, "apply_batches:%d\r\n", m.ApplyBatches)
		fmt.Fprintf(&b, "apply_ops:%d\r\n", m.ApplyOps)
		fmt.Fprintf(&b, "avg_ops_per_apply:%.2f\r\n", m.AvgOpsPerApply)
		fmt.Fprintf(&b, "apply_p99_usec:%d\r\n", s.stats.applyHist.Percentile(99).Microseconds())
		fmt.Fprintf(&b, "\r\n")
	}
	if want("commandstats") {
		fmt.Fprintf(&b, "# Commandstats\r\n")
		for _, cs := range m.Commandstats {
			fmt.Fprintf(&b, "cmdstat_%s:calls=%d,usec_per_call=%d,p50_usec=%d,p99_usec=%d,max_usec=%d\r\n",
				cs.Name, cs.Calls, cs.Mean.Microseconds(), cs.P50.Microseconds(),
				cs.P99.Microseconds(), cs.Max.Microseconds())
		}
		fmt.Fprintf(&b, "\r\n")
	}
	if want("engine") {
		ds := s.db.Stats()
		fmt.Fprintf(&b, "# Engine\r\n")
		fmt.Fprintf(&b, "write_groups_total:%d\r\n", ds.WriteGroupsTotal)
		fmt.Fprintf(&b, "write_batches_total:%d\r\n", ds.WriteBatchesTotal)
		fmt.Fprintf(&b, "avg_group_size:%.2f\r\n", ds.AvgGroupSize)
		fmt.Fprintf(&b, "write_state:%s\r\n", ds.WriteState)
		fmt.Fprintf(&b, "wal_sync_count:%d\r\n", ds.WALSyncCount)
		fmt.Fprintf(&b, "wal_sync_usec:%d\r\n", ds.WALSyncNanos/1e3)
		fmt.Fprintf(&b, "user_write_bytes:%d\r\n", ds.UserWriteBytes)
		fmt.Fprintf(&b, "flush_count:%d\r\n", ds.FlushCount)
		fmt.Fprintf(&b, "compaction_count:%d\r\n", ds.CompactionCount)
		fmt.Fprintf(&b, "link_count:%d\r\n", ds.LinkCount)
		fmt.Fprintf(&b, "merge_count:%d\r\n", ds.MergeCount)
		fmt.Fprintf(&b, "write_amplification:%.2f\r\n", ds.WriteAmplification())
		fmt.Fprintf(&b, "stall_time_usec:%d\r\n", ds.StallTime.Microseconds())
		fmt.Fprintf(&b, "slowdown_count:%d\r\n", ds.SlowdownCount)
		fmt.Fprintf(&b, "stop_count:%d\r\n", ds.StopCount)
		fmt.Fprintf(&b, "point_read_amp:%.2f\r\n", ds.PointReadAmp)
		fmt.Fprintf(&b, "block_cache_hit_ratio:%.3f\r\n", ds.BlockCacheHitRatio)
		// Foreground latency distributions (the paper's tail-latency lens
		// applied at the engine boundary, below RESP parsing).
		for _, lat := range []struct {
			name string
			d    histogram.Distribution
		}{{"read", ds.ReadLatency}, {"write", ds.WriteLatency}} {
			fmt.Fprintf(&b, "%s_latency_usec:count=%d,mean=%d,p50=%d,p99=%d,p999=%d,p9999=%d,max=%d\r\n",
				lat.name, lat.d.Count, lat.d.Mean.Microseconds(),
				lat.d.P50.Microseconds(), lat.d.P99.Microseconds(),
				lat.d.P999.Microseconds(), lat.d.P9999.Microseconds(),
				lat.d.Max.Microseconds())
		}
		// The engine times one Get in this many (a 1-in-16 sample, scaled in
		// read time totals); cmdstat_get above times every GET.
		fmt.Fprintf(&b, "read_latency_sample_every:%d\r\n", core.ReadSampleEvery)
		// Value-log counters (all zero when value separation never ran and
		// no log segments exist on disk).
		fmt.Fprintf(&b, "vlog_segments:%d\r\n", ds.VlogSegments)
		fmt.Fprintf(&b, "vlog_total_bytes:%d\r\n", ds.VlogTotalBytes)
		fmt.Fprintf(&b, "vlog_dead_bytes:%d\r\n", ds.VlogDeadBytes)
		fmt.Fprintf(&b, "vlog_live_ratio:%.3f\r\n", ds.VlogLiveRatio)
		fmt.Fprintf(&b, "vlog_appended_bytes:%d\r\n", ds.VlogAppendedBytes)
		fmt.Fprintf(&b, "vlog_gc_passes:%d\r\n", ds.VlogGCPasses)
		fmt.Fprintf(&b, "vlog_gc_bytes_rewritten:%d\r\n", ds.VlogGCBytesRewritten)
		fmt.Fprintf(&b, "vlog_gc_records_guarded:%d\r\n", ds.VlogGCRecordsGuarded)
		fmt.Fprintf(&b, "blob_values_separated:%d\r\n", ds.BlobValuesSeparated)
		fmt.Fprintf(&b, "blob_resolves:%d\r\n", ds.BlobResolves)
		fmt.Fprintf(&b, "blob_resolve_cache_hits:%d\r\n", ds.BlobResolveCacheHits)
		fmt.Fprintf(&b, "\r\n")
	}
	if want("shards") {
		// Per-shard breakdown behind the aggregated Engine section: one line
		// per shard so skew (hot shards, a stalled shard) is visible from a
		// client. Block-cache counters are absent by design — the cache is
		// shared and reported once under Engine.
		fmt.Fprintf(&b, "# Shards\r\n")
		fmt.Fprintf(&b, "shard_count:%d\r\n", s.db.NumShards())
		for i, ss := range s.db.ShardStats() {
			fmt.Fprintf(&b,
				"shard%d:puts=%d,gets=%d,user_write_bytes=%d,flush_count=%d,compaction_count=%d,write_state=%s,stall_usec=%d,write_groups=%d,avg_group_size=%.2f\r\n",
				i, ss.Puts, ss.Gets, ss.UserWriteBytes, ss.FlushCount,
				ss.CompactionCount, ss.WriteState, ss.StallTime.Microseconds(),
				ss.WriteGroupsTotal, ss.AvgGroupSize)
		}
		fmt.Fprintf(&b, "\r\n")
	}
	if b.Len() == 0 {
		fmt.Fprintf(&b, "# %s\r\n\r\n", section)
	}
	return b.String()
}
