// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (one benchmark per exhibit) plus ablation benches for
// the design choices called out in DESIGN.md. Each benchmark performs the
// complete experiment per iteration and reports the headline quantity the
// paper's exhibit shows via b.ReportMetric, so `go test -bench=.` produces
// the whole reproduction in one pass. EXPERIMENTS.md records paper-vs-
// measured for each.
//
// The benchmarks run at a reduced scale (bench preset below) so the whole
// suite completes in minutes; `cmd/ldcbench` runs the same experiments at
// the larger default scale.
package repro_test

import (
	"testing"

	"repro/internal/compaction"
	"repro/internal/harness"
	"repro/internal/ycsb"
)

// benchConfig is the scale used by the benchmark suite: large enough for a
// three-level tree with real compaction pressure, small enough that every
// exhibit regenerates in minutes.
func benchConfig() harness.Config {
	cfg := harness.Default()
	cfg.Ops = 30_000
	cfg.KeySpace = 15_000
	return cfg
}

// BenchmarkTable1Profile regenerates Table I: the share of run time spent
// in compaction work vs the device vs the user write path.
func BenchmarkTable1Profile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunTable1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Module == "DoCompactionWork" {
				b.ReportMetric(row.Percent, "compaction-%")
			}
		}
	}
}

// BenchmarkFig1Fluctuation regenerates Fig 1: the per-slot mean latency
// fluctuation factor of the UDC baseline (paper: 49.13×).
func BenchmarkFig1Fluctuation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Fluctuation, "fluctuation-x")
	}
}

// BenchmarkFig7FanoutUDC regenerates Fig 7: sweeping UDC's fan-out cannot
// both cut amplification and raise throughput.
func BenchmarkFig7FanoutUDC(b *testing.B) {
	cfg := benchConfig()
	cfg.Ops = 10_000
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		best, worst := r.Rows[0].Throughput, r.Rows[0].Throughput
		for _, row := range r.Rows {
			if row.Throughput > best {
				best = row.Throughput
			}
			if row.Throughput < worst {
				worst = row.Throughput
			}
		}
		b.ReportMetric(best/worst, "best/worst-x")
	}
}

// BenchmarkFig8TailLatency regenerates Fig 8: UDC's P99.9 over LDC's
// (paper: 2.62×).
func BenchmarkFig8TailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.P999Ratio, "P99.9-UDC/LDC-x")
	}
}

// BenchmarkFig9AvgLatency regenerates Fig 9: average latency per workload;
// the reported metric is UDC's mean over LDC's on the write-heavy mix
// (paper: latency drops to 43.3%).
func BenchmarkFig9AvgLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var udc, ldcMean float64
		for _, row := range r.Rows {
			if row.Workload == "WH" {
				if row.Policy == "UDC" {
					udc = float64(row.Mean)
				} else {
					ldcMean = float64(row.Mean)
				}
			}
		}
		if ldcMean > 0 {
			b.ReportMetric(udc/ldcMean, "WH-mean-UDC/LDC-x")
		}
	}
}

func reportImprovement(b *testing.B, r *harness.ThroughputResult, workload, metric string) {
	b.Helper()
	if imp, ok := r.Improvements()[workload]; ok {
		b.ReportMetric(imp*100, metric)
	}
}

// BenchmarkFig10aThroughputGet regenerates Fig 10(a): throughput across
// the GET-family workloads (paper: LDC +16%…+80%).
func BenchmarkFig10aThroughputGet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig10a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportImprovement(b, r, "WH", "WH-LDC-gain-%")
		reportImprovement(b, r, "RWB", "RWB-LDC-gain-%")
	}
}

// BenchmarkFig10bThroughputScan regenerates Fig 10(b): throughput across
// the SCAN-family workloads (paper: LDC +49%…+86%).
func BenchmarkFig10bThroughputScan(b *testing.B) {
	cfg := benchConfig()
	cfg.Ops = 8_000 // scans touch 100 pairs each
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig10b(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportImprovement(b, r, "SCN-RWB", "SCN-RWB-LDC-gain-%")
	}
}

// BenchmarkFig10cCompactionIO regenerates Fig 10(c): compaction I/O volume
// (paper: LDC ≈ half of UDC). Reports UDC/LDC total compaction I/O on WH.
func BenchmarkFig10cCompactionIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig10c(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var udc, ldcIO float64
		for _, row := range r.Rows {
			if row.Workload == "WH" {
				if row.Policy == "UDC" {
					udc = row.ReadMB + row.WriteMB
				} else {
					ldcIO = row.ReadMB + row.WriteMB
				}
			}
		}
		if ldcIO > 0 {
			b.ReportMetric(udc/ldcIO, "WH-compIO-UDC/LDC-x")
		}
	}
}

// BenchmarkFig11Zipf regenerates Fig 11: LDC's advantage grows with the
// Zipf constant (paper: uniform +38.7% → Zipf5 +67.3%).
func BenchmarkFig11Zipf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportImprovement(b, r, "Uniform", "uniform-LDC-gain-%")
		reportImprovement(b, r, "Zipf5", "zipf5-LDC-gain-%")
	}
}

// BenchmarkFig12SliceLink regenerates Fig 12(a,d): the SliceLink threshold
// sweep; reports the best threshold found (paper: best T_s ≈ fan-out).
func BenchmarkFig12SliceLink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig12a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		best := r.Rows[0]
		for _, row := range r.Rows {
			if row.Throughput > best.Throughput {
				best = row
			}
		}
		b.ReportMetric(float64(best.Threshold), "best-Ts")
	}
}

// BenchmarkFig12Fanout regenerates Fig 12(b,e): the fan-out sweep for both
// policies; reports LDC's gain at the largest fan-out, where the paper
// finds its biggest advantage (+187.9%).
func BenchmarkFig12Fanout(b *testing.B) {
	cfg := benchConfig()
	cfg.Ops = 8_000
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig12b(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var udc, ldcThr float64
		maxK := 0
		for _, row := range r.Rows {
			if row.Fanout > maxK {
				maxK = row.Fanout
			}
		}
		for _, row := range r.Rows {
			if row.Fanout == maxK {
				if row.Policy == "UDC" {
					udc = row.Throughput
				} else {
					ldcThr = row.Throughput
				}
			}
		}
		if udc > 0 {
			b.ReportMetric((ldcThr/udc-1)*100, "maxK-LDC-gain-%")
		}
	}
}

// BenchmarkFig12Bloom regenerates Fig 12(c,f): throughput is insensitive
// to Bloom sizes in the 10–200 bits/key range; reports max/min throughput
// across the sweep for LDC (paper: flat, ≈1).
func BenchmarkFig12Bloom(b *testing.B) {
	cfg := benchConfig()
	cfg.Ops = 8_000
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig12c(cfg)
		if err != nil {
			b.Fatal(err)
		}
		min, max := 0.0, 0.0
		for _, row := range r.Rows {
			if row.Policy != "LDC" {
				continue
			}
			if min == 0 || row.Throughput < min {
				min = row.Throughput
			}
			if row.Throughput > max {
				max = row.Throughput
			}
		}
		if min > 0 {
			b.ReportMetric(max/min, "LDC-max/min-x")
		}
	}
}

// BenchmarkFig13BloomReads regenerates Fig 13: data-block reads fall as
// bits/key rise and saturate around 16; reports reads at 2 bits over reads
// at 16 bits.
func BenchmarkFig13BloomReads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig13(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var at2, at16 float64
		for _, row := range r.Rows {
			switch row.BitsPerKey {
			case 2:
				at2 = float64(row.BlockReads)
			case 16:
				at16 = float64(row.BlockReads)
			}
		}
		if at16 > 0 {
			b.ReportMetric(at2/at16, "reads-2b/16b-x")
		}
	}
}

// BenchmarkFig14Scalability regenerates Fig 14: LDC's throughput advantage
// holds across request counts (paper: +39%…+65%); reports the minimum gain
// across the sweep.
func BenchmarkFig14Scalability(b *testing.B) {
	cfg := benchConfig()
	cfg.Ops = 8_000
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig14(cfg)
		if err != nil {
			b.Fatal(err)
		}
		udc := map[int64]float64{}
		ldcThr := map[int64]float64{}
		for _, row := range r.Rows {
			if row.Policy == "UDC" {
				udc[row.Ops] = row.Throughput
			} else {
				ldcThr[row.Ops] = row.Throughput
			}
		}
		minGain := 1e9
		for ops, u := range udc {
			if l, ok := ldcThr[ops]; ok && u > 0 {
				if g := (l/u - 1) * 100; g < minGain {
					minGain = g
				}
			}
		}
		b.ReportMetric(minGain, "min-LDC-gain-%")
	}
}

// BenchmarkFig15Space regenerates Fig 15: LDC's extra space over UDC
// (paper: 3.37%…10.0%); reports the maximum overhead across the sweep.
func BenchmarkFig15Space(b *testing.B) {
	cfg := benchConfig()
	cfg.Ops = 8_000
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFig15(cfg)
		if err != nil {
			b.Fatal(err)
		}
		maxOv := -1e9
		for _, ov := range r.Overheads() {
			if ov*100 > maxOv {
				maxOv = ov * 100
			}
		}
		b.ReportMetric(maxOv, "max-space-overhead-%")
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md)

func runRWB(b *testing.B, cfg harness.Config, policy compaction.Policy) (thr float64, compIO float64) {
	b.Helper()
	env, err := harness.NewEnv(cfg, policy)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	w := ycsb.RWB(cfg.Ops, cfg.KeySpace)
	w.ValueSize = cfg.ValueSize
	if err := env.Load(w); err != nil {
		b.Fatal(err)
	}
	r, err := env.Run(w)
	if err != nil {
		b.Fatal(err)
	}
	s := env.DB.Stats()
	return r.Throughput, float64(s.CompactionReadBytes+s.CompactionWriteBytes) / (1 << 20)
}

// BenchmarkAblationTrivialMove compares LDC with and without the
// metadata-only move optimization.
func BenchmarkAblationTrivialMove(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on, _ := runRWB(b, benchConfig(), compaction.LDC)
		cfg := benchConfig()
		cfg.DisableTrivialMove = true
		off, _ := runRWB(b, cfg, compaction.LDC)
		if off > 0 {
			b.ReportMetric((on/off-1)*100, "move-gain-%")
		}
	}
}

// BenchmarkAblationAdaptiveThreshold compares the fixed T_s against the
// self-adaptive controller on a balanced workload.
func BenchmarkAblationAdaptiveThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixed, _ := runRWB(b, benchConfig(), compaction.LDC)
		cfg := benchConfig()
		cfg.AdaptiveThreshold = true
		adaptive, _ := runRWB(b, cfg, compaction.LDC)
		if fixed > 0 {
			b.ReportMetric((adaptive/fixed-1)*100, "adaptive-gain-%")
		}
	}
}

// BenchmarkAblationBloomFilters compares LDC with and without Bloom
// filters — without them every slice probe costs device reads, the read
// cost Theorem 3.2 warns about.
func BenchmarkAblationBloomFilters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on, _ := runRWB(b, benchConfig(), compaction.LDC)
		cfg := benchConfig()
		cfg.BloomBitsPerKey = -1 // disabled
		off, _ := runRWB(b, cfg, compaction.LDC)
		if off > 0 {
			b.ReportMetric((on/off-1)*100, "bloom-gain-%")
		}
	}
}

// BenchmarkFormat regenerates the on-disk format sweep (raw vs flate vs
// lz4 at 100B and 1KiB half-redundant values; BENCH_format.json records a
// full run): fill throughput, scan throughput, on-disk bytes per key, and
// write-side compression ratio per codec.
func BenchmarkFormat(b *testing.B) {
	// The sweep runs 6 full stores (3 codecs × 2 value sizes); a quarter of
	// the usual scale keeps the race-checked ci smoke to tens of seconds
	// while still reaching multi-level trees. BENCH_format.json is measured
	// at the full default scale via `ldcbench format`.
	cfg := benchConfig()
	cfg.Ops /= 4
	cfg.KeySpace /= 4
	for i := 0; i < b.N; i++ {
		r, err := harness.RunFormat(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var raw, lz4 harness.FormatRow
		for _, row := range r.Rows {
			if row.ValueSize < 1024 {
				continue
			}
			switch row.Codec {
			case "none":
				raw = row
			case "lz4":
				lz4 = row
			}
		}
		if raw.FillOpsPerSec > 0 {
			b.ReportMetric(lz4.FillOpsPerSec/raw.FillOpsPerSec, "lz4-fill-x")
		}
		if raw.OnDiskBytesPerKey > 0 {
			b.ReportMetric(100*(1-lz4.OnDiskBytesPerKey/raw.OnDiskBytesPerKey), "lz4-disk-saved-%")
		}
		b.ReportMetric(lz4.CompressionRatio, "lz4-ratio-x")
	}
}
