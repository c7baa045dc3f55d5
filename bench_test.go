// Package repro's root benchmark regenerates every exhibit of
// harness.Exhibits — the paper's Table I and Figs 1, 7–15, the format and
// blob exhibits and the ablations of DESIGN.md — one
// sub-benchmark each. An iteration performs the complete exhibit and reports
// every headline through b.ReportMetric, so `go test -bench=.` produces the
// whole reproduction in one pass.
//
// The benchmark runs at a reduced scale so the suite completes in minutes;
// `cmd/ldcbench` runs the same exhibits at the larger default scale, and
// EXPERIMENTS.json records one such run.
package repro_test

import (
	"testing"

	"repro/internal/harness"
)

func BenchmarkExhibit(b *testing.B) {
	// Large enough for a three-level tree with real compaction pressure
	// (7 500 keys preloaded, device latency on), small enough that the
	// race-checked format pass of `make ci` stays in the tens of seconds.
	cfg := harness.Default()
	cfg.Ops = 8_000
	cfg.KeySpace = 15_000
	for _, e := range harness.Exhibits {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := harness.Run(e, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, h := range t.Readings() {
					b.ReportMetric(h.Value, h.Name)
				}
			}
		})
	}
}
