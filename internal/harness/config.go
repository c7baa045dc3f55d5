// Package harness regenerates every table and figure of the paper's
// evaluation (§IV) on this repository's store and SSD simulator. The
// evaluation is one experiment repeated over a grid — a store, a YCSB mix,
// one swept parameter — so the package is one measured cell (Measure), one
// table of exhibits (Exhibits) and the loop that drives a row of it (Run);
// the ldcbench command and the repository benchmark are loops over that
// table.
//
// Absolute numbers differ from the paper (the substrate is a simulator and
// the workloads are scaled down), but each experiment's *shape* — who wins,
// by roughly what factor, where the knees are — is the reproduction target;
// see EXPERIMENTS.md for paper-vs-measured.
package harness

import (
	"repro/internal/core"
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
	// Clients is the number of concurrent workload clients. The default is
	// 1: on a single-core host, extra client goroutines add scheduler
	// jitter that swamps the policies' differences.
	Clients int
	// Seed fixes the workload randomness.
	Seed int64
	// Device is the simulated SSD profile.
	Device ssdsim.Profile
	// Store is the store under test, as the store itself takes it: a sweep
	// sets the field it sweeps (c.Store.Fanout = k). FS is Measure's to
	// fill: every cell gets a fresh in-memory file system over Device.
	Store core.Options
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
		Ops:       60_000,
		KeySpace:  24_000,
		ValueSize: 1024,
		Clients:   1,
		Seed:      1,
		Device:    dev,
		Store: core.Options{
			MemTableSize:       256 << 10,
			SSTableSize:        256 << 10,
			Fanout:             10, // the paper's k
			SliceLinkThreshold: 10, // the paper's T_s
			BloomBitsPerKey:    10,
			BlockCacheSize:     8 << 20,
		},
	}
}

// Quick returns a reduced scale for unit tests and smoke runs (sub-second,
// no latency injection).
func Quick() Config {
	c := Default()
	c.Ops = 8_000
	c.KeySpace = 4_000
	c.ValueSize = 256
	c.Store.MemTableSize = 32 << 10
	c.Store.SSTableSize = 32 << 10
	c.Store.Fanout = 4
	c.Store.SliceLinkThreshold = 4
	c.Device.Scale = 0
	return c
}
