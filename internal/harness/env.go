package harness

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/ssdsim"
	"repro/internal/vfs"
	"repro/internal/ycsb"
)

// Env is one store instance on a fresh simulated SSD.
type Env struct {
	Cfg    Config
	Policy compaction.Policy
	FS     *ssdsim.FS
	Dev    *ssdsim.Device
	DB     *core.DB

	phases []Phase
}

// Phase is the stall accounting of one workload phase: the deltas of the
// store's throttle and scheduler counters across exactly that phase, so a
// run's stalls can be attributed to loading vs measurement instead of one
// run-wide aggregate.
type Phase struct {
	Name      string
	Duration  time.Duration
	Ops       int64
	Stall     time.Duration // foreground write-path waits (delays + stops)
	Slowdowns int64
	Stops     int64
	// Throttle is background I/O time spent waiting for rate-limiter
	// tokens during the phase (zero when the limiter is disabled).
	Throttle time.Duration
}

// Phases reports the accounting of each completed Load/Run phase, in order.
func (e *Env) Phases() []Phase { return append([]Phase(nil), e.phases...) }

// trackPhase brackets fn with store-stat snapshots and records the deltas
// as one named phase.
func (e *Env) trackPhase(name string, fn func() (int64, error)) error {
	before := e.DB.Stats()
	start := time.Now()
	ops, err := fn()
	after := e.DB.Stats()
	e.phases = append(e.phases, Phase{
		Name:      name,
		Duration:  time.Since(start),
		Ops:       ops,
		Stall:     after.StallTime - before.StallTime,
		Slowdowns: after.SlowdownCount - before.SlowdownCount,
		Stops:     after.StopCount - before.StopCount,
		Throttle:  after.IOSchedThrottleTime - before.IOSchedThrottleTime,
	})
	return err
}

// NewEnv builds a fresh store with the given policy over an in-memory
// simulated SSD.
func NewEnv(cfg Config, policy compaction.Policy) (*Env, error) {
	// Collect the previous environment's heap and return it to the OS now,
	// so its garbage is not collected *during* the next measured run and the
	// heap high-water mark (which sizes later GC cycles) resets between
	// experiments. Without this, later runs in a multi-experiment process
	// pay noticeably different GC taxes than earlier ones.
	debug.FreeOSMemory()
	dev := ssdsim.NewDevice(cfg.Device)
	fs := ssdsim.Wrap(vfs.Mem(), dev)
	db, err := core.Open("/db", core.Options{
		FS:                 fs,
		Policy:             policy,
		MemTableSize:       cfg.MemTableSize,
		SSTableSize:        cfg.SSTableSize,
		Fanout:             cfg.Fanout,
		SliceLinkThreshold: cfg.SliceThreshold,
		BloomBitsPerKey:    cfg.BloomBitsPerKey,
		BlockCacheSize:     cfg.BlockCacheSize,
		MaxWriteGroupBytes: cfg.MaxWriteGroupBytes,
		Shards:             cfg.Shards,
		Compression:        cfg.Compression,
		ChecksumKind:       cfg.ChecksumKind,
		AdaptiveThreshold:  cfg.AdaptiveThreshold,
		DisableTrivialMove: cfg.DisableTrivialMove,

		CompactionRateBytesPerSec: cfg.CompactionRateBytesPerSec,
		CompactionRateBurstBytes:  cfg.CompactionRateBurstBytes,

		BlobThreshold:   cfg.BlobThreshold,
		BlobGCThreshold: cfg.BlobGCThreshold,
		BlobSegmentSize: cfg.BlobSegmentSize,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: open %v store: %w", policy, err)
	}
	return &Env{Cfg: cfg, Policy: policy, FS: fs, Dev: dev, DB: db}, nil
}

// Ops adapts the store to the YCSB runner; not-found reads are normal.
func (e *Env) Ops() ycsb.Ops {
	return ycsb.Ops{
		Write: e.DB.Put,
		Read: func(key []byte) error {
			_, err := e.DB.Get(key)
			if errors.Is(err, core.ErrNotFound) {
				return nil
			}
			return err
		},
		Scan: func(start []byte, limit int) error {
			_, err := e.DB.Scan(start, limit)
			return err
		},
	}
}

// Load preloads the workload's key space and resets device counters so
// measurements cover only the run phase.
func (e *Env) Load(w ycsb.Workload) error {
	err := e.trackPhase("load", func() (int64, error) {
		if err := ycsb.Load(e.Ops(), w, ycsb.RunnerOptions{Seed: e.Cfg.Seed}); err != nil {
			return 0, err
		}
		e.DB.WaitIdle()
		n := w.Preload
		if n == 0 {
			n = w.KeySpace / 2 // the runner's Preload default
		}
		return n, nil
	})
	if err != nil {
		return err
	}
	e.Dev.Reset()
	return nil
}

// Run executes the workload's measured phase.
func (e *Env) Run(w ycsb.Workload) (*ycsb.Result, error) {
	return e.RunWith(w, ycsb.RunnerOptions{Seed: e.Cfg.Seed, Clients: e.Cfg.Clients})
}

// RunWith executes with explicit runner options, waiting out background
// work afterwards so the next phase starts from a quiesced tree.
func (e *Env) RunWith(w ycsb.Workload, ro ycsb.RunnerOptions) (*ycsb.Result, error) {
	return e.RunPhase("run:"+w.Name, w, ro, false)
}

// RunPhase executes one named workload phase. With carryBacklog the
// wait-for-idle barrier is skipped, so the next phase inherits this one's
// compaction debt — how the brownout scenario hands a backlog-laden tree to
// its measured phase.
func (e *Env) RunPhase(name string, w ycsb.Workload, ro ycsb.RunnerOptions, carryBacklog bool) (*ycsb.Result, error) {
	var res *ycsb.Result
	err := e.trackPhase(name, func() (int64, error) {
		var err error
		res, err = ycsb.Run(e.Ops(), w, ro)
		if err != nil {
			return 0, err
		}
		if !carryBacklog {
			e.DB.WaitIdle()
		}
		return res.Ops, nil
	})
	return res, err
}

// Close shuts the store down.
func (e *Env) Close() error { return e.DB.Close() }

// Policies lists the paper's comparison pair.
func Policies() []compaction.Policy {
	return []compaction.Policy{compaction.UDC, compaction.LDC}
}
