package harness

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/histogram"
	"repro/internal/ssdsim"
	"repro/internal/vfs"
	"repro/internal/ycsb"
)

// Op is what one step of a cell does to its store.
type Op int

// The steps a cell is built from.
const (
	// OpLoad preloads the mix's key space and waits for the tree to settle,
	// then resets the device and block-read counters so they cover only
	// what follows.
	OpLoad Op = iota
	// OpRun drives the mix measured, then waits out background work so the
	// next step starts from a quiesced tree.
	OpRun
	// OpFlush writes the memtable out, OpCompact merges to quiescence and
	// OpGC runs one value-log collection pass; no-ops where there is no work.
	OpFlush
	OpCompact
	OpGC
)

// Step is one Op; the load and the runs take the mix they drive.
type Step struct {
	Op  Op
	Mix ycsb.Workload
}

func (s Step) String() string {
	switch s.Op {
	case OpLoad:
		return "load"
	case OpRun:
		return "run:" + s.Mix.Name
	case OpFlush:
		return "flush"
	case OpCompact:
		return "compact"
	}
	return "gc"
}

// Cell is one point of an exhibit's grid: a store on a fresh simulated SSD
// and the steps to take it through.
type Cell struct {
	// Config is the store (Store.Policy included), the client count, the
	// seed and the device; its scale fields are there for the columns that
	// divide by them — the steps carry their own mixes.
	Config
	Steps []Step
	// Trials repeats the cell this many times with distinct seeds and
	// merges the raw histograms (0 = once). The extreme percentiles live in
	// the top ~0.1% of samples and a single run at this scale leaves too few
	// there — the same aggregation the paper gets from 20 M-request runs.
	Trials int
	// Timeline, when non-zero, records the runs' mean latency per slot of
	// this width (Fig 1).
	Timeline time.Duration
}

// Phase is the accounting of one step: the deltas of the store's throttle
// counters across exactly that step, so a cell's stalls can be
// attributed to loading vs measurement instead of one aggregate.
type Phase struct {
	Name       string
	Duration   time.Duration
	Ops        int64
	Throughput float64       // client-observed, the trailing wait excluded; runs only
	Stall      time.Duration // foreground write-path waits (delays + stops)
	Slowdowns  int64
	Stops      int64
}

// Measurement is everything an exhibit reads off a cell. Latencies and
// Throughput are the last run step's, histograms merged and throughput
// averaged over the trials; Phases lists every step of every trial in order;
// the rest is read once the steps are done, off the last trial's store.
type Measurement struct {
	Throughput         float64
	All, Reads, Writes histogram.Distribution
	Timeline           []time.Duration

	Phases []Phase
	// Stats counts from the store's open, the load included.
	Stats core.Stats
	// Device and BlockReads (data blocks fetched from storage) count from
	// the last load step.
	Device     ssdsim.Stats
	BlockReads int64
	FSBytes    int64 // every file on the simulated device
	TableBytes int64
	Profile    core.Profile
}

// Measure runs the cell: per trial a fresh store, the steps, the readings.
func Measure(c Cell) (Measurement, error) {
	var m Measurement
	var all, reads, writes histogram.Histogram
	trials := max(c.Trials, 1)
	for t := 0; t < trials; t++ {
		last, err := c.trial(c.Seed+int64(t)*101, &m)
		if err != nil {
			return m, err
		}
		if last != nil {
			m.Throughput += last.Throughput / float64(trials)
			all.Merge(last.Hist)
			reads.Merge(last.ReadHist)
			writes.Merge(last.WriteHist)
			if last.Timeline != nil {
				m.Timeline = last.Timeline.Series()
			}
		}
	}
	m.All, m.Reads, m.Writes = all.Snapshot(), reads.Snapshot(), writes.Snapshot()
	return m, nil
}

// trial is the one place a store is opened: it takes a fresh store through
// the steps, appends their phases to m, leaves the closing readings in m and
// returns the last run's result.
func (c Cell) trial(seed int64, m *Measurement) (last *ycsb.Result, err error) {
	// Collect the previous store's heap and return it to the OS now, so its
	// garbage is not collected *during* the next measured run and the heap
	// high-water mark (which sizes later GC cycles) resets between cells.
	// Without this, later cells in a multi-exhibit process pay noticeably
	// different GC taxes than earlier ones.
	debug.FreeOSMemory()
	dev := ssdsim.NewDevice(c.Device)
	opts := c.Store
	opts.FS = ssdsim.Wrap(vfs.Mem(), dev)
	db, err := core.Open("/db", opts)
	if err != nil {
		return nil, fmt.Errorf("harness: open %v store: %w", opts.Policy, err)
	}
	defer func() {
		if cerr := db.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("harness: close: %w", cerr)
		}
	}()
	ops := ycsb.Ops{
		Write: db.Put,
		Read: func(key []byte) error {
			// Absent keys are normal under random lookups.
			if _, err := db.Get(key); !errors.Is(err, core.ErrNotFound) {
				return err
			}
			return nil
		},
		Scan: func(start []byte, limit int) error {
			_, err := db.Scan(start, limit)
			return err
		},
	}
	var blockBase int64
	for _, s := range c.Steps {
		p := Phase{Name: s.String()}
		before, start := db.Stats(), time.Now()
		switch s.Op {
		case OpLoad:
			err = ycsb.Load(ops, s.Mix, ycsb.RunnerOptions{Seed: seed})
			db.WaitIdle()
			p.Ops = s.Mix.Preload
			dev.Reset()
			blockBase = db.Stats().BlockReads
		case OpRun:
			last, err = ycsb.Run(ops, s.Mix, ycsb.RunnerOptions{Seed: seed, Clients: c.Clients, TimelineSlot: c.Timeline})
			db.WaitIdle()
			p.Ops, p.Throughput = last.Ops, last.Throughput
		case OpFlush:
			err = db.Flush()
		case OpCompact:
			err = db.CompactRange()
		case OpGC:
			err = db.RunValueGC()
		}
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", p.Name, err)
		}
		after := db.Stats()
		p.Duration = time.Since(start)
		p.Stall = after.StallTime - before.StallTime
		p.Slowdowns = after.SlowdownCount - before.SlowdownCount
		p.Stops = after.StopCount - before.StopCount
		m.Phases = append(m.Phases, p)
	}
	m.Stats = db.Stats()
	m.Device = dev.Snapshot()
	m.BlockReads = m.Stats.BlockReads - blockBase
	m.FSBytes, _ = vfs.TotalBytes(opts.FS) // false only off vfs.Mem, which this is
	m.Profile = db.CurrentProfile()
	m.TableBytes = m.Profile.FrozenBytes
	for _, l := range m.Profile.Levels {
		m.TableBytes += l.Bytes
	}
	return last, nil
}
