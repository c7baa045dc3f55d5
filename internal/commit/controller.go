// Package commit implements the store's foreground commit pipeline: a
// RocksDB-style group-commit front end (Pipeline) and the write-throttling
// state machine (Controller) that decides when writers may proceed, must be
// delayed, or must stop.
//
// The package is deliberately independent of the DB: both types drive their
// environment through small callback structs, so the grouping protocol and
// the throttle policy are unit-testable without a store. Lock ordering is
// pipeline-internal lock → store mutex → deeper locks; no callback is ever
// invoked while the pipeline's own lock is held.
package commit

import (
	"sync/atomic"
	"time"

	"repro/internal/compaction"
)

// State is the controller's write-admission state.
type State int32

const (
	// StateOK admits writes immediately.
	StateOK State = iota
	// StateDelayed applies the graduated slowdown delay to each write.
	StateDelayed
	// StateStopped blocks writes until background work catches up.
	StateStopped
)

// String renders the state for stats output.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateDelayed:
		return "delayed"
	case StateStopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// ControllerEnv is the store machinery the controller drives. Every callback
// except Sleep is invoked with the store mutex held (the controller brackets
// them with Lock/Unlock); Sleep runs unlocked.
type ControllerEnv struct {
	// Lock and Unlock acquire and release the store mutex.
	Lock, Unlock func()
	// Err reports a terminal condition (store closed, background error);
	// non-nil aborts MakeRoom with that error.
	Err func() error
	// L0Files counts level-0 table files.
	L0Files func() int
	// MemFull reports whether the active memtable has reached its size.
	MemFull func() bool
	// ImmPending reports whether the previous memtable is still flushing.
	ImmPending func() bool
	// Rotate switches to a fresh memtable and WAL, handing the full one to
	// the flush worker.
	Rotate func() error
	// Wait blocks until background work makes progress, releasing the store
	// mutex while waiting (a condition-variable wait).
	Wait func()
	// Sleep pauses for the slowdown delay; nil uses time.Sleep. Tests
	// substitute a recorder.
	Sleep func(time.Duration)
}

// SlowdownDelay caps the per-write delay in the delayed state. The actual
// delay scales continuously from a fraction of this at the slowdown trigger
// up to the full value just under the stop trigger, so admission tightens
// smoothly instead of stepping at a cliff.
const SlowdownDelay = time.Millisecond

// ControllerMetrics is a snapshot of the controller's counters.
type ControllerMetrics struct {
	Slowdowns  int64 // delays applied
	Stops      int64 // hard waits entered
	StallNanos int64 // total time writers spent delayed or stopped
	State      State // current admission state
}

// Controller is the write-throttling state machine (ok → delayed →
// stopped), extracted from the write path so the pipeline, the stats
// surface, and tests all consume one explicit source of truth. It is the
// paper's write-tail-latency mechanism: the waits it imposes are exactly
// the stalls behind Fig 1 and Fig 8.
type Controller struct {
	env ControllerEnv

	state      atomic.Int32
	slowdowns  atomic.Int64
	stops      atomic.Int64
	stallNanos atomic.Int64
}

// NewController builds a controller over env.
func NewController(env ControllerEnv) *Controller {
	if env.Sleep == nil {
		env.Sleep = time.Sleep
	}
	return &Controller{env: env}
}

// State reports the current admission state without locking.
func (c *Controller) State() State { return State(c.state.Load()) }

// Metrics snapshots the stall counters.
func (c *Controller) Metrics() ControllerMetrics {
	return ControllerMetrics{
		Slowdowns:  c.slowdowns.Load(),
		Stops:      c.stops.Load(),
		StallNanos: c.stallNanos.Load(),
		State:      c.State(),
	}
}

// MakeRoom blocks until the store can accept a write, applying LevelDB's
// throttle ladder: one graduated slowdown delay scaled by L0 depth (see
// slowdownFrac), a memtable rotation when the active table is full, and hard
// waits while the previous memtable is still flushing or L0 hit the stop
// trigger. It acquires the store mutex itself and returns with it released.
func (c *Controller) MakeRoom() error {
	c.env.Lock()
	defer c.env.Unlock()
	allowDelay := true
	for {
		if err := c.env.Err(); err != nil {
			return err
		}
		if allowDelay {
			// Soft backpressure: pay at most one graduated delay outside the
			// store mutex so readers and background work proceed, then never
			// delay again for this write.
			allowDelay = false
			if d := time.Duration(c.slowdownFrac() * float64(SlowdownDelay)); d > 0 {
				c.state.Store(int32(StateDelayed))
				c.env.Unlock()
				c.env.Sleep(d)
				c.env.Lock()
				c.slowdowns.Add(1)
				c.stallNanos.Add(int64(d))
				// Re-check Err: it may have been raised during the sleep.
				continue
			}
		}
		switch {
		case !c.env.MemFull():
			c.state.Store(int32(StateOK))
			return nil
		case c.env.ImmPending():
			// Previous memtable still flushing: hard stop.
			c.waitStopped()
		case c.env.L0Files() >= compaction.L0StopTrigger:
			c.waitStopped()
		default:
			// Full memtable, flush worker idle: rotate and retry (the fresh
			// table admits immediately on the next iteration).
			if err := c.env.Rotate(); err != nil {
				return err
			}
		}
	}
}

// slowdownFrac maps L0 depth to a fraction of SlowdownDelay in [0, 1]: none
// below the slowdown trigger, then a linear ramp that reaches the full delay
// one file under the stop trigger. L0 depth is the throttle's one signal, as
// in LevelDB's ladder. Called with the store mutex held.
func (c *Controller) slowdownFrac() float64 {
	l0 := c.env.L0Files()
	if l0 < compaction.L0SlowdownTrigger {
		return 0
	}
	return min(1, float64(l0-compaction.L0SlowdownTrigger+1)/(compaction.L0StopTrigger-compaction.L0SlowdownTrigger))
}

// waitStopped enters the stopped state and blocks for background progress.
// Store mutex held on entry and exit (released inside env.Wait).
func (c *Controller) waitStopped() {
	c.state.Store(int32(StateStopped))
	c.stops.Add(1)
	start := time.Now()
	c.env.Wait()
	c.stallNanos.Add(int64(time.Since(start)))
}
