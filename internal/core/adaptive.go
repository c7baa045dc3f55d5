package core

import "sync/atomic"

// adaptiveThreshold implements the paper's §III-B-4 self-adaptive SliceLink
// threshold: write-dominated workloads push T_s up (fewer, bigger merges ⇒
// lower write amplification), read-dominated workloads pull it down (fewer
// linked slices to probe ⇒ cheaper reads). The controller observes the
// read/write mix over fixed-size windows of operations and nudges T_s one
// step per window with hysteresis, bounded to [minTs, 4×fanout].
//
// The controller keeps no tally of its own: observe is handed the store's
// cumulative request counters (db.observeMix — every write group, every scan
// and every timed Get call it) and closes a window when they have moved by a
// window's worth since the last close. Nothing here takes a mutex:
// threshold() and observe() sit on the lock-free read path. Window
// adjustment is guarded by a CAS flag — one adjuster per window; an observer
// whose counters are still inside the window returns after one load.
type adaptiveThreshold struct {
	ts     atomic.Int64
	minTs  int64
	maxTs  int64
	window int64

	// closedAt is reads+writes at the last window close; reads and writes are
	// the two counters then, owned by whoever holds adjusting.
	closedAt      atomic.Int64
	reads, writes int64
	adjusting     atomic.Bool
}

// adaptiveWindow is the number of operations between adjustments.
const adaptiveWindow = 4096

func newAdaptiveThreshold(initial, fanout int) *adaptiveThreshold {
	a := &adaptiveThreshold{
		minTs:  2,
		maxTs:  int64(4 * fanout),
		window: adaptiveWindow,
	}
	ts := int64(initial)
	if ts < a.minTs {
		ts = a.minTs
	}
	if ts > a.maxTs {
		ts = a.maxTs
	}
	a.ts.Store(ts)
	return a
}

func (a *adaptiveThreshold) threshold() int { return int(a.ts.Load()) }

// observe takes the cumulative read and write request counts.
func (a *adaptiveThreshold) observe(reads, writes int64) {
	if reads+writes-a.closedAt.Load() < a.window {
		return
	}
	if !a.adjusting.CompareAndSwap(false, true) {
		return // another observer is mid-adjustment
	}
	defer a.adjusting.Store(false)
	dr, dw := reads-a.reads, writes-a.writes
	if dr < 0 || dw < 0 || dr+dw < a.window {
		// A counter read before the adjuster ahead of us closed its window:
		// either one older than that close would skew the ratio.
		return
	}
	a.reads, a.writes = reads, writes
	a.closedAt.Store(reads + writes)
	ratio := float64(dw) / float64(dr+dw)
	ts := a.ts.Load()
	step := ts / 4
	if step < 1 {
		step = 1
	}
	switch {
	case ratio > 0.55 && ts < a.maxTs:
		ts += step
		if ts > a.maxTs {
			ts = a.maxTs
		}
		a.ts.Store(ts)
	case ratio < 0.45 && ts > a.minTs:
		ts -= step
		if ts < a.minTs {
			ts = a.minTs
		}
		a.ts.Store(ts)
	}
}
