package core

import (
	"slices"
	"sync/atomic"

	"repro/internal/invariants"
	"repro/internal/keys"
	"repro/internal/memtable"
	"repro/internal/version"
)

// readState is an immutable snapshot of everything a read needs: the mutable
// and immutable memtables plus the current version, bundled behind a single
// atomic pointer so that Get/GetAt, NewIterator, and snapshot reads acquire
// the whole view with one atomic load and one refcount increment — no mutex.
//
// Lifecycle. A readState is built and published (DB.publishReadState) only
// under db.mu, at the points where the view actually changes: memtable
// rotation, flush completion, and after every LogAndApply that installs a
// version. The published state holds one reference on behalf of the pointer
// itself plus one reference on its version (taken under set.mu by
// db.set.Current(), which keeps the version's file refcounts pinned).
// Readers take a reference with loadReadState and drop it with unref when
// the read or iterator finishes; the publisher drops the pointer's own
// reference when it swaps in a successor. Whoever drives refs to zero
// releases the version.
//
// The visible sequence is deliberately NOT frozen here: it is read per
// operation from the Set's atomic lastSeq, preserving read-your-writes
// (commitGroup applies entries to the memtable before publishing their
// sequence, and every published state contains all previously applied data,
// so any sequence a reader observes is fully resolvable in any state loaded
// afterwards).
//
// Liveness (DESIGN.md "Liveness"): a file is deleted only when no read state
// a reader can still hold reaches it — tables and frozen files through v's
// refcounts, value-log segments through the pointers visible at seq or later.
type readState struct {
	mem *memtable.MemTable
	imm *memtable.MemTable // nil when no immutable memtable is pending
	v   *version.Version
	// seq is the store's last sequence at publication. Readers fetch their
	// sequence after pinning the state, so all of them run at seq or later
	// (registered snapshots aside; GC checks their floor separately).
	seq keys.Seq

	refs atomic.Int32
	// released guards the version release: a reader racing loadReadState
	// against republication can momentarily resurrect refs after the
	// publisher already drove them to zero, producing a second 1→0
	// crossing. Only the CAS winner may unref the version.
	released atomic.Bool
	// done closes when the state is fully released (refs drained and the
	// version unref'd). Close waits on every retired state's done before
	// tearing down the table cache, and the sweep keeps a pending value-log
	// segment while an older state's done is open: no reader sees a file
	// closed or deleted under it.
	done chan struct{}
}

func (rs *readState) ref() { rs.refs.Add(1) }

func (rs *readState) unref() {
	n := rs.refs.Add(-1)
	// A second 1→0 crossing is legal (see released above); a negative count
	// means an unref without a matching ref — a double release.
	invariants.CheckRefcountNonNegative(int64(n), "core.readState")
	if n != 0 {
		return
	}
	if rs.released.CompareAndSwap(false, true) {
		rs.v.Unref()
		close(rs.done)
	}
}

// loadReadState returns the current read state with a reference held, or nil
// if the store is closed. Lock-free: one atomic load, one increment, and a
// recheck. If the pointer moved between the load and the increment the
// incremented state may already be dead, so retry; if it did not move, the
// publisher's own release necessarily observes our increment (all operations
// here are sequentially consistent), so the state stays live until our unref.
func (db *store) loadReadState() *readState {
	for {
		rs := db.readState.Load()
		if rs == nil {
			return nil
		}
		rs.ref()
		if db.readState.Load() == rs {
			// The recheck passed, so the publisher cannot have dropped the
			// pointer's own reference yet: a released state here means the
			// retry protocol itself is broken.
			invariants.CheckNotReleased(rs.released.Load(), "core.readState")
			return rs
		}
		rs.unref()
	}
}

// publishReadState rebuilds and swaps in the read state from the DB's
// current memtables and version. Callers hold db.mu (Open's exclusive
// section counts), which also freezes the last sequence. The swap itself is
// atomic, so readers never block on the rebuild.
func (db *store) publishReadState() {
	rs := &readState{mem: db.mem, imm: db.imm, v: db.set.Current(), seq: db.set.LastSeq(), done: make(chan struct{})}
	rs.refs.Store(1) // the pointer's own reference
	db.retireReadState(db.readState.Swap(rs))
	db.stats.ReadStatePublishes.Add(1)
}

// retireReadState drops the pointer's own reference on a swapped-out state
// and keeps it in db.retired while readers still pin it, pruning the states
// that have drained since the last call. Callers hold db.mu.
func (db *store) retireReadState(old *readState) {
	if old == nil {
		return
	}
	old.unref()
	db.retired = slices.DeleteFunc(append(db.retired, old), (*readState).drained)
}

// drained reports whether the state is fully released.
func (rs *readState) drained() bool {
	select {
	case <-rs.done:
		return true
	default:
		return false
	}
}
