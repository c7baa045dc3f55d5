package core

// Torture tests for the readState release-CAS path. The lock-free read path
// publishes (mem, imm, version) behind one atomic pointer; these tests hammer
// the ref/recheck/unref retry loop from many goroutines while the publisher
// churns, and verify — under -tags invariants — that the poison checks catch
// an injected double-release. Run via `make invariants`.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/compaction"
	"repro/internal/invariants"
	"repro/internal/keys"
	"repro/internal/version"
)

// newStandaloneReadState builds a readState detached from any DB, holding
// one reference (the pointer's own), over a version with no owning Set.
func newStandaloneReadState() *readState {
	v := version.NewVersion(keys.InternalComparer{User: keys.BytewiseComparer{}})
	v.Ref()
	rs := &readState{v: v, done: make(chan struct{})}
	rs.refs.Store(1)
	return rs
}

// TestReadStateConcurrentRefTorture drives many concurrent ref/unref pairs
// against one state plus a releasing owner, asserting the state releases
// exactly once (done closes) and never twice (no panic, refs drained).
func TestReadStateConcurrentRefTorture(t *testing.T) {
	const goroutines = 16
	const rounds = 2000
	for iter := 0; iter < 20; iter++ {
		rs := newStandaloneReadState()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					rs.ref()
					rs.unref()
				}
			}()
		}
		// The owner drops the pointer's reference mid-churn.
		rs.unref()
		wg.Wait()
		select {
		case <-rs.done:
		default:
			t.Fatalf("iter %d: readState never released (refs=%d)", iter, rs.refs.Load())
		}
		if got := rs.refs.Load(); got != 0 {
			t.Fatalf("iter %d: refs drained to %d, want 0", iter, got)
		}
	}
}

// TestReadStateChurnUnderLoad exercises the real loadReadState retry loop:
// readers ref and drop states while writers force memtable rotations and
// flushes that republish the pointer. With -tags invariants the refcount and
// released-state poison checks are live on every operation.
func TestReadStateChurnUnderLoad(t *testing.T) {
	if testing.Short() && !invariants.Enabled {
		t.Skip("churn test adds value mainly under -tags invariants")
	}
	opts := smallOpts(compaction.LDC)
	opts.MemTableSize = 1 << 12 // rotate constantly
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rs := db.shards[0].loadReadState()
				if rs == nil {
					return
				}
				_ = rs.v.NumFiles(0)
				rs.unref()
				if g%2 == 0 {
					if _, err := db.Get(key(i % 512)); err != nil && err != ErrNotFound && err != ErrClosed {
						t.Errorf("Get: %v", err)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 4000; i++ {
		if err := db.Put(key(i%512), value(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// expectInvariantPanic runs f and requires it to panic with an invariant
// violation message.
func expectInvariantPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected an invariant panic, got none")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "invariant violated") {
			t.Fatalf("panic %q does not look like an invariant violation", msg)
		}
	}()
	f()
}

// TestReadStateDoubleReleaseCaught injects the bug the release-CAS guard
// exists for — an unref without a matching ref — and requires the invariants
// build to panic on the negative refcount rather than release twice.
func TestReadStateDoubleReleaseCaught(t *testing.T) {
	if !invariants.Enabled {
		t.Skip("poison checks compile away without -tags invariants")
	}
	rs := newStandaloneReadState()
	rs.unref() // legal: drops the owner's reference, releases the state
	select {
	case <-rs.done:
	default:
		t.Fatal("state not released after final unref")
	}
	expectInvariantPanic(t, rs.unref)
}

// TestVersionRefAfterReleaseCaught requires the invariants build to catch a
// Ref of a version whose last reference has already been returned — the
// CurrentNoRef-held-across-unlock bug.
func TestVersionRefAfterReleaseCaught(t *testing.T) {
	if !invariants.Enabled {
		t.Skip("poison checks compile away without -tags invariants")
	}
	opts := smallOpts(compaction.LDC)
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	v := db.shards[0].set.Current() // refs the current version
	v.Unref()                       // returns it; the Set still holds its own ref
	// Force the Set to drop the version by installing successors: fill past
	// the memtable bound so a flush runs LogAndApply, then drain background
	// work so the old version's last reference is gone.
	for i := 0; i < 4096; i++ {
		if err := db.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
	if v.Refs() != 0 {
		t.Skipf("old version still referenced (refs=%d); cannot stage the bug", v.Refs())
	}
	expectInvariantPanic(t, v.Ref)
}
