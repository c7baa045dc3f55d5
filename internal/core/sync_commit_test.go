package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/compaction"
	"repro/internal/vfs"
)

// A sync write group with a separated value waits once for two fsyncs that
// run side by side (commitGroup). These tests pin what that order owes:
// the two really overlap, nothing is visible or acknowledged before both
// returned, a failure of either poisons the store and never yields an
// acknowledged write, and Close waits for a group parked in either.

// syncCommitOpts is one shard with Sync and value separation on, sized so
// that no flush, compaction or segment rotation issues a sync of its own
// while a test holds one open.
func syncCommitOpts(fs vfs.FS) Options {
	opts := blobOpts(compaction.LDC)
	opts.FS = fs
	opts.Sync = true
	opts.MemTableSize = 1 << 20
	opts.BlobSegmentSize = 1 << 20
	return opts
}

// awaitSignal fails the test if ch has not delivered within ten seconds —
// the only way a deadlock in the commit path shows.
func awaitSignal[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// eventually polls cond, which reads state the engine publishes with no
// channel to wait on, and fails the test if it is not true within ten seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSyncCommitOverlapsAndOrders: the hook holds the WAL fsync until a vlog
// fsync has been entered and the vlog fsync until a WAL fsync has been
// entered, so serial fsyncs in either order deadlock. With the WAL fsync
// returned and the vlog fsync still open, the write is neither visible nor
// acknowledged; it becomes both once the vlog fsync returns.
func TestSyncCommitOverlapsAndOrders(t *testing.T) {
	efs := vfs.NewErrFS(vfs.Mem())
	db := openTestDB(t, syncCommitOpts(efs))
	oldVal, newVal := blobValue(1, 200), blobValue(2, 200)
	if err := db.Put([]byte("k"), oldVal); err != nil {
		t.Fatal(err)
	}

	vlogEntered, logEntered := make(chan struct{}), make(chan struct{})
	releaseVlog := make(chan struct{})
	var vlogOnce, logOnce, releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(releaseVlog) }) }
	// A failed wait must not leave the leader parked under the deferred Close.
	defer release()
	hookTimeout := time.After(10 * time.Second)
	efs.SetSyncHook(func(name string) error {
		switch {
		case strings.HasSuffix(name, ".vlog"):
			vlogOnce.Do(func() { close(vlogEntered) })
			select {
			case <-logEntered:
			case <-hookTimeout:
				return errors.New("vlog fsync never saw the WAL fsync entered: the two are serial")
			}
			<-releaseVlog
		case strings.HasSuffix(name, ".log"):
			logOnce.Do(func() { close(logEntered) })
			select {
			case <-vlogEntered:
			case <-hookTimeout:
				return errors.New("WAL fsync never saw the vlog fsync entered: the two are serial")
			}
		}
		return nil
	})

	st := db.shards[0]
	walSyncs := st.stats.WALSyncCount.Load()
	applied := make(chan error, 1)
	go func() {
		b := batch.New()
		b.Set([]byte("k"), newVal)
		b.Set([]byte("inline"), []byte("v"))
		applied <- db.Apply(b)
	}()
	awaitSignal(t, vlogEntered, "the vlog fsync to be entered")
	awaitSignal(t, logEntered, "the WAL fsync to be entered")
	eventually(t, "the WAL fsync to return while the vlog fsync is held open", func() bool {
		return st.stats.WALSyncCount.Load() > walSyncs
	})

	// WAL durable, vlog fsync still open: not visible, not acknowledged.
	if v, err := db.Get([]byte("k")); err != nil || !bytes.Equal(v, oldVal) {
		t.Fatalf("Get before the vlog fsync returned: %.20q, %v; want the old value", v, err)
	}
	if _, err := db.Get([]byte("inline")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("inline member visible before the vlog fsync returned (err=%v)", err)
	}
	select {
	case err := <-applied:
		t.Fatalf("Apply returned (%v) before the vlog fsync did", err)
	default:
	}

	release()
	if err := awaitSignal(t, applied, "Apply after the vlog fsync was released"); err != nil {
		t.Fatal(err)
	}
	efs.SetSyncHook(nil)
	if v, err := db.Get([]byte("k")); err != nil || !bytes.Equal(v, newVal) {
		t.Fatalf("Get after Apply: %.20q, %v; want the new value", v, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncCommitFsyncFailure: the vlog fsync fails and the WAL's succeeds,
// the reverse, and both. Apply reports the injected error, nothing of the
// batch is visible on the live handle, the store stays poisoned with one
// error, Close returns, and the reopened store holds the batch whole or not
// at all — not at all when the crash also took the unsynced vlog tail, which
// is the case the overlapped order adds: a durable WAL record whose pointers
// dangle.
func TestSyncCommitFsyncFailure(t *testing.T) {
	errSync := errors.New("injected fsync failure")
	cases := []struct {
		name              string
		failVlog, failWAL bool
		tearVlog          bool
	}{
		{name: "vlog", failVlog: true},
		{name: "vlog+torn-tail", failVlog: true, tearVlog: true},
		{name: "wal", failWAL: true},
		{name: "both", failVlog: true, failWAL: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := vfs.Mem()
			efs := vfs.NewErrFS(mem)
			opts := syncCommitOpts(efs)
			db := openTestDB(t, opts)

			// Acknowledged state the failed batch will try to overwrite.
			acked := map[string][]byte{}
			for i := 0; i < 12; i++ {
				v := value(i)
				if i%2 == 0 {
					v = blobValue(i, 150)
				}
				if err := db.Put(key(i), v); err != nil {
					t.Fatal(err)
				}
				acked[string(key(i))] = v
			}

			efs.SetSyncHook(func(name string) error {
				if tc.failVlog && strings.HasSuffix(name, ".vlog") || tc.failWAL && strings.HasSuffix(name, ".log") {
					return errSync
				}
				return nil
			})
			// The batch: a separated overwrite, an inline insert, a delete of
			// an acknowledged key, and a separated insert last, so a torn
			// vlog tail cuts the record of the batch's final pointer.
			want := map[string][]byte{
				string(key(0)):  blobValue(100, 300),
				string(key(50)): []byte("inline-new"),
				string(key(3)):  nil,
				string(key(51)): blobValue(101, 300),
			}
			b := batch.New()
			b.Set(key(0), want[string(key(0))])
			b.Set(key(50), want[string(key(50))])
			b.Delete(key(3))
			b.Set(key(51), want[string(key(51))])
			if err := db.Apply(b); !errors.Is(err, errSync) {
				t.Fatalf("Apply = %v, want the injected fsync error", err)
			}

			// Live handle: nothing of the batch is visible.
			get := func(db *DB, k string) []byte {
				t.Helper()
				v, err := db.Get([]byte(k))
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get %s: %v", k, err)
				}
				return v
			}
			for k := range want {
				if got := get(db, k); !bytes.Equal(got, acked[k]) {
					t.Errorf("live handle: %s = %.20q, want the acknowledged %.20q", k, got, acked[k])
				}
			}
			// Poisoned for good, with one error, whichever file is healthy now.
			efs.SetSyncHook(nil)
			err1 := db.Put([]byte("later-1"), []byte("v"))
			err2 := db.Put([]byte("later-2"), blobValue(7, 100))
			if !errors.Is(err1, errSync) || err2 == nil || err1.Error() != err2.Error() {
				t.Errorf("writes after the failed fsync = %v / %v, want the same poisoned-store error twice", err1, err2)
			}
			closed := make(chan error, 1)
			go func() { closed <- db.Close() }()
			awaitSignal(t, closed, "Close of the poisoned store")

			if tc.tearVlog {
				segs := shardSegments(t, mem, 0)
				if len(segs) != 1 {
					t.Fatalf("vlog segments: %v; want exactly one", segs)
				}
				if err := efs.TearFile(segs[0], 150); err != nil {
					t.Fatal(err)
				}
			}

			opts.FS = mem
			db2 := openTestDB(t, opts)
			defer db2.Close()
			present := 0
			for k, v := range want {
				switch got := get(db2, k); {
				case bytes.Equal(got, v):
					present++
				case !bytes.Equal(got, acked[k]):
					t.Errorf("after reopen: %s = %.20q, neither the batch's value nor the acknowledged one", k, got)
				}
			}
			if present != 0 && present != len(want) {
				t.Errorf("after reopen: %d of the batch's %d entries applied; want all or none", present, len(want))
			}
			if tc.tearVlog && present != 0 {
				t.Errorf("after reopen: batch present although its last separated value was torn off")
			}
			for k, v := range acked {
				if _, touched := want[k]; !touched {
					if got := get(db2, k); !bytes.Equal(got, v) {
						t.Errorf("after reopen: acknowledged %s = %.20q, want %.20q", k, got, v)
					}
				}
			}
			if _, err := db2.Scan(nil, 1000); err != nil {
				t.Errorf("after reopen: Scan: %v", err)
			}
		})
	}
}

// TestSyncCommitCloseWaitsForInFlightSync: Close, called while a sync group
// with a separated value is parked in either fsync, returns only after the
// group resolved, and the goroutine that ran the vlog fsync is gone.
func TestSyncCommitCloseWaitsForInFlightSync(t *testing.T) {
	for _, parked := range []string{".vlog", ".log"} {
		t.Run("parked-in"+parked, func(t *testing.T) {
			before := runtime.NumGoroutine()
			mem := vfs.Mem()
			efs := vfs.NewErrFS(mem)
			opts := syncCommitOpts(efs)
			db := openTestDB(t, opts)
			if err := db.Put([]byte("k"), blobValue(1, 200)); err != nil {
				t.Fatal(err)
			}

			entered, gate := make(chan struct{}), make(chan struct{})
			var once, gateOnce sync.Once
			open := func() { gateOnce.Do(func() { close(gate) }) }
			defer open()
			efs.SetSyncHook(func(name string) error {
				if strings.HasSuffix(name, parked) {
					once.Do(func() { close(entered) })
					<-gate
				}
				return nil
			})
			newVal := blobValue(2, 200)
			applied := make(chan error, 1)
			go func() { applied <- db.Put([]byte("k"), newVal) }()
			awaitSignal(t, entered, "the group to park in its "+parked+" fsync")

			closed := make(chan error, 1)
			go func() { closed <- db.Close() }()
			st := db.shards[0]
			eventually(t, "Close to start", func() bool {
				st.mu.Lock()
				defer st.mu.Unlock()
				return st.closed
			})
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) with a sync group still parked in its %s fsync", err, parked)
			case <-time.After(20 * time.Millisecond):
			}

			open()
			applyErr := awaitSignal(t, applied, "the parked write")
			if applyErr != nil && !errors.Is(applyErr, ErrClosed) {
				t.Fatalf("parked write = %v, want nil or ErrClosed", applyErr)
			}
			if err := awaitSignal(t, closed, "Close"); err != nil {
				t.Fatalf("Close: %v", err)
			}
			efs.SetSyncHook(nil)
			eventually(t, fmt.Sprintf("the goroutine count to return to its pre-Open %d", before), func() bool {
				return runtime.NumGoroutine() <= before
			})

			// An acknowledged write survives the Close it raced.
			opts.FS = mem
			db2 := openTestDB(t, opts)
			defer db2.Close()
			v, err := db2.Get([]byte("k"))
			if err != nil {
				t.Fatal(err)
			}
			if applyErr == nil && !bytes.Equal(v, newVal) {
				t.Fatalf("acknowledged write lost across Close: k = %.20q", v)
			}
		})
	}
}

// TestStatsCountBatchedWrites: Puts and Deletes count entries where they are
// applied, so a write counts the same through Put, Delete or a batch, on the
// aggregate and on the shard that owns the key.
func TestStatsCountBatchedWrites(t *testing.T) {
	db := openTestDB(t, shardOpts(4))
	defer db.Close()
	if err := db.Put(key(0), value(0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(key(0)); err != nil {
		t.Fatal(err)
	}
	before, perBefore := db.Stats(), db.ShardStats()
	if before.Puts != 1 || before.Deletes != 1 {
		t.Fatalf("Put + Delete counted as Puts=%d Deletes=%d, want 1 and 1", before.Puts, before.Deletes)
	}

	wantPuts, wantDeletes := make([]int64, 4), make([]int64, 4)
	b := batch.New()
	for i := 0; i < 100; i++ {
		b.Set(key(i), value(i))
		wantPuts[db.shardIndex(key(i))]++
		if i%10 == 0 {
			k := []byte(fmt.Sprintf("gone-%d", i))
			b.Delete(k)
			wantDeletes[db.shardIndex(k)]++
		}
	}
	spanned := 0
	for _, n := range wantPuts {
		if n > 0 {
			spanned++
		}
	}
	if spanned < 3 {
		t.Fatalf("batch spans %d shards, want at least 3", spanned)
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if got, want := after.Puts-before.Puts, int64(100); got != want {
		t.Errorf("aggregate Puts moved by %d, want %d", got, want)
	}
	if got, want := after.Deletes-before.Deletes, int64(10); got != want {
		t.Errorf("aggregate Deletes moved by %d, want %d", got, want)
	}
	for i, p := range db.ShardStats() {
		if got := p.Puts - perBefore[i].Puts; got != wantPuts[i] {
			t.Errorf("shard %d Puts moved by %d, want %d", i, got, wantPuts[i])
		}
		if got := p.Deletes - perBefore[i].Deletes; got != wantDeletes[i] {
			t.Errorf("shard %d Deletes moved by %d, want %d", i, got, wantDeletes[i])
		}
	}
}
