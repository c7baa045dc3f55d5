package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/compaction"
	"repro/internal/version"
	"repro/internal/vfs"
)

// countingFS counts directory listings and, per name, removals.
type countingFS struct {
	vfs.FS
	mu      sync.Mutex
	lists   int
	removes map[string]int
}

func newCountingFS(inner vfs.FS) *countingFS {
	return &countingFS{FS: inner, removes: map[string]int{}}
}

func (c *countingFS) List(dir string) ([]string, error) {
	c.mu.Lock()
	c.lists++
	c.mu.Unlock()
	return c.FS.List(dir)
}

func (c *countingFS) Remove(name string) error {
	err := c.FS.Remove(name)
	if err == nil {
		c.mu.Lock()
		c.removes[name]++
		c.mu.Unlock()
	}
	return err
}

// walsOnDisk lists the WAL numbers of st present in its directory.
func walsOnDisk(t *testing.T, fs vfs.FS, st *store) []uint64 {
	t.Helper()
	names, err := fs.List(st.dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for _, name := range names {
		if typ, num := version.ParseFileName(name); typ == version.TypeLog {
			out = append(out, num)
		}
	}
	slices.Sort(out)
	return out
}

// checkOnlyLiveWAL fails unless each idle shard of db has exactly its live
// WAL on disk, and tracks just that one.
func checkOnlyLiveWAL(t *testing.T, fs vfs.FS, db *DB, label string) {
	t.Helper()
	for i, st := range db.shards {
		st.mu.Lock()
		live, tracked := st.logNum, slices.Clone(st.logs)
		st.mu.Unlock()
		if got := walsOnDisk(t, fs, st); !slices.Equal(got, []uint64{live}) || !slices.Equal(tracked, got) {
			t.Errorf("%s: shard %d has WALs %v on disk and tracks %v, want only the live %d", label, i, got, tracked, live)
		}
	}
}

func fillWAL(t *testing.T, db *DB, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := db.Put(key(i%3000), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitIdle()
}

// TestWALsTrackedNotListed: once Open has listed a shard's directory, the
// store never lists it again — each shard knows its own WAL numbers — and
// still every job removes the WALs a flush has covered, each exactly once,
// with one shard and with several alike.
func TestWALsTrackedNotListed(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mem := vfs.Mem()
			cfs := newCountingFS(mem)
			opts := shardOpts(shards)
			opts.FS = cfs
			db := openTestDB(t, opts)
			defer db.Close()
			cfs.mu.Lock()
			cfs.lists = 0
			cfs.mu.Unlock()

			fillWAL(t, db, 0, 6000)
			if s := db.Stats(); s.FlushCount < 10 || s.CompactionCount+s.LinkCount+s.MergeCount+s.TrivialMoveCount == 0 {
				t.Fatalf("workload too small: %d flushes, %d compaction jobs", s.FlushCount, s.CompactionCount+s.LinkCount+s.MergeCount+s.TrivialMoveCount)
			}
			cfs.mu.Lock()
			lists := cfs.lists
			var logsRemoved int
			for name, n := range cfs.removes {
				if strings.HasSuffix(name, ".log") {
					logsRemoved++
					if n != 1 {
						t.Errorf("WAL %s removed %d times", name, n)
					}
				}
			}
			cfs.mu.Unlock()
			if lists != 0 {
				t.Errorf("%d directory listings after Open, want 0", lists)
			}
			if logsRemoved < 10 {
				t.Errorf("%d WALs removed over %d flushes", logsRemoved, db.Stats().FlushCount)
			}
			checkOnlyLiveWAL(t, mem, db, "idle")
		})
	}
}

// TestWALRemoveRetried: a WAL whose removal fails stays on the shard's list,
// and a later job removes it: the first attempt fails, the second succeeds,
// and there is no third.
func TestWALRemoveRetried(t *testing.T) {
	mem := vfs.Mem()
	efs := vfs.NewErrFS(mem)
	opts := smallOpts(compaction.LDC)
	opts.FS = efs
	db := openTestDB(t, opts)
	defer db.Close()

	var mu sync.Mutex
	var failed string
	attempts := 0
	efs.SetRemoveHook(func(name string) error {
		mu.Lock()
		defer mu.Unlock()
		if !strings.HasSuffix(name, ".log") || (failed != "" && name != failed) {
			return nil
		}
		attempts++
		if failed == "" {
			failed = name
			return errInjected
		}
		return nil
	})
	fillWAL(t, db, 0, 2000)
	mu.Lock()
	name, n := failed, attempts
	mu.Unlock()
	if name == "" {
		t.Fatal("no WAL removal was attempted")
	}
	if n != 2 || mem.Exists(name) {
		t.Errorf("%s: %d removal attempts, still on disk %v; want the failed one retried once", name, n, mem.Exists(name))
	}
	checkOnlyLiveWAL(t, mem, db, "after the retry")
}

// TestCrashLeftWALsRemovedAfterReopen: WALs a crashed store left behind —
// both those a flush had covered but whose removal never ran, and those
// recovery replays — are removed after the reopen: the covered ones at Open,
// the replayed ones by the first flush.
func TestCrashLeftWALsRemovedAfterReopen(t *testing.T) {
	mem := vfs.Mem()
	efs := vfs.NewErrFS(mem)
	opts := smallOpts(compaction.LDC)
	opts.FS = efs
	opts.Sync = true
	db := openTestDB(t, opts)
	efs.SetRemoveHook(func(name string) error {
		if strings.HasSuffix(name, ".log") {
			return errInjected
		}
		return nil
	})
	fillWAL(t, db, 0, 1500)
	for i := 0; i < 20; i++ { // unflushed writes, for recovery to replay
		if err := db.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.shards[0]
	left := walsOnDisk(t, mem, st)
	floor := st.set.LogNum()
	st.mu.Lock()
	st.stopBackgroundLocked() // crash: abandon the handle without a clean Close
	st.mu.Unlock()
	if len(left) < 3 || left[0] >= floor {
		t.Fatalf("crash left WALs %v with floor %d: want covered ones to remove", left, floor)
	}

	reopen := smallOpts(compaction.LDC)
	reopen.FS = mem
	db2 := openTestDB(t, reopen)
	defer db2.Close()
	st2 := db2.shards[0]
	for _, num := range walsOnDisk(t, mem, st2) {
		if num < floor {
			t.Errorf("WAL %d, covered before the crash, is on disk after the reopen", num)
		}
	}
	for i := 0; i < 20; i++ {
		if v, err := db2.Get(key(i)); err != nil || string(v) != string(value(i)) {
			t.Fatalf("replayed key %d = %q, %v", i, v, err)
		}
	}
	fillWAL(t, db2, 2000, 1500)
	checkOnlyLiveWAL(t, mem, db2, "after the first jobs")
}

// TestWALRemovedOnceUnderConcurrentCleanup: the flush worker, the compaction
// worker and extra callers all run the post-job cleanup at once while writes
// rotate WALs; each WAL is removed exactly once, and none is left behind.
// Meant for -race.
func TestWALRemovedOnceUnderConcurrentCleanup(t *testing.T) {
	mem := vfs.Mem()
	efs := vfs.NewErrFS(mem)
	opts := smallOpts(compaction.LDC)
	opts.FS = efs
	db := openTestDB(t, opts)
	defer db.Close()
	st := db.shards[0]

	var mu sync.Mutex
	attempts := map[string]int{} // WAL name -> Remove calls
	efs.SetRemoveHook(func(name string) error {
		if strings.HasSuffix(name, ".log") {
			mu.Lock()
			attempts[name]++
			mu.Unlock()
		}
		return nil
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st.deleteObsoleteFiles()
				}
			}
		}()
	}
	fillWAL(t, db, 0, 4000)
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for name, n := range attempts {
		if n != 1 {
			t.Errorf("WAL %s: %d removals, want 1", name, n)
		}
	}
	if len(attempts) < 5 {
		t.Errorf("only %d WALs removed", len(attempts))
	}
	checkOnlyLiveWAL(t, mem, db, "idle")
}

// TestFailedRotationWALTracked: a rotation that creates its WAL file and then
// fails to flush the old writer leaves the new file on disk; the shard tracks
// it anyway, and once later rotations pass it, a job removes it.
func TestFailedRotationWALTracked(t *testing.T) {
	mem := vfs.Mem()
	efs := vfs.NewErrFS(mem)
	opts := smallOpts(compaction.LDC)
	opts.FS = efs
	db := openTestDB(t, opts)
	defer db.Close()
	st := db.shards[0]

	if err := db.Put(key(0), value(0)); err != nil { // buffered in the WAL writer
		t.Fatal(err)
	}
	db.WaitIdle()
	st.mu.Lock()
	live := st.logNum
	efs.FailAfterWrites(1, errInjected) // the Create passes, the Flush fails
	err := st.newLogLocked()
	efs.Disarm()
	orphan := st.logs[len(st.logs)-1]
	st.mu.Unlock()
	if err == nil {
		t.Fatal("rotation did not fail")
	}
	if orphan == live || !mem.Exists(st.logFileName(orphan)) {
		t.Fatalf("failed rotation: tracked %d (live %d), on disk %v", orphan, live, mem.Exists(st.logFileName(orphan)))
	}

	fillWAL(t, db, 0, 2000)
	if mem.Exists(st.logFileName(orphan)) {
		t.Errorf("WAL %d of the failed rotation is still on disk", orphan)
	}
	checkOnlyLiveWAL(t, mem, db, "after later jobs")
}
