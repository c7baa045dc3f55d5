package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compaction"
	"repro/internal/version"
	"repro/internal/vfs"
)

var errInjected = errors.New("injected I/O failure")

// unreferencedTables lists the table files in st's directory that no live
// version of st references.
func unreferencedTables(t *testing.T, fs vfs.FS, st *store) []string {
	t.Helper()
	names, err := fs.List(st.dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	live := st.set.LiveFileNums()
	for _, name := range names {
		if typ, num := version.ParseFileName(name); typ == version.TypeTable && !live[num] {
			out = append(out, st.dir+"/"+name)
		}
	}
	return out
}

// orphanTables lists the table files on disk, in any shard's directory, that
// no live version references. Call it on an idle store. Files a reader's late
// unref made obsolete wait in memory for the next job's cleanup; they are
// deleted first, so what is left is what the store has lost track of.
func orphanTables(t *testing.T, fs vfs.FS, db *DB) []string {
	t.Helper()
	var orphans []string
	for _, st := range db.shards {
		st.deleteObsoleteFiles()
		orphans = append(orphans, unreferencedTables(t, fs, st)...)
	}
	return orphans
}

// crashAtWriteBudget is the crash-recovery oracle: it opens a store with
// opts on an ErrFS that fails every write after budget operations, writes
// until the injected failure surfaces, crashes (abandons the handle), reboots
// with reopen on the surviving bytes and checks the write contract (DESIGN.md
// "Write path"). The oracle is {acked, in-flight}: every acknowledged Sync
// write survives exactly, and the one write that returned the error is
// indeterminate — its WAL record may have landed before the failing fsync,
// so after reboot its key holds either the failed value or the last
// acknowledged one. On the live handle the failed write is never visible
// and the store stays poisoned. The reboot also owes a clean directory: the
// tables the crash orphaned (pending deletions, outputs of the flush or
// compaction in flight) are gone. With opts.BlobThreshold set, a sync group
// fsyncs the value log beside its WAL append and fsync, so which of the two
// files meets the fault first is up to the scheduler; the oracle holds for
// every interleaving because the failed write is indeterminate either way.
// Returns the rebooted store.
func crashAtWriteBudget(t *testing.T, opts, reopen Options, budget int64) *DB {
	t.Helper()
	mem := vfs.Mem()
	efs := vfs.NewErrFS(mem)
	opts.FS = efs
	// Durability of acknowledged writes is only promised with a synced WAL;
	// Sync=false intentionally trades the tail of the log for speed, as in
	// LevelDB.
	opts.Sync = true
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatalf("budget %d: open: %v", budget, err)
	}
	efs.FailAfterWrites(budget, errInjected)

	acked := map[string]string{}
	var failedKey, failedVal string
	rng := rand.New(rand.NewSource(budget))
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("key-%05d", rng.Intn(2000))
		v := fmt.Sprintf("v-%d-%d", budget, i)
		if opts.BlobThreshold > 0 && i%3 != 0 {
			// Two writes in three go through the value log, so sync groups
			// with and without the overlapped vlog fsync both meet the fault.
			v += strings.Repeat(".", int(opts.BlobThreshold))
		}
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("budget %d: put %d: %v, want the injected failure", budget, i, err)
			}
			failedKey, failedVal = k, v
			break
		}
		acked[k] = v
	}
	if failedKey == "" {
		t.Fatalf("budget %d: the injected failure never surfaced", budget)
	}
	// check reads k and accepts any of the allowed values ("" = not found).
	check := func(db *DB, stage, k string, allowed ...string) {
		t.Helper()
		got, err := db.Get([]byte(k))
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Errorf("budget %d: %s: key %s: %v", budget, stage, k, err)
			return
		}
		for _, want := range allowed {
			if string(got) == want {
				return
			}
		}
		t.Errorf("budget %d: %s: key %s = %q; want one of %q", budget, stage, k, got, allowed)
	}
	check(db, "live handle", failedKey, acked[failedKey])
	if err := db.Put([]byte(failedKey), []byte("after-failure")); !errors.Is(err, errInjected) {
		t.Errorf("budget %d: write after a failed commit = %v, want the poisoned-store error", budget, err)
	}
	// Crash: abandon every shard without a clean Close.
	efs.Disarm()
	for _, st := range db.shards {
		st.mu.Lock()
		st.stopBackgroundLocked()
		st.mu.Unlock()
	}

	// Reboot on the surviving bytes.
	reopen.FS = mem
	reopen.Sync = true
	db2, err := Open("/db", reopen)
	if err != nil {
		t.Fatalf("budget %d: reopen: %v", budget, err)
	}
	check(db2, "after reboot", failedKey, acked[failedKey], failedVal)
	for k, want := range acked {
		if k != failedKey {
			check(db2, "after reboot", k, want)
		}
	}
	db2.WaitIdle()
	if orphans := orphanTables(t, mem, db2); len(orphans) > 0 {
		t.Errorf("budget %d: table files no version references survived the reboot: %v", budget, orphans)
	}
	return db2
}

// TestReopenSweepKeepsLiveTables: the orphan sweep at Open must never see a
// live table as a candidate. After a clean Close nothing is orphaned, so a
// reopen leaves the set of table files exactly as it was.
func TestReopenSweepKeepsLiveTables(t *testing.T) {
	for _, shards := range []int{1, 2} {
		opts := smallOpts(compaction.LDC)
		opts.Shards = shards
		db := openTestDB(t, opts)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 8000; i++ {
			db.Put(key(rng.Intn(3000)), value(i))
		}
		db.WaitIdle()
		tables := func(db *DB) map[string]bool {
			set := map[string]bool{}
			for _, st := range db.shards {
				names, err := opts.FS.List(st.dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range names {
					if typ, _ := version.ParseFileName(name); typ == version.TypeTable {
						set[st.dir+"/"+name] = true
					}
				}
			}
			return set
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		before := tables(db)
		db2 := openTestDB(t, opts)
		after := tables(db2)
		if orphans := orphanTables(t, opts.FS, db2); len(orphans) > 0 {
			t.Errorf("shards=%d: orphans after a clean close: %v", shards, orphans)
		}
		if len(before) == 0 || len(after) != len(before) {
			t.Errorf("shards=%d: %d table files before reopen, %d after", shards, len(before), len(after))
		}
		for name := range before {
			if !after[name] {
				t.Errorf("shards=%d: reopen removed live table %s", shards, name)
			}
		}
		db2.Close()
	}
}

// TestCrashRecoveryAtEveryWriteBudget simulates crashes at many points of a
// write-heavy run by failing all I/O after N operations, then "rebooting"
// onto the surviving files. This covers torn WALs, half-written tables,
// interrupted MANIFEST appends, and LDC link/merge edits.
func TestCrashRecoveryAtEveryWriteBudget(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, budget := range []int64{50, 200, 500, 1200, 2500} {
				opts := smallOpts(policy)
				crashAtWriteBudget(t, opts, opts, budget).Close()
				opts.BlobThreshold = 64
				crashAtWriteBudget(t, opts, opts, budget).Close()
			}
		})
	}
}

// TestBackgroundErrorSurfacesToWrites verifies that a failing compaction
// poisons the store rather than silently dropping data.
func TestBackgroundErrorSurfacesToWrites(t *testing.T) {
	mem := vfs.Mem()
	efs := vfs.NewErrFS(mem)
	opts := smallOpts(compaction.UDC)
	opts.FS = efs
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		efs.Disarm()
		db.Close()
	}()

	efs.FailAfterWrites(300, errInjected)
	sawError := false
	for i := 0; i < 50000; i++ {
		if err := db.Put(key(i), value(i)); err != nil {
			sawError = true
			break
		}
	}
	if !sawError {
		t.Fatal("writes kept succeeding after persistent I/O failure")
	}
}

// TestRecoveryAfterTornWAL truncates the live WAL mid-record and verifies
// the prefix survives.
func TestRecoveryAfterTornWAL(t *testing.T) {
	mem := vfs.Mem()
	opts := smallOpts(compaction.LDC)
	opts.FS = mem
	opts.MemTableSize = 1 << 20 // keep everything in the WAL
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		db.Put(key(i), value(i))
	}
	st := db.shards[0]
	st.mu.Lock()
	logw := st.logw
	logNum := st.logNum
	st.mu.Unlock()
	// Flushes the writer's buffer, then syncs the file. Outside st.mu, like
	// the engine's own commit pipeline; no writers are running.
	if err := logw.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Tear the last 7 bytes off the WAL.
	name := st.logFileName(logNum)
	f, err := mem.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	raw := make([]byte, size-7)
	f.ReadAt(raw, 0)
	_ = f.Close() // read-only handle
	out, _ := mem.Create(name)
	out.Write(raw)
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open("/db", opts)
	if err != nil {
		t.Fatalf("reopen after torn WAL: %v", err)
	}
	defer db2.Close()
	// At most the final record may be lost.
	lost := 0
	for i := 0; i < 200; i++ {
		got, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			lost++
		}
	}
	if lost > 1 {
		t.Errorf("torn WAL lost %d records, want at most the torn one", lost)
	}
}

// TestConcurrentReadersWritersIterators hammers the store from multiple
// goroutines under the race detector.
func TestConcurrentReadersWritersIterators(t *testing.T) {
	db := openTestDB(t, smallOpts(compaction.LDC))
	defer db.Close()

	done := make(chan struct{})
	errs := make(chan error, 8)
	// Writers.
	for w := 0; w < 2; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if err := db.Put(key(rng.Intn(1000)), value(i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Readers.
	for r := 0; r < 2; r++ {
		go func(r int) {
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if _, err := db.Get(key(rng.Intn(1200))); err != nil && !errors.Is(err, ErrNotFound) {
					errs <- err
					return
				}
			}
		}(r)
	}
	// Iterators: full scans must always see sorted unique keys.
	go func() {
		for {
			select {
			case <-done:
				errs <- nil
				return
			default:
			}
			it, err := db.NewIterator(nil)
			if err != nil {
				errs <- err
				return
			}
			var prev []byte
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
					it.Close()
					errs <- fmt.Errorf("iterator order violation: %q then %q", prev, it.Key())
					return
				}
				prev = append(prev[:0], it.Key()...)
			}
			if err := it.Close(); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Snapshot readers.
	go func() {
		for {
			select {
			case <-done:
				errs <- nil
				return
			default:
			}
			snap, err := db.NewSnapshot()
			if err != nil {
				errs <- err
				return
			}
			db.GetAt(key(1), snap)
			snap.Release()
		}
	}()

	for i := 0; i < 40; i++ {
		db.CompactRange()
	}
	close(done)
	for i := 0; i < 6; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
