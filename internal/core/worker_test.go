package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/compaction"
)

// runWorkload fills then overwrites keys with a deterministic sequence,
// returning the model of what the store must contain. Deletions included so
// tombstone elision is exercised.
func runWorkload(t *testing.T, db *DB, seed int64, n int) map[string]string {
	t.Helper()
	model := map[string]string{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 3*n; i++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(n))
		switch {
		case i%17 == 16:
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			delete(model, k)
		default:
			v := fmt.Sprintf("val-%06d-%d", i, seed)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			model[k] = v
		}
	}
	return model
}

// checkContents verifies the store matches the model exactly, including
// absence of deleted keys.
func checkContents(t *testing.T, db *DB, model map[string]string, n int, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%06d", i)
		got, err := db.Get([]byte(k))
		want, ok := model[k]
		switch {
		case ok && (err != nil || string(got) != want):
			t.Fatalf("%s: Get(%s) = %q, %v; want %q", label, k, got, err, want)
		case !ok && !errors.Is(err, ErrNotFound):
			t.Fatalf("%s: Get(%s) = %q, %v; want ErrNotFound", label, k, got, err)
		}
	}
}

// TestCloseDuringCompaction is the worker-drain regression test: Close while
// a flush and a compaction are in flight must neither deadlock nor leak the
// two worker goroutines.
func TestCloseDuringCompaction(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		db := openTestDB(t, smallOpts(compaction.LDC))
		// Enough writes that flushes and multi-level compactions are still
		// in flight when Close lands.
		rng := rand.New(rand.NewSource(int64(round)))
		for i := 0; i < 4000; i++ {
			k := fmt.Sprintf("key-%06d", rng.Intn(1000))
			if err := db.Put([]byte(k), []byte(fmt.Sprintf("val-%08d", i))); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}

		done := make(chan error, 1)
		go func() { done <- db.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d: Close: %v", round, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: Close deadlocked with compactions in flight", round)
		}
		if err := db.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: Put after Close = %v, want ErrClosed", round, err)
		}
	}
	// Workers exit before Close returns; allow a grace period for unrelated
	// runtime goroutines to settle before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
}

// TestCompactRangeStepsManualStore: a store opened with no compaction worker
// flushes but never compacts on its own; CompactRange steps it to
// quiescence, after which a step finds no job.
func TestCompactRangeStepsManualStore(t *testing.T) {
	db := openManualDB(t, smallOpts(compaction.UDC))
	defer db.Close()

	model := runWorkload(t, db, 7, 500)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if jobs := s.CompactionCount + s.LinkCount + s.MergeCount + s.TrivialMoveCount; s.FlushCount == 0 || jobs != 0 {
		t.Fatalf("before CompactRange: %d flushes, %d compaction jobs; want flushes and no job", s.FlushCount, jobs)
	}
	if files := db.CurrentProfile().Levels[0].Files; files < compaction.L0Trigger {
		t.Fatalf("L0 has %d files; the test needs at least the trigger %d", files, compaction.L0Trigger)
	}
	if err := db.CompactRange(); err != nil {
		t.Fatalf("CompactRange: %v", err)
	}
	// Quiescent: L0 must be within its trigger now.
	if files := db.CurrentProfile().Levels[0].Files; files >= compaction.L0Trigger {
		t.Errorf("L0 still has %d files after CompactRange", files)
	}
	if did, err := db.shards[0].step(); did || err != nil {
		t.Errorf("step after CompactRange = %v, %v; want no job", did, err)
	}
	checkContents(t, db, model, 500, "manual compaction")
}

// TestWaitIdleDrainsWorkers: WaitIdle must cover the flush worker, the
// compaction worker and their cleanups, and leave nothing pickable.
func TestWaitIdleDrainsWorkers(t *testing.T) {
	db := openTestDB(t, smallOpts(compaction.LDC))
	defer db.Close()
	runWorkload(t, db, 11, 1000)
	db.WaitIdle()

	st := db.shards[0]
	st.mu.Lock()
	busy := st.imm != nil || st.flushActive || st.compActive || st.cleanActive != 0
	next := st.picker.Pick(st.set.CurrentNoRef()).Kind
	st.mu.Unlock()
	if busy || next != compaction.PickNone {
		t.Errorf("WaitIdle returned with work left (busy=%v next pick=%v)", busy, next)
	}
}

// TestOneCompactionPerShard: shards are the unit of background parallelism.
// Under a two-shard LDC fill each shard reports at most one compaction job
// at a time, and the database-wide figure is the shards' sum.
func TestOneCompactionPerShard(t *testing.T) {
	opts := smallOpts(compaction.LDC)
	opts.Shards = 2
	db := openTestDB(t, opts)
	defer db.Close()
	model := runWorkload(t, db, 23, 2000)
	if err := db.CompactRange(); err != nil {
		t.Fatalf("CompactRange: %v", err)
	}
	checkContents(t, db, model, 2000, "two shards")

	var sum int64
	for i, s := range db.ShardStats() {
		if s.CompactionCount+s.LinkCount+s.MergeCount+s.TrivialMoveCount == 0 {
			t.Fatalf("shard %d ran no compaction job: the fill exercised nothing", i)
		}
		if s.MaxConcurrentCompactions != 1 {
			t.Errorf("shard %d: MaxConcurrentCompactions = %d, want 1", i, s.MaxConcurrentCompactions)
		}
		sum += s.MaxConcurrentCompactions
	}
	if got := db.Stats().MaxConcurrentCompactions; got != sum || got > 2 {
		t.Errorf("aggregate MaxConcurrentCompactions = %d, want the shards' sum %d (at most 2)", got, sum)
	}
}

// TestCloseLeavesNoUnreferencedTable: a rewrite's inputs pinned by an open
// iterator outlive the job's own cleanup, and become obsolete only when the
// iterator closes — after which no job may ever run. Close must remove them:
// a cleanly closed directory holds exactly the tables (live and frozen) that
// the version recovered from it names.
func TestCloseLeavesNoUnreferencedTable(t *testing.T) {
	opts := smallOpts(compaction.LDC)
	db := openManualDB(t, opts) // the test runs the picks
	nextRewrite(t, db, 300)
	it, err := db.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	it.SeekToFirst()
	if err := runStep(t, db.shards[0]); err != nil { // the rewrite's cleanup finds its inputs pinned
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	closed := db.shards[0]
	if left := unreferencedTables(t, opts.FS, closed); len(left) > 0 {
		t.Errorf("tables on disk after Close that no version names: %v", left)
	}
	db2 := openTestDB(t, opts)
	defer db2.Close()
	if got, want := liveTables(db2.shards[0]), liveTables(closed); got != want {
		t.Errorf("the recovered version names tables %s, the closed one named %s", got, want)
	}
}
