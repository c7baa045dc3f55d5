package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/compaction"
	"repro/internal/version"
)

// newBenchBatch builds a 100-op batch for the commit benchmark; shared here
// so the benchmark file stays minimal.
func newBenchBatch(i int, val []byte) *batch.Batch {
	b := batch.New()
	for j := 0; j < 100; j++ {
		b.Set([]byte(fmt.Sprintf("batch-%08d-%02d", i, j)), val)
	}
	return b
}

// TestLDCSliceReadPathDirect builds a known link state through the public
// write path and asserts that keys whose newest version lives only in a
// frozen slice are still served correctly at every point of the lifecycle:
// after link, after partial merges, and after the frozen file is released.
func TestLDCSliceReadPathDirect(t *testing.T) {
	opts := smallOpts(compaction.LDC)
	opts.SliceLinkThreshold = 100 // keep slices outstanding: no count-triggered merges
	db := openTestDB(t, opts)
	defer db.Close()

	// Build a multi-level tree with overwrites so newer versions sit above
	// older ones.
	write := func(round int) {
		for i := 0; i < 2000; i++ {
			if err := db.Put(key(i), []byte(fmt.Sprintf("r%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(1)
	db.CompactRange()
	write(2)
	db.CompactRange()
	write(3)
	db.CompactRange()
	db.WaitIdle()

	prof := db.CurrentProfile()
	totalSlices := 0
	for _, lp := range prof.Levels {
		totalSlices += lp.Slices
	}
	if prof.FrozenFiles == 0 && totalSlices == 0 {
		t.Log("note: workload produced no outstanding links at verification time")
	}

	// Every key must read its newest round regardless of where it lives.
	for i := 0; i < 2000; i++ {
		got, err := db.Get(key(i))
		if err != nil || string(got) != fmt.Sprintf("r3-%d", i) {
			t.Fatalf("key %d = %q, %v", i, got, err)
		}
	}
	// Scans agree.
	pairs, err := db.Scan(key(0), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2000 {
		t.Fatalf("scan returned %d keys", len(pairs))
	}
	for i, kv := range pairs {
		if !bytes.Equal(kv.Key, key(i)) {
			t.Fatalf("scan position %d: %q", i, kv.Key)
		}
	}
}

// TestLDCFrozenFilesReleasedEventually drives enough churn that links are
// created and consumed, then verifies that no frozen file outlives its
// slices (no leak of frozen-region space).
func TestLDCFrozenFilesReleasedEventually(t *testing.T) {
	db := openTestDB(t, smallOpts(compaction.LDC))
	defer db.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25000; i++ {
		db.Put(key(rng.Intn(5000)), value(i))
	}
	db.CompactRange()
	db.WaitIdle()

	v := db.shards[0].set.Current()
	defer v.Unref()
	// Invariant (also enforced when the version is built): every frozen file
	// is referenced by at least one slice.
	refs := map[uint64]int{}
	for level := 1; level < version.NumLevels; level++ {
		for _, f := range v.Sliced[level] {
			for _, s := range f.Slices {
				refs[s.FrozenNum]++
			}
		}
	}
	for num := range v.Frozen {
		if refs[num] == 0 {
			t.Errorf("frozen file %06d has no referencing slices (leak)", num)
		}
	}
	if got := db.Stats(); got.LinkCount > 0 && got.MergeCount == 0 {
		t.Error("links were created but never merged")
	}
}

// TestSliceThresholdControlsMergeTiming verifies Fig 12(d)'s mechanism
// directly: a larger T_s yields fewer, larger merges and less compaction
// I/O on the same workload.
func TestSliceThresholdControlsMergeTiming(t *testing.T) {
	run := func(ts int) Stats {
		opts := smallOpts(compaction.LDC)
		opts.SliceLinkThreshold = ts
		db := openTestDB(t, opts)
		defer db.Close()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 20000; i++ {
			db.Put(key(rng.Intn(6000)), value(i))
		}
		db.WaitIdle()
		return db.Stats()
	}
	small := run(2)
	large := run(8)
	if small.MergeCount <= large.MergeCount {
		t.Errorf("T_s=2 merges (%d) not more frequent than T_s=8 (%d)",
			small.MergeCount, large.MergeCount)
	}
	smallIO := small.MergeReadBytes + small.MergeWriteBytes
	largeIO := large.MergeReadBytes + large.MergeWriteBytes
	if smallIO > 0 && largeIO > 0 {
		smallPerMerge := smallIO / small.MergeCount
		largePerMerge := largeIO / large.MergeCount
		if largePerMerge <= smallPerMerge {
			t.Errorf("per-merge I/O did not grow with T_s: %d vs %d",
				smallPerMerge, largePerMerge)
		}
	}
}

// TestFlushOfOversizedMemtableIsOneTable: a flush shares the compaction's
// table-writing loop but not its size cap — a memtable several times
// SSTableSize still becomes exactly one L0 table.
func TestFlushOfOversizedMemtableIsOneTable(t *testing.T) {
	opts := smallOpts(compaction.LDC)
	opts.MemTableSize = 256 << 10
	db := openManualDB(t, opts)
	defer db.Close()
	for i := 0; i < 1000; i++ {
		if err := db.Put(key(i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	v := db.shards[0].set.Current()
	defer v.Unref()
	if n := db.Stats().FlushCount; n != 1 || v.NumFiles(0) != 1 {
		t.Fatalf("FlushCount = %d with %d L0 files, want one flush producing one table", n, v.NumFiles(0))
	}
	if size := v.Levels[0][0].Size; size < 3*opts.SSTableSize {
		t.Fatalf("L0 table is %d bytes; the test needs several times SSTableSize (%d)", size, opts.SSTableSize)
	}
}

// TestMergeLeavesCompactPointer steps the store by hand and checks the one
// thing a merge does differently from the other rewrites: its target was
// chosen by slice count, not by the level's round-robin cursor, so neither
// the persisted cursor nor the picker's copy moves.
func TestMergeLeavesCompactPointer(t *testing.T) {
	db := openManualDB(t, smallOpts(compaction.LDC)) // the test is the worker
	defer db.Close()
	st := db.shards[0]
	rng := rand.New(rand.NewSource(5))
	merges, advanced := 0, 0
	for round := 0; round < 200 && (merges == 0 || advanced == 0); round++ {
		for i := 0; i < 300; i++ {
			if err := db.Put(key(rng.Intn(4000)), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		for pick := nextPick(st); pick.Kind != compaction.PickNone; pick = nextPick(st) {
			before := st.set.CompactPointer(pick.Level)
			if err := runStep(t, st); err != nil {
				t.Fatal(err)
			}
			st.mu.Lock()
			after, inPicker := st.set.CompactPointer(pick.Level), st.picker.Pointer(pick.Level)
			st.mu.Unlock()
			moved := !bytes.Equal(before, after)
			if !bytes.Equal(after, inPicker) {
				t.Fatalf("%v at L%d: picker cursor %q, persisted %q", pick.Kind, pick.Level, inPicker, after)
			}
			if pick.Kind == compaction.PickMerge {
				merges++
				if moved {
					t.Fatalf("merge at L%d moved the cursor %q -> %q", pick.Level, before, after)
				}
			} else if moved {
				advanced++
			}
		}
	}
	if merges == 0 || advanced == 0 {
		t.Fatalf("%d merges, %d cursor advances: the workload exercised neither side", merges, advanced)
	}
}
