package core

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/compaction"
	"repro/internal/compress"
	"repro/internal/ssdsim"
	"repro/internal/vfs"
)

// heldRemovals is a filesystem whose table removals each wait until the test
// takes them from held and lets them go through release, or until free is
// closed.
type heldRemovals struct {
	vfs.FS
	held, release, free chan struct{}
}

func (fs *heldRemovals) Remove(name string) error {
	if strings.HasSuffix(name, ".sst") {
		select {
		case fs.held <- struct{}{}:
			<-fs.release
		case <-fs.free:
		}
	}
	return fs.FS.Remove(name)
}

// TestCompactRangeWaitsForCleanup: CompactRange returns only once the last
// job has deleted the tables it made obsolete. Every table removal waits
// until the test lets it go; CompactRange must not return while one waits,
// and on return no table on disk may be unreferenced. With a compaction
// worker, the worker's first rewrite is held in its cleanup from the fill on,
// after it has announced the job's end.
func TestCompactRangeWaitsForCleanup(t *testing.T) {
	for _, compactor := range []bool{false, true} {
		t.Run(fmt.Sprintf("compactor=%v", compactor), func(t *testing.T) {
			fs := &heldRemovals{FS: vfs.Mem(), held: make(chan struct{}), release: make(chan struct{}), free: make(chan struct{})}
			opts := smallOpts(compaction.UDC)
			opts.FS = fs
			db, err := openDB("/db", opts, compactor)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			defer close(fs.free)
			model := runWorkload(t, db, 7, 500)

			done := make(chan error, 1)
			go func() { done <- db.CompactRange() }()
			held := 0
			for {
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("CompactRange: %v", err)
					}
					if held == 0 {
						t.Fatal("CompactRange removed no table: the test exercised nothing")
					}
					if left := unreferencedTables(t, fs, db.shards[0]); len(left) > 0 {
						t.Errorf("CompactRange returned with tables no version names still on disk: %v", left)
					}
					checkContents(t, db, model, 500, "after CompactRange")
					return
				case <-fs.held:
					held++
					select {
					case err := <-done:
						done <- err // seen again, and checked, once the removal is let go
						t.Errorf("CompactRange returned (%v) while removal %d was held", err, held)
					case <-time.After(5 * time.Millisecond):
					}
					fs.release <- struct{}{}
				}
			}
		})
	}
}

// TestBusyTimeCountedOnce: each half of a step counts its own time, once.
// Flushes alone add no compaction time, and compactions alone no flush time;
// and on one shard, with one flush worker and one compaction worker, neither
// FlushTime nor CompactionTime can exceed the wall time of the run.
func TestBusyTimeCountedOnce(t *testing.T) {
	manual := openManualDB(t, smallOpts(compaction.LDC))
	defer manual.Close()
	runWorkload(t, manual, 5, 500)
	if err := manual.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed := manual.Stats()
	if err := manual.CompactRange(); err != nil {
		t.Fatal(err)
	}
	compacted := manual.Stats()
	if flushed.FlushTime == 0 || flushed.CompactionTime != 0 {
		t.Errorf("flushes alone: FlushTime %v, CompactionTime %v; want flush time only", flushed.FlushTime, flushed.CompactionTime)
	}
	if compacted.FlushTime != flushed.FlushTime || compacted.CompactionTime == 0 {
		t.Errorf("compactions alone moved FlushTime %v -> %v and CompactionTime to %v; want compaction time only",
			flushed.FlushTime, compacted.FlushTime, compacted.CompactionTime)
	}

	start := time.Now()
	db := openTestDB(t, smallOpts(compaction.LDC))
	runWorkload(t, db, 5, 2000)
	db.WaitIdle()
	s := db.Stats()
	wall := time.Since(start)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if s.FlushCount == 0 || s.CompactionCount+s.LinkCount+s.MergeCount == 0 {
		t.Fatalf("%d flushes, %d compactions, %d links, %d merges: the run exercised nothing", s.FlushCount, s.CompactionCount, s.LinkCount, s.MergeCount)
	}
	if s.FlushTime > wall || s.CompactionTime > wall {
		t.Errorf("FlushTime %v, CompactionTime %v over a run of %v: a worker's time is counted more than once", s.FlushTime, s.CompactionTime, wall)
	}
}

// TestFlushLandsReplayedTail: entries replayed from the WAL at Open are in
// no table yet, so a Flush right after the reopen writes them out.
func TestFlushLandsReplayedTail(t *testing.T) {
	opts := smallOpts(compaction.LDC)
	opts.MemTableSize = 1 << 20 // every put stays in the memtable
	db := openTestDB(t, opts)
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openTestDB(t, opts)
	defer db.Close()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st := db.shards[0]
	st.mu.Lock()
	left := !st.mem.Empty() || st.imm != nil
	st.mu.Unlock()
	if n := db.Stats().FlushCount; n != 1 || left {
		t.Errorf("Flush after a reopen ran %d flushes and left the memtables non-empty: %v", n, left)
	}
}

// TestStepIsDeterministic: two stores with no compaction worker, fed the same
// seeded stream of Puts and Deletes and stepped at the same points, run the
// same sequence of picks, read the same compaction input bytes in the same
// requests, and end with the same tree, file for file and slice for slice. At
// a step point the memtable is flushed first, so no flush is in flight beside
// the steps.
func TestStepIsDeterministic(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/shards=%d", policy, shards), func(t *testing.T) {
				picks, tree, reads := stepTrace(t, smallOpts(policy), shards, 42, stepOps, value)
				picks2, tree2, reads2 := stepTrace(t, smallOpts(policy), shards, 42, stepOps, value)
				if picks != picks2 {
					t.Errorf("pick sequences differ:\n%s\n%s", picks, picks2)
				}
				if tree != tree2 {
					t.Errorf("trees differ:\n%s\n%s", tree, tree2)
				}
				if reads != reads2 {
					t.Errorf("compaction reads differ: %+v, then %+v", reads, reads2)
				}
				kinds := []compaction.Kind{compaction.PickCompact}
				if policy == compaction.LDC {
					kinds = append(kinds, compaction.PickLink, compaction.PickMerge)
				}
				for _, k := range kinds {
					if !strings.Contains(picks, k.String()) {
						t.Errorf("no %v among the picks %s: the run exercised too little", k, picks)
					}
				}
			})
		}
	}
}

// TestCompactionReadsUnchanged pins what the steps of TestStepIsDeterministic's
// stream read for compaction on one shard: the requests and bytes the device
// charged to the compaction-read category. Only the reading of compaction
// inputs moves them — the run size, where a slice window's reads start and
// stop — so a refactor of the table iterators must leave them as they are. The
// small tables carry links and merges (slice windows); the large ones, of
// more than one IOChunk, are read in several runs.
func TestCompactionReadsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		policy            compaction.Policy
		memTable, sstable int64 // 0: smallOpts'
		ops, bytes        int64
	}{
		{compaction.UDC, 0, 0, 208, 1081962},
		{compaction.LDC, 0, 0, 218, 885066},
		{compaction.UDC, 24 << 10, 72 << 10, 103, 1142957},
	} {
		opts := smallOpts(tc.policy)
		if tc.sstable > 0 {
			opts.MemTableSize, opts.SSTableSize = tc.memTable, tc.sstable
		}
		_, _, reads := stepTrace(t, opts, 1, 42, stepOps, value)
		if reads.ReadOps != tc.ops || reads.ReadBytes != tc.bytes {
			t.Errorf("%v, %d-byte tables: compaction read %d bytes in %d requests, want %d in %d",
				tc.policy, opts.SSTableSize, reads.ReadBytes, reads.ReadOps, tc.bytes, tc.ops)
		}
	}
}

// TestLZ4CompactionReadsRepeat: a stepped run of LZ4 tables (4 KiB blocks,
// 128 KiB tables, 1 KiB values that repeat their op's stamp) reads the same
// compaction bytes in the same requests every time, because a block's encoding
// is a function of its bytes alone, not of what the process compressed before
// it. While the encoder trusted the stale slots of its pooled match table, one
// run in a few read 2 bytes more or less.
func TestLZ4CompactionReadsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("three stepped runs of 40 000 ops")
	}
	opts := smallOpts(compaction.LDC)
	opts.Compression = compress.LZ4
	opts.BlockSize, opts.MemTableSize, opts.SSTableSize = 4<<10, 128<<10, 128<<10
	val := func(op int) []byte { return bytes.Repeat(value(op), 1024/len(value(op))+1)[:1024] }
	var first ssdsim.CatStats
	for run := 0; run < 3; run++ {
		_, _, reads := stepTrace(t, opts, 1, 42, 40000, val)
		if run == 0 {
			first = reads
		} else if reads != first {
			t.Errorf("run %d read %d bytes in %d requests for compaction, run 0 %d in %d",
				run, reads.ReadBytes, reads.ReadOps, first.ReadBytes, first.ReadOps)
		}
	}
	t.Logf("each run read %d bytes in %d requests for compaction", first.ReadBytes, first.ReadOps)
}

// stepOps is the length of the seeded stream of TestStepIsDeterministic.
const stepOps = 8000

// stepTrace runs a seeded stream of ops Puts and Deletes over 3000 keys, the
// value of op number i val(i), on a fresh store opened with opts, and returns
// the picks its steps ran, in order, a listing of every shard's tree, and what
// the device served the compaction reads, which Stats.CompactionReadBytes must
// count.
func stepTrace(t *testing.T, opts Options, shards int, seed int64, ops int, val func(op int) []byte) (picks, tree string, reads ssdsim.CatStats) {
	dev := ssdsim.NewDevice(ssdsim.Profile{}) // accounting only
	opts.Shards = shards
	opts.FS = ssdsim.Wrap(vfs.Mem(), dev)
	db := openManualDB(t, opts)
	defer db.Close()
	var log strings.Builder
	stepAll := func(max int) {
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, st := range db.shards {
			for i := 0; i < max; i++ {
				pick := nextPick(st)
				did, err := st.step()
				if err != nil {
					t.Fatal(err)
				}
				if !did {
					break
				}
				fmt.Fprintf(&log, "%d:%v@%d ", st.shardID, pick.Kind, pick.Level)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for op := 0; op < ops; op++ {
		k := key(rng.Intn(3000))
		var err error
		if rng.Intn(10) == 0 {
			err = db.Delete(k)
		} else {
			err = db.Put(k, val(op))
		}
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(100) == 0 {
			stepAll(1 + rng.Intn(6))
		}
	}
	stepAll(1 << 30)
	var b strings.Builder
	for _, st := range db.shards {
		v := st.set.Current()
		fmt.Fprintf(&b, "shard %d\n", st.shardID)
		for level, files := range v.Levels {
			for _, f := range files {
				fmt.Fprintf(&b, "L%d %d %d %q %q", level, f.Num, f.Size, f.Smallest, f.Largest)
				for _, s := range f.Slices {
					fmt.Fprintf(&b, " [%d %q %q %d %d]", s.FrozenNum, s.Range.Lo, s.Range.Hi, s.LinkSeq, s.Bytes)
				}
				b.WriteByte('\n')
			}
		}
		frozen := make([]uint64, 0, len(v.Frozen))
		for num := range v.Frozen {
			frozen = append(frozen, num)
		}
		slices.Sort(frozen)
		for _, num := range frozen {
			f := v.Frozen[num]
			fmt.Fprintf(&b, "frozen %d %d %q %q\n", f.Num, f.Size, f.Smallest, f.Largest)
		}
		v.Unref()
	}
	reads = dev.Snapshot().ByCategory[ssdsim.CatCompactionRead]
	if n := db.Stats().CompactionReadBytes; n != reads.ReadBytes {
		t.Errorf("Stats.CompactionReadBytes = %d, the device read %d for compaction", n, reads.ReadBytes)
	}
	return log.String(), b.String(), reads
}

// TestNoSleepInEngine: background work wakes on its condition variables,
// never on a polling sleep or a deadline. No non-test file of the package
// calls time.Sleep, time.After, time.AfterFunc or time.NewTimer; the one
// clock that starts work is the value-GC pacing's time.NewTicker.
func TestNoSleepInEngine(t *testing.T) {
	banned := map[string]bool{"Sleep": true, "After": true, "AfterFunc": true, "NewTimer": true}
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !banned[sel.Sel.Name] {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" {
				t.Errorf("%s: time.%s in the engine: wait on a condition instead", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if files == 0 {
		t.Fatal("no engine file parsed")
	}
}
