package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compaction"
	"repro/internal/ssdsim"
	"repro/internal/sstable"
	"repro/internal/version"
	"repro/internal/vfs"
)

// openManualDB opens a store with no compaction worker: the test is the
// worker, and steps it.
func openManualDB(t testing.TB, opts Options) *DB {
	t.Helper()
	db, err := openDB("/db", opts, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// nextPick is the compaction the next step of st runs when no flush is
// pending (after a Flush, with no writer): Pick is a pure function of the
// version and the cursors, so the peeked pick is the one step runs.
func nextPick(st *store) compaction.Pick {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.picker.Pick(st.set.CurrentNoRef())
}

// runStep runs st's next job on the test's goroutine, as the compaction
// worker would, and fails the test if there was none.
func runStep(t testing.TB, st *store) error {
	t.Helper()
	did, err := st.step()
	if !did && err == nil {
		t.Fatal("step found no job")
	}
	return err
}

// nextRewrite fills the tree, perRound puts and a flush at a time, running the
// picks that move no data, until the next pick is one that reads its inputs.
func nextRewrite(t *testing.T, db *DB, perRound int) compaction.Pick {
	t.Helper()
	st := db.shards[0]
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 20; round++ {
		for i := 0; i < perRound; i++ {
			if err := db.Put(key(rng.Intn(4000)), value(i)); err != nil { // overlapping flushes
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		for pick := nextPick(st); pick.Kind != compaction.PickNone; pick = nextPick(st) {
			if pick.Kind == compaction.PickCompact || pick.Kind == compaction.PickMerge {
				return pick
			}
			if err := runStep(t, st); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Fatal("no rewrite was ever picked")
	return compaction.Pick{}
}

func liveTables(st *store) string {
	var nums []string
	for num := range st.set.LiveFileNums() {
		nums = append(nums, fmt.Sprint(num))
	}
	sortStrings(nums)
	return strings.Join(nums, ",")
}

// TestCompactionReadBytesAreMeasured drives an LDC tree's picks one at a
// time over the simulated device and holds Stats.CompactionReadBytes to what
// the device saw under the compaction-read category after every one of them:
// the counter is the bytes the input passes fetched, not an estimate. The
// merges' share must come out well below the frozen files' full size, which
// is the paper's Fig 10(c) claim, now measured.
func TestCompactionReadBytesAreMeasured(t *testing.T) {
	dev := ssdsim.NewDevice(ssdsim.Profile{}) // accounting only
	opts := smallOpts(compaction.LDC)
	opts.FS = ssdsim.Wrap(vfs.Mem(), dev)
	db := openManualDB(t, opts)
	defer db.Close()
	st := db.shards[0]
	rng := rand.New(rand.NewSource(16))
	var rewrites, sliceInputs int
	var frozenBytes int64 // full size of every frozen file a merge read a slice of
	for round := 0; round < 40; round++ {
		for i := 0; i < 300; i++ {
			if err := db.Put(key(rng.Intn(4000)), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		for pick := nextPick(st); pick.Kind != compaction.PickNone; pick = nextPick(st) {
			if pick.Kind == compaction.PickMerge {
				v := st.set.Current()
				for _, s := range pick.Inputs[0].Slices {
					sliceInputs++
					frozenBytes += v.Frozen[s.FrozenNum].Size
				}
				v.Unref()
			}
			if err := runStep(t, st); err != nil {
				t.Fatal(err)
			}
			if pick.Kind != compaction.PickLink && pick.Kind != compaction.PickTrivialMove {
				rewrites++
			}
			got, want := db.Stats().CompactionReadBytes, dev.Snapshot().ByCategory[ssdsim.CatCompactionRead].ReadBytes
			if got != want {
				t.Fatalf("after %v at L%d: Stats.CompactionReadBytes = %d, the device read %d for compaction", pick.Kind, pick.Level, got, want)
			}
		}
	}
	s := db.Stats()
	if rewrites == 0 || s.MergeCount == 0 || sliceInputs == 0 || s.CompactionReadBytes == 0 {
		t.Fatalf("%d rewrites, %d merges over %d slices, %d bytes read: the run exercised nothing", rewrites, s.MergeCount, sliceInputs, s.CompactionReadBytes)
	}
	if user := dev.Snapshot().ByCategory[ssdsim.CatUserRead]; user.ReadOps != 0 {
		t.Errorf("a write-only run made %d user reads: compaction opened a table on the read path's account", user.ReadOps)
	}
	// A merge reads its target whole and only a window of each frozen file.
	if s.MergeReadBytes >= s.MergeWriteBytes+frozenBytes/2 {
		t.Errorf("merges read %d bytes for %d written and %d bytes of frozen files linked: slices are not read window-exact",
			s.MergeReadBytes, s.MergeWriteBytes, frozenBytes)
	}
}

var offsetInErr = regexp.MustCompile(`offset (\d+)`)

// TestCompactionInputCorruptBlock flips one byte in the third block of a
// compaction input — inside the run the pass fetches in one read, behind two
// good blocks — and requires the job to fail with sstable.ErrCorrupt naming
// the file and the block, to apply no version edit, to keep its inputs, and
// to leave the store readable.
func TestCompactionInputCorruptBlock(t *testing.T) {
	efs := vfs.NewErrFS(vfs.Mem())
	opts := smallOpts(compaction.LDC)
	opts.FS = efs
	db := openManualDB(t, opts)
	defer db.Close()
	st := db.shards[0]
	pick := nextRewrite(t, db, 300)
	victim := pick.Inputs[0]
	// With 512-byte blocks of ~30-byte entries a block takes 517 to 560 bytes
	// on disk, so byte 1300 is in the third one whatever the exact sizes.
	if err := efs.FlipBit(version.TableFileName(st.dir, victim.Num), 1300); err != nil {
		t.Fatal(err)
	}
	before := liveTables(st)

	err := db.CompactRange()
	if !errors.Is(err, sstable.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("file %06d", victim.Num)) {
		t.Fatalf("CompactRange = %v, want sstable.ErrCorrupt naming file %06d", err, victim.Num)
	}
	m := offsetInErr.FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("error %q names no block offset", err)
	}
	if off, _ := strconv.Atoi(m[1]); off < 2*517 || off > 1300 || off+560 < 1300 {
		t.Errorf("error names the block at offset %d, which does not hold byte 1300 as a third block", off)
	}
	if after := liveTables(st); after != before {
		t.Errorf("live tables changed across the failed job: %s -> %s", before, after)
	}
	for _, f := range append(append([]*version.FileMeta(nil), pick.Inputs...), pick.Overlaps...) {
		if !efs.Exists(version.TableFileName(st.dir, f.Num)) {
			t.Errorf("input %06d was deleted by a job that failed", f.Num)
		}
	}
	// A key in another input of the same job, and one in the victim's own
	// first, uncorrupted block.
	for _, k := range [][]byte{pick.Inputs[len(pick.Inputs)-1].Smallest.UserKey(), victim.Smallest.UserKey()} {
		if _, err := db.Get(k); err != nil {
			t.Errorf("Get(%s) after the failed job: %v", k, err)
		}
	}
	if err := db.Put(key(1), value(1)); !errors.Is(err, sstable.ErrCorrupt) {
		t.Errorf("Put after the failed job = %v, want the background error", err)
	}
}

// TestCompactionInputReadError fails, then shortens, the read of the second
// run of a compaction input. Either way the error must come out of the input
// iterator into the background-error path; a pass that ended early without
// one would make the job write, and install, a table missing the rest of the
// input.
func TestCompactionInputReadError(t *testing.T) {
	for name, fault := range map[string]func(n int) (int, error){
		"failed":    func(n int) (int, error) { return 0, errInjected },
		"shortened": func(n int) (int, error) { return n / 2, nil },
	} {
		t.Run(name, func(t *testing.T) {
			mem := vfs.Mem()
			efs := vfs.NewErrFS(mem)
			opts := smallOpts(compaction.LDC)
			opts.FS = efs
			opts.BlockSize = 4096
			opts.MemTableSize = 256 << 10 // tables of several runs each
			opts.SSTableSize = 256 << 10
			db := openManualDB(t, opts)
			st := db.shards[0]
			val := bytes.Repeat([]byte("v"), 1024)
			const n = 4 * 200
			for i := 0; i < n; i++ {
				k := key(i%200*4 + i/200) // four flushes, each spanning the key space
				if err := db.Put(k, append(val, value(i)...)); err != nil {
					t.Fatal(err)
				}
				if i%200 == 199 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			pick := nextPick(st)
			if pick.Kind != compaction.PickCompact || pick.Inputs[0].Size < 2*sstable.IOChunk {
				t.Fatalf("next pick is %v with a first input of %d bytes, want a rewrite of multi-run tables", pick.Kind, pick.Inputs[0].Size)
			}
			before := liveTables(st)
			reads := map[string]int{}
			hit := ""
			efs.SetReadHook(func(name string, off int64, n int) (int, error) {
				reads[name]++
				if reads[name] == 2 && hit == "" && off > 0 {
					hit = name
					return fault(n)
				}
				return n, nil
			})
			err := db.CompactRange()
			efs.SetReadHook(nil)
			if hit == "" {
				t.Fatal("no input was read in more than one run")
			}
			want := errInjected
			if name == "shortened" {
				want = io.ErrUnexpectedEOF
			}
			if !errors.Is(err, want) {
				t.Fatalf("CompactRange = %v, want %v from the second run of %s", err, want, hit)
			}
			if after := liveTables(st); after != before {
				t.Errorf("live tables changed across the failed job: %s -> %s", before, after)
			}
			check := func(db *DB) {
				t.Helper()
				for i := 0; i < n; i++ {
					k := key(i%200*4 + i/200)
					got, err := db.Get(k)
					if err != nil || !bytes.Equal(got, append(val, value(i)...)) {
						t.Fatalf("Get(%s) = %d bytes, %v", k, len(got), err)
					}
				}
			}
			check(db)
			if err := db.Close(); err != nil && !errors.Is(err, want) {
				t.Fatal(err)
			}
			// The partial output is an orphan: the reopened store sweeps it and
			// the retried job sees every entry.
			opts.FS = mem
			db2 := openManualDB(t, opts)
			defer db2.Close()
			if err := db2.CompactRange(); err != nil {
				t.Fatal(err)
			}
			check(db2)
			if orphans := orphanTables(t, mem, db2); len(orphans) != 0 {
				t.Errorf("orphan tables after reopen: %v", orphans)
			}
		})
	}
}
