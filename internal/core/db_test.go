package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/commit"
	"repro/internal/compaction"
	"repro/internal/invariants"
	"repro/internal/version"
	"repro/internal/vfs"
)

// smallOpts builds a tiny tree so a few thousand writes exercise multiple
// levels, links, and merges.
func smallOpts(policy compaction.Policy) Options {
	return Options{
		FS:                 vfs.Mem(),
		Policy:             policy,
		MemTableSize:       8 << 10,
		SSTableSize:        8 << 10,
		Fanout:             4,
		SliceLinkThreshold: 3,
		BlockSize:          512,
		BlockCacheSize:     1 << 20,
	}
}

func openTestDB(t testing.TB, opts Options) *DB {
	t.Helper()
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func key(i int) []byte   { return []byte(fmt.Sprintf("key-%08d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%08d", i)) }

func TestPutGetDelete(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			db := openTestDB(t, smallOpts(policy))
			defer db.Close()

			if err := db.Put([]byte("k"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			got, err := db.Get([]byte("k"))
			if err != nil || string(got) != "v1" {
				t.Fatalf("Get = %q, %v", got, err)
			}
			if err := db.Put([]byte("k"), []byte("v2")); err != nil {
				t.Fatal(err)
			}
			got, _ = db.Get([]byte("k"))
			if string(got) != "v2" {
				t.Fatalf("overwrite lost: %q", got)
			}
			if err := db.Delete([]byte("k")); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key err = %v", err)
			}
			if _, err := db.Get([]byte("absent")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("absent key err = %v", err)
			}
		})
	}
}

func fillSequential(t testing.TB, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), value(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
}

func TestPersistenceThroughFlushAndCompaction(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			db := openTestDB(t, smallOpts(policy))
			defer db.Close()
			const n = 5000
			fillSequential(t, db, n)
			if err := db.CompactRange(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i += 7 {
				got, err := db.Get(key(i))
				if err != nil || !bytes.Equal(got, value(i)) {
					t.Fatalf("key %d after compaction: %q, %v", i, got, err)
				}
			}
			// The tree must have spilled beyond L0.
			prof := db.CurrentProfile()
			deep := 0
			for _, lp := range prof.Levels[1:] {
				deep += lp.Files
			}
			if deep == 0 {
				t.Error("no files below L0 after 5000 writes")
			}
		})
	}
}

// TestLDCPerformsLinksAndMerges also pins that a compaction stays off the
// read path's books: every link and merge here runs inside CompactRange with
// no read in flight, and across it the block cache sees no lookup and the
// shard's table readers count no fetch into its read sink, which keeps what
// the readers of compacted files counted.
func TestLDCPerformsLinksAndMerges(t *testing.T) {
	db := openManualDB(t, smallOpts(compaction.LDC))
	defer db.Close()
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 12; round++ {
		for i := 0; i < 1000; i++ {
			if err := db.Put(key(rng.Intn(4000)), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ { // open readers, fill the cache
			if _, err := db.Get(key(rng.Intn(4000))); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
		}
		before := db.Stats()
		if err := db.CompactRange(); err != nil {
			t.Fatal(err)
		}
		after := db.Stats()
		if after.BlockCacheHits != before.BlockCacheHits || after.BlockCacheMisses != before.BlockCacheMisses {
			t.Fatalf("compaction looked blocks up in the cache: hits %d -> %d, misses %d -> %d",
				before.BlockCacheHits, after.BlockCacheHits, before.BlockCacheMisses, after.BlockCacheMisses)
		}
		if after.BlockReads != before.BlockReads {
			t.Fatalf("compaction moved BlockReads %d -> %d", before.BlockReads, after.BlockReads)
		}
		if after.CompressedBytesRead != before.CompressedBytesRead {
			t.Fatalf("compaction moved CompressedBytesRead %d -> %d", before.CompressedBytesRead, after.CompressedBytesRead)
		}
	}
	s := db.Stats()
	if s.LinkCount == 0 {
		t.Error("LDC never linked")
	}
	if s.MergeCount == 0 {
		t.Error("LDC never merged")
	}
	if s.BlockCacheMisses == 0 || s.BlockReads == 0 {
		t.Error("the reads between compactions never reached a table")
	}
}

func TestUDCNeverLinks(t *testing.T) {
	db := openTestDB(t, smallOpts(compaction.UDC))
	defer db.Close()
	fillSequential(t, db, 4000)
	db.CompactRange()
	s := db.Stats()
	if s.LinkCount != 0 || s.MergeCount != 0 {
		t.Errorf("UDC produced links=%d merges=%d", s.LinkCount, s.MergeCount)
	}
}

// TestRandomizedCrosscheck runs a random workload against every policy and
// verifies each state-changing step against an in-memory model. This is the
// main end-to-end correctness test for the LDC read path (slices, frozen
// files, merges).
func TestRandomizedCrosscheck(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			db := openTestDB(t, smallOpts(policy))
			defer db.Close()
			model := map[string]string{}
			rng := rand.New(rand.NewSource(42))
			const ops = 15000
			keySpace := 3000
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("key-%06d", rng.Intn(keySpace))
				switch rng.Intn(10) {
				case 0: // delete
					if err := db.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				default: // put
					v := fmt.Sprintf("v-%d", i)
					if err := db.Put([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				}
				if i%2500 == 0 {
					db.CompactRange()
				}
			}
			db.CompactRange()

			// Full point-read verification.
			for k, want := range model {
				got, err := db.Get([]byte(k))
				if err != nil || string(got) != want {
					t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, want)
				}
			}
			// Deleted/absent keys stay absent.
			misses := 0
			for i := 0; i < keySpace; i++ {
				k := fmt.Sprintf("key-%06d", i)
				if _, ok := model[k]; ok {
					continue
				}
				if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
					t.Fatalf("absent key %s: err=%v", k, err)
				}
				misses++
			}
			if misses == 0 {
				t.Log("warning: no absent keys exercised")
			}
		})
	}
}

func TestScanMatchesModel(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			db := openTestDB(t, smallOpts(policy))
			defer db.Close()
			model := map[string]string{}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 8000; i++ {
				k := fmt.Sprintf("key-%06d", rng.Intn(2000))
				v := fmt.Sprintf("v-%d", i)
				db.Put([]byte(k), []byte(v))
				model[k] = v
				if i%1000 == 0 {
					db.CompactRange()
				}
			}
			db.CompactRange()

			// Sorted model keys.
			var sorted []string
			for k := range model {
				sorted = append(sorted, k)
			}
			sortStrings(sorted)

			// Full scan via iterator.
			it, err := db.NewIterator(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			i := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if i >= len(sorted) {
					t.Fatalf("iterator produced extra key %q", it.Key())
				}
				if string(it.Key()) != sorted[i] {
					t.Fatalf("position %d: got %q want %q", i, it.Key(), sorted[i])
				}
				if string(it.Value()) != model[sorted[i]] {
					t.Fatalf("key %q: got value %q want %q", it.Key(), it.Value(), model[sorted[i]])
				}
				i++
			}
			if err := it.Error(); err != nil {
				t.Fatal(err)
			}
			if i != len(sorted) {
				t.Fatalf("iterator yielded %d keys, model has %d", i, len(sorted))
			}

			// Bounded range scans at random starts.
			for trial := 0; trial < 20; trial++ {
				start := fmt.Sprintf("key-%06d", rng.Intn(2100))
				got, err := db.Scan([]byte(start), 50)
				if err != nil {
					t.Fatal(err)
				}
				wantIdx := searchStrings(sorted, start)
				for j, kv := range got {
					if wantIdx+j >= len(sorted) {
						t.Fatalf("scan overran model")
					}
					if string(kv.Key) != sorted[wantIdx+j] {
						t.Fatalf("scan(%s)[%d] = %q want %q", start, j, kv.Key, sorted[wantIdx+j])
					}
				}
			}
		})
	}
}

// TestIteratorCloseTwice: a second Close of an iterator is a no-op returning
// the first result. The merges under it are pooled, so a Close that reached
// them again would close whatever iterator had taken them since.
func TestIteratorCloseTwice(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := smallOpts(compaction.LDC)
			opts.Shards = shards
			db := openTestDB(t, opts)
			const flushed, n = 2000, 2050
			fillSequential(t, db, flushed)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := flushed; i < n; i++ {
				if err := db.Put(key(i), value(i)); err != nil {
					t.Fatal(err)
				}
			}
			it1, err := db.NewIterator(nil)
			if err != nil {
				t.Fatal(err)
			}
			it1.SeekToFirst()
			if err := it1.Close(); err != nil {
				t.Fatal(err)
			}
			it2, err := db.NewIterator(nil)
			if err != nil {
				t.Fatal(err)
			}
			it2.SeekToFirst()
			if err := it1.Close(); err != nil {
				t.Fatalf("second Close = %v", err)
			}
			walked, panicked := 0, false
			func() {
				// A broken iterator panics here; recover so that the failure
				// is reported instead of Close waiting for its read state.
				defer func() {
					if r := recover(); r != nil {
						panicked = true
						t.Errorf("walk after the other iterator's second Close panicked: %v", r)
					}
				}()
				for ; it2.Valid(); it2.Next() {
					if !bytes.Equal(it2.Key(), key(walked)) || !bytes.Equal(it2.Value(), value(walked)) {
						t.Fatalf("entry %d is %q=%q", walked, it2.Key(), it2.Value())
					}
					walked++
				}
			}()
			if panicked {
				return // the store's read state is wedged: leave it open
			}
			if err := it2.Close(); err != nil || walked != n {
				t.Fatalf("walked %d of %d keys, Close = %v", walked, n, err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIteratorPartsReturnedOnce: the parts of the store's iterator stack go
// back to their pools once, however often their owner is closed. A public
// Iterator closed twice and a shard's pooled iterator closed twice, each
// before and after another scan took parts from the pools, leave two
// iterators opened afterwards sharing nothing — a part put back twice would
// be handed to both — so that stepped in turn, beside scans running on
// another goroutine, each walks every key.
func TestIteratorPartsReturnedOnce(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := smallOpts(compaction.LDC)
			opts.Shards = shards
			db := openTestDB(t, opts)
			defer db.Close()
			const flushed, n = 2000, 2050
			fillSequential(t, db, flushed)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := flushed; i < n; i++ {
				if err := db.Put(key(i), value(i)); err != nil {
					t.Fatal(err)
				}
			}

			stop := make(chan struct{})
			scanErr := make(chan error, 1)
			go func() {
				defer close(scanErr)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					start := (i * 37) % (n - 50)
					kvs, err := db.Scan(key(start), 50)
					if err == nil && len(kvs) != 50 {
						err = fmt.Errorf("Scan(%d, 50) = %d pairs", start, len(kvs))
					}
					for j := 0; err == nil && j < len(kvs); j++ {
						if !bytes.Equal(kvs[j].Key, key(start+j)) || !bytes.Equal(kvs[j].Value, value(start+j)) {
							err = fmt.Errorf("Scan(%d, 50)[%d] = %q=%q", start, j, kvs[j].Key, kvs[j].Value)
						}
					}
					if err != nil {
						scanErr <- err
						return
					}
				}
			}()

			for round := 0; round < 20; round++ {
				it, err := db.NewIterator(nil)
				if err != nil {
					t.Fatal(err)
				}
				it.SeekToFirst()
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Scan(key(0), 10); err != nil {
					t.Fatal(err)
				}
				if err := it.Close(); err != nil {
					t.Fatalf("second Close = %v", err)
				}
				for _, st := range db.shards {
					si, err := st.newIter(nil)
					if err != nil {
						t.Fatal(err)
					}
					si.SeekToFirst()
					if err := si.Close(); err != nil {
						t.Fatal(err)
					}
					if err := si.Close(); err != nil {
						t.Fatalf("second Close of a shard iterator = %v", err)
					}
					a, errA := st.newIter(nil)
					b, errB := st.newIter(nil)
					if errA != nil || errB != nil {
						t.Fatal(errA, errB)
					}
					if a == b {
						t.Fatal("two open shard iterators are one object: a Close put it back twice")
					}
					a.Close()
					b.Close()
				}

				x, err := db.NewIterator(nil)
				if err != nil {
					t.Fatal(err)
				}
				y, err := db.NewIterator(nil)
				if err != nil {
					t.Fatal(err)
				}
				walked := 0
				x.SeekToFirst()
				y.SeekToFirst()
				for x.Valid() && y.Valid() {
					for _, it := range []*Iterator{x, y} {
						if !bytes.Equal(it.Key(), key(walked)) || !bytes.Equal(it.Value(), value(walked)) {
							t.Fatalf("round %d: entry %d is %q=%q", round, walked, it.Key(), it.Value())
						}
						it.Next()
					}
					walked++
				}
				if x.Valid() || y.Valid() || walked != n {
					t.Fatalf("round %d: the iterators walked %d of %d keys together", round, walked, n)
				}
				if err := x.Close(); err != nil {
					t.Fatal(err)
				}
				if err := y.Close(); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			if err := <-scanErr; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreIterUseAfterCloseCaught: under -tags invariants a closed store
// iterator stays out of its pool, so a late use panics instead of reading
// through parts that another scan holds.
func TestStoreIterUseAfterCloseCaught(t *testing.T) {
	if !invariants.Enabled {
		t.Skip("poison checks compile away without -tags invariants")
	}
	db := openTestDB(t, smallOpts(compaction.LDC))
	defer db.Close()
	fillSequential(t, db, 10)
	st := db.shards[0]
	for name, use := range map[string]func(*storeIter){
		"SeekGE":      func(it *storeIter) { it.SeekGE(key(0)) },
		"SeekToFirst": func(it *storeIter) { it.SeekToFirst() },
	} {
		it, err := st.newIter(nil)
		if err != nil {
			t.Fatal(err)
		}
		it.SeekToFirst()
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if again, err := st.newIter(nil); err != nil || again == it {
			t.Fatalf("newIter after Close = %p, %v: the closed iterator went back to the pool", again, err)
		} else {
			again.Close()
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "invariant violated") {
					t.Errorf("%s after Close: recovered %q, want an invariant violation", name, msg)
				}
			}()
			use(it)
		}()
	}
}

// TestScansCountedPerRequest: Stats.Scans counts each Scan and each
// NewIterator once, whatever the number of shards it reads, as Gets counts
// each Get once.
func TestScansCountedPerRequest(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := smallOpts(compaction.LDC)
			opts.Shards = shards
			db := openTestDB(t, opts)
			defer db.Close()
			fillSequential(t, db, 100)
			for i := 0; i < 3; i++ {
				if _, err := db.Scan(key(i), 10); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				it, err := db.NewIterator(nil)
				if err != nil {
					t.Fatal(err)
				}
				it.SeekToFirst()
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got := db.Stats().Scans; got != 5 {
				t.Errorf("Scans = %d after 3 Scans and 2 iterators over %d shards, want 5", got, shards)
			}
		})
	}
}

// TestIteratorSeekSkipsDeleted: with tombstones both compacted into the tree
// and still in the memtable, over live versions in lower levels, a seek to a
// deleted key lands on the next live one and a whole walk skips every
// deleted key.
func TestIteratorSeekSkipsDeleted(t *testing.T) {
	db := openTestDB(t, smallOpts(compaction.LDC))
	defer db.Close()
	const n = 3000
	fillSequential(t, db, n)
	deleted := map[int]bool{}
	for _, i := range []int{0, 100, 101, 1500} {
		if err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		deleted[i] = true
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{102, 2000, n - 1} { // these stay in the memtable
		if err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		deleted[i] = true
	}

	it, err := db.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		for deleted[i] {
			i++
		}
		if !bytes.Equal(it.Key(), key(i)) || !bytes.Equal(it.Value(), value(i)) {
			t.Fatalf("walk at %d: got %q=%q", i, it.Key(), it.Value())
		}
		i++
	}
	if err := it.Error(); err != nil || i != n-1 {
		t.Fatalf("walk stopped at %d: %v", i, err)
	}
	for d := range deleted {
		it.Seek(key(d))
		next := d + 1
		for deleted[next] {
			next++
		}
		if next >= n {
			if it.Valid() {
				t.Errorf("Seek(%d) landed on %q, want the end", d, it.Key())
			}
			continue
		}
		if !it.Valid() || !bytes.Equal(it.Key(), key(next)) {
			t.Errorf("Seek(%d) landed on %q (valid %v), want key %d", d, it.Key(), it.Valid(), next)
		}
	}
}

// TestIteratorReseekAfterWalk: an iterator over a memtable and several levels
// is re-seeked — back to earlier keys, from mid-walk and from past the end —
// and each walk that follows yields every later key with its value.
func TestIteratorReseekAfterWalk(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := smallOpts(compaction.LDC)
			opts.Shards = shards
			db := openTestDB(t, opts)
			defer db.Close()
			const n = 2500
			fillSequential(t, db, n)
			for i := 0; i < n; i += 7 { // newer versions, some in the memtable
				if err := db.Put(key(i), value(i)); err != nil {
					t.Fatal(err)
				}
			}
			it, err := db.NewIterator(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			walk := func(op string, from, steps int) {
				t.Helper()
				i := from
				for ; it.Valid() && (steps < 0 || i < from+steps); it.Next() {
					if !bytes.Equal(it.Key(), key(i)) || !bytes.Equal(it.Value(), value(i)) {
						t.Fatalf("%s: entry %d is %q=%q", op, i, it.Key(), it.Value())
					}
					i++
				}
				if err := it.Error(); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				if steps < 0 && i != n {
					t.Fatalf("%s: walk stopped at %d", op, i)
				}
			}
			it.SeekToFirst()
			walk("SeekToFirst", 0, -1)
			for _, s := range []struct{ from, steps int }{{2000, 30}, {10, 300}, {1200, -1}, {1199, 5}, {0, 2}, {n - 1, -1}} {
				it.Seek(key(s.from))
				walk(fmt.Sprintf("Seek(%d)", s.from), s.from, s.steps)
			}
			it.SeekToFirst()
			walk("SeekToFirst after the end", 0, -1)
		})
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := openTestDB(t, smallOpts(compaction.LDC))
	defer db.Close()
	db.Put([]byte("k"), []byte("old"))
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	db.Put([]byte("k"), []byte("new"))
	db.Put([]byte("k2"), []byte("after"))

	got, err := db.GetAt([]byte("k"), snap)
	if err != nil || string(got) != "old" {
		t.Errorf("snapshot Get = %q, %v", got, err)
	}
	if _, err := db.GetAt([]byte("k2"), snap); !errors.Is(err, ErrNotFound) {
		t.Errorf("snapshot sees later key: %v", err)
	}
	got, _ = db.Get([]byte("k"))
	if string(got) != "new" {
		t.Errorf("latest Get = %q", got)
	}
}

func TestSnapshotSurvivesCompaction(t *testing.T) {
	db := openTestDB(t, smallOpts(compaction.LDC))
	defer db.Close()
	db.Put([]byte("pinned"), []byte("v-old"))
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	// Bury the old version under churn and compactions.
	for i := 0; i < 6000; i++ {
		db.Put(key(i%1500), value(i))
	}
	db.Put([]byte("pinned"), []byte("v-new"))
	db.CompactRange()

	got, err := db.GetAt([]byte("pinned"), snap)
	if err != nil || string(got) != "v-old" {
		t.Errorf("snapshot after compaction = %q, %v", got, err)
	}
}

// TestSnapshotDoubleRelease: shards count snapshot registrations per
// sequence, so a second Release of one snapshot must not drop another
// snapshot's registration at the same sequence — compaction would then
// discard the version the other snapshot still reads.
func TestSnapshotDoubleRelease(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			db := openTestDB(t, smallOpts(policy))
			defer db.Close()
			k := []byte("k")
			if err := db.Put(k, []byte("old")); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			a, err := db.NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := db.NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer b.Release()
			a.Release()
			a.Release()
			if err := db.Put(k, []byte("new")); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if err := db.Put(key(i), value(i)); err != nil {
					t.Fatal(err)
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CompactRange(); err != nil {
				t.Fatal(err)
			}
			if got, err := db.GetAt(k, b); err != nil || string(got) != "old" {
				t.Errorf("GetAt(k, b) = %q, %v; want \"old\"", got, err)
			}
		})
	}
}

// TestSnapshotsPinMoreVersionsThanATableHolds: the versions of one user key
// that snapshots keep alive can outgrow a table. A compaction's outputs must
// still have disjoint user-key ranges — the table is cut at the next change of
// user key, not in the middle of one — or the edit is refused and the store
// stops on a background error.
func TestSnapshotsPinMoreVersionsThanATableHolds(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		db := openTestDB(t, smallOpts(policy)) // 8 KiB tables
		hot := key(750)
		var snaps []*Snapshot
		for v := 0; v < 40; v++ { // 40 KiB of one key, each version pinned
			if err := db.Put(hot, bytes.Repeat([]byte{byte('a' + v%26)}, 1024)); err != nil {
				t.Fatal(err)
			}
			snap, err := db.NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap)
			for i := 0; i < 150; i++ {
				if err := db.Put(key((v*150+i)%1500), value(i)); err != nil {
					t.Fatalf("%v: put after %d versions: %v", policy, v, err)
				}
			}
		}
		if err := db.CompactRange(); err != nil {
			t.Fatalf("%v: CompactRange: %v", policy, err)
		}
		for v, snap := range snaps {
			got, err := db.GetAt(hot, snap)
			if err != nil || len(got) != 1024 || got[0] != byte('a'+v%26) {
				t.Errorf("%v: version %d at its snapshot = %.8q, %v", policy, v, got, err)
			}
			snap.Release()
		}
		db.Close()
	}
}

func TestReopenRecoversData(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			opts := smallOpts(policy)
			db := openTestDB(t, opts)
			const n = 4000
			fillSequential(t, db, n)
			db.Delete(key(5))
			db.CompactRange()
			profBefore := db.CurrentProfile()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2, err := Open("/db", opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			for i := 0; i < n; i += 13 {
				if i == 5 {
					continue
				}
				got, err := db2.Get(key(i))
				if err != nil || !bytes.Equal(got, value(i)) {
					t.Fatalf("key %d after reopen: %q, %v", i, got, err)
				}
			}
			if _, err := db2.Get(key(5)); !errors.Is(err, ErrNotFound) {
				t.Error("tombstone lost in recovery")
			}
			if policy == compaction.LDC && profBefore.FrozenFiles > 0 {
				if got := db2.CurrentProfile(); got.FrozenFiles != profBefore.FrozenFiles {
					t.Errorf("frozen files after reopen = %d, want %d",
						got.FrozenFiles, profBefore.FrozenFiles)
				}
			}
		})
	}
}

func TestReopenRecoversUnflushedWrites(t *testing.T) {
	opts := smallOpts(compaction.LDC)
	db := openTestDB(t, opts)
	// Few writes: everything still in the memtable + WAL.
	for i := 0; i < 20; i++ {
		db.Put(key(i), value(i))
	}
	db.Close()

	db2, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 20; i++ {
		got, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("WAL-recovered key %d: %q, %v", i, got, err)
		}
	}
}

func TestObsoleteFilesDeleted(t *testing.T) {
	opts := smallOpts(compaction.UDC)
	db := openTestDB(t, opts)
	defer db.Close()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		db.Put(key(rng.Intn(3000)), value(i))
	}
	db.CompactRange()
	db.WaitIdle()

	// Every .sst on disk must be referenced by the live version.
	if orphans := orphanTables(t, opts.FS, db); len(orphans) > 0 {
		t.Errorf("orphan table files on disk: %v", orphans)
	}
	if db.Stats().ObsoleteDeleted == 0 {
		t.Error("no obsolete files were ever deleted")
	}
}

func TestLDCFrozenSpaceBounded(t *testing.T) {
	db := openTestDB(t, smallOpts(compaction.LDC))
	defer db.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		db.Put(key(rng.Intn(6000)), value(i))
	}
	db.WaitIdle()
	prof := db.CurrentProfile()
	var resident int64
	for _, lp := range prof.Levels {
		resident += lp.Bytes
	}
	if resident == 0 {
		t.Fatal("no resident data")
	}
	frac := float64(prof.FrozenBytes) / float64(resident+prof.FrozenBytes)
	if frac > 0.5 {
		t.Errorf("frozen region is %.1f%% of store; backpressure failed", frac*100)
	}
}

func TestLDCLowerCompactionIOThanUDC(t *testing.T) {
	run := func(policy compaction.Policy) Stats {
		fs := vfs.Mem()
		opts := smallOpts(policy)
		opts.FS = fs
		db, err := Open("/db", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 20000; i++ {
			db.Put(key(rng.Intn(8000)), value(i))
		}
		db.WaitIdle()
		return db.Stats()
	}
	udc := run(compaction.UDC)
	ldc := run(compaction.LDC)
	udcIO := udc.CompactionReadBytes + udc.CompactionWriteBytes
	ldcIO := ldc.CompactionReadBytes + ldc.CompactionWriteBytes
	if udcIO == 0 {
		t.Fatal("UDC did no compaction I/O")
	}
	// UDC's side moves by a fifth from run to run; a pass that says nothing
	// hides how close to the bar it was.
	t.Logf("compaction I/O: LDC %d, UDC %d (%.2fx); write amp: LDC %.2f, UDC %.2f",
		ldcIO, udcIO, float64(ldcIO)/float64(udcIO), ldc.WriteAmplification(), udc.WriteAmplification())
	if float64(ldcIO) > 0.9*float64(udcIO) {
		t.Errorf("LDC compaction I/O %d not clearly below UDC %d (paper: ~50%%)", ldcIO, udcIO)
	}
	if ldc.WriteAmplification() >= udc.WriteAmplification() {
		t.Errorf("LDC write amp %.2f >= UDC %.2f", ldc.WriteAmplification(), udc.WriteAmplification())
	}
}

// TestLDCLowerCompactionIOThanUDCStepped is TestLDCLowerCompactionIOThanUDC
// with the test as the compaction worker: every 1000 Puts (about four
// memtables) it flushes and steps the tree until idle, so L0 stays under the
// slowdown trigger and both policies run the same picks on every run, however
// busy the host. The worker-driven test beside it measures the engine as it
// ships, where a writer that outruns compaction lets UDC's L0 batch.
func TestLDCLowerCompactionIOThanUDCStepped(t *testing.T) {
	run := func(policy compaction.Policy) Stats {
		db := openManualDB(t, smallOpts(policy))
		defer db.Close()
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 20000; i++ {
			if err := db.Put(key(rng.Intn(8000)), value(i)); err != nil {
				t.Fatal(err)
			}
			if (i+1)%1000 == 0 {
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := db.CompactRange(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return db.Stats()
	}
	udc := run(compaction.UDC)
	ldc := run(compaction.LDC)
	udcIO := udc.CompactionReadBytes + udc.CompactionWriteBytes
	ldcIO := ldc.CompactionReadBytes + ldc.CompactionWriteBytes
	if udcIO == 0 {
		t.Fatal("UDC did no compaction I/O")
	}
	t.Logf("compaction I/O: LDC %d, UDC %d (%.2fx); write amp: LDC %.2f, UDC %.2f",
		ldcIO, udcIO, float64(ldcIO)/float64(udcIO), ldc.WriteAmplification(), udc.WriteAmplification())
	if float64(ldcIO) > 0.9*float64(udcIO) {
		t.Errorf("LDC compaction I/O %d not clearly below UDC %d (paper: ~50%%)", ldcIO, udcIO)
	}
	if ldc.WriteAmplification() >= udc.WriteAmplification() {
		t.Errorf("LDC write amp %.2f >= UDC %.2f", ldc.WriteAmplification(), udc.WriteAmplification())
	}
}

// TestLDCStagingLevelBoundsL0Share is the regression bar on LDC's level-1
// target. On a bench-shaped tree (fan-out and T_s 10, uniform 1 KiB overwrites)
// it reads the L0→L1 share of the write bill — compaction bytes that no merge
// wrote, per flushed byte — which is 1 for the flushed bytes themselves plus
// every L1 table the L0 compactions found resident and rewrote. One worker
// drains the tree after every flush, so L0 compacts at exactly its trigger and
// the figure repeats: 3.512 with L1 on the fan-out ladder, 1.911 with L1 a
// staging level; the bar sits midway.
func TestLDCStagingLevelBoundsL0Share(t *testing.T) {
	db := openTestDB(t, Options{
		FS: vfs.Mem(), Policy: compaction.LDC,
		MemTableSize: 32 << 10, SSTableSize: 32 << 10, Fanout: 10, SliceLinkThreshold: 10,
		BlockCacheSize: 1 << 20,
	})
	defer db.Close()
	rng := rand.New(rand.NewSource(21))
	val := bytes.Repeat([]byte("v"), 1024)
	for i := 1; i <= 20000; i++ {
		if err := db.Put(key(rng.Intn(5000)), val); err != nil {
			t.Fatal(err)
		}
		if i%28 == 0 { // just under one memtable
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			db.WaitIdle()
		}
	}
	s := db.Stats()
	share := float64(s.CompactionWriteBytes-s.MergeWriteBytes) / float64(s.FlushWriteBytes)
	t.Logf("L0->L1 wrote %.3f bytes per flushed byte (%d flushes, %d links, %d merges)", share, s.FlushCount, s.LinkCount, s.MergeCount)
	if share > 2.7 {
		t.Errorf("L0->L1 wrote %.3f bytes per flushed byte, want at most 2.7", share)
	}
}

func TestBatchAtomicity(t *testing.T) {
	db := openTestDB(t, smallOpts(compaction.LDC))
	defer db.Close()
	b := batch.New()
	b.Set([]byte("a"), []byte("1"))
	b.Set([]byte("b"), []byte("2"))
	b.Set([]byte("c"), []byte("3"))
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		got, err := db.Get([]byte(k))
		if err != nil || string(got) != want {
			t.Errorf("Get(%s) = %q, %v", k, got, err)
		}
	}
}

// TestUseAfterClose drives every public entry point against a closed store:
// each must fail with ErrClosed (or, for Stats/CurrentProfile, keep working
// on the final counters) rather than racing on torn-down state. The server's
// graceful drain depends on these semantics.
func TestUseAfterClose(t *testing.T) {
	db := openTestDB(t, smallOpts(compaction.UDC))
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}

	cases := []struct {
		name string
		op   func() error
	}{
		{"Put", func() error { return db.Put([]byte("k"), []byte("v")) }},
		{"Delete", func() error { return db.Delete([]byte("k")) }},
		{"Apply", func() error {
			b := batch.New()
			b.Set([]byte("k"), []byte("v"))
			return db.Apply(b)
		}},
		{"Get", func() error { _, err := db.Get([]byte("k")); return err }},
		{"GetAt", func() error { _, err := db.GetAt([]byte("k"), nil); return err }},
		{"NewIterator", func() error { _, err := db.NewIterator(nil); return err }},
		{"NewSnapshot", func() error { _, err := db.NewSnapshot(); return err }},
		{"Scan", func() error { _, err := db.Scan(nil, 10); return err }},
		{"CompactRange", func() error { return db.CompactRange() }},
	}
	for _, tc := range cases {
		if err := tc.op(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: got %v, want ErrClosed", tc.name, err)
		}
	}

	// Stats and CurrentProfile stay usable: drain paths report final counters
	// after the DB is gone.
	if s := db.Stats(); s.Puts != 1 {
		t.Errorf("Stats after Close: Puts = %d, want 1", s.Puts)
	}
	if p := db.CurrentProfile(); len(p.Levels) == 0 {
		t.Error("CurrentProfile after Close returned no levels")
	}

	// Close is idempotent: repeated and concurrent calls return the first
	// teardown's result (nil here) once it completes.
	if err := db.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := db.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestCloseConcurrentWithOps closes the store while readers and writers are
// mid-flight: every operation must either succeed or fail with ErrClosed —
// never crash, race, or corrupt — and WaitIdle/Stats must stay callable
// throughout.
func TestCloseConcurrentWithOps(t *testing.T) {
	db := openTestDB(t, smallOpts(compaction.LDC))
	for i := 0; i < 500; i++ {
		db.Put(key(i), value(i))
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				var err error
				switch i % 4 {
				case 0:
					err = db.Put(key(g*1000+i), value(i))
				case 1:
					_, err = db.Get(key(i % 500))
					if errors.Is(err, ErrNotFound) {
						err = nil
					}
				case 2:
					_, err = db.Scan(key(i%500), 5)
				case 3:
					var snap *Snapshot
					snap, err = db.NewSnapshot()
					if err == nil {
						snap.Release()
					}
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("op %d: %v", i%4, err)
					}
					return
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	if err := db.Close(); err != nil {
		t.Fatalf("Close during traffic: %v", err)
	}
	wg.Wait()
	db.Stats() // must not race with anything above
}

func TestStallAccounting(t *testing.T) {
	opts := smallOpts(compaction.UDC)
	opts.MemTableSize = 2 << 10 // very small: frequent flushes
	db := openTestDB(t, opts)
	defer db.Close()
	for i := 0; i < 6000; i++ {
		db.Put(key(i), bytes.Repeat([]byte{'x'}, 64))
	}
	s := db.Stats()
	if s.FlushCount == 0 {
		t.Error("no flushes with tiny memtable")
	}
	if s.StallTime == 0 && s.SlowdownCount == 0 && s.StopCount == 0 {
		t.Log("note: no stalls observed (machine fast relative to workload)")
	}
}

// TestDeepOverageDoesNotDelayWrites: the write throttle reads L0 depth
// alone, so sorted levels far over their targets delay no write while L0
// sits below the slowdown trigger. The store is built with 64 KiB tables and
// reopened with 4 KiB ones, which leaves its sorted levels about 2 MB over
// their targets.
func TestDeepOverageDoesNotDelayWrites(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			opts := smallOpts(policy)
			opts.MemTableSize, opts.SSTableSize = 64<<10, 64<<10
			db := openTestDB(t, opts)
			val := bytes.Repeat([]byte{'v'}, 100)
			for i := 0; i < 20000; i++ {
				if err := db.Put(key(i), val); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.CompactRange(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			opts.SSTableSize = 4 << 10
			db = openManualDB(t, opts)
			defer db.Close()
			st := db.shards[0]
			st.mu.Lock()
			v := st.set.CurrentNoRef()
			l0 := v.NumFiles(0)
			var deepOver bool
			for level := 1; level < version.NumLevels; level++ {
				deepOver = deepOver || st.picker.Score(v, level) > 1
			}
			st.mu.Unlock()
			if l0 >= compaction.L0SlowdownTrigger || !deepOver {
				t.Fatalf("setup: L0 at %d files, a deep level over target: %v", l0, deepOver)
			}
			before := db.Stats()
			const n = 20
			for i := 0; i < n; i++ {
				if err := db.Put(key(i), val); err != nil {
					t.Fatal(err)
				}
			}
			after := db.Stats()
			if d := after.SlowdownCount - before.SlowdownCount; d != 0 || after.StallTime != before.StallTime {
				t.Fatalf("%d of %d writes delayed with L0 at %d files (stall %v)",
					d, n, l0, after.StallTime-before.StallTime)
			}
		})
	}
}

// TestL0DepthDelaysWrites: L0 depth sets a write's delay in the store. With
// no compaction worker each Flush adds one L0 file. Below the slowdown trigger
// no write is delayed; at the trigger each write pays the ramp's first step,
// SlowdownDelay over the trigger's distance to the stop trigger, once; and
// once CompactRange has drained L0, no write is delayed again.
func TestL0DepthDelaysWrites(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			db := openManualDB(t, smallOpts(policy))
			defer db.Close()
			st := db.shards[0]
			l0 := func() int {
				st.mu.Lock()
				defer st.mu.Unlock()
				return st.set.CurrentNoRef().NumFiles(0)
			}
			const n = 20 // well under one memtable
			next := 0
			// writes makes n Puts and reports the slowdowns and the stall
			// time they added.
			writes := func() (int64, time.Duration) {
				before := db.Stats()
				for i := 0; i < n; i++ {
					if err := db.Put(key(next), value(next)); err != nil {
						t.Fatal(err)
					}
					next++
				}
				after := db.Stats()
				return after.SlowdownCount - before.SlowdownCount, after.StallTime - before.StallTime
			}
			step := commit.SlowdownDelay / (compaction.L0StopTrigger - compaction.L0SlowdownTrigger)
			for files := 0; files <= compaction.L0SlowdownTrigger; files++ {
				if got := l0(); got != files {
					t.Fatalf("L0 holds %d files after %d flushes", got, files)
				}
				var want int64
				if files >= compaction.L0SlowdownTrigger {
					want = n
				}
				if d, stall := writes(); d != want || stall != time.Duration(want)*step {
					t.Fatalf("L0 at %d files: %d of %d writes delayed (stall %v), want %d (stall %v)",
						files, d, n, stall, want, time.Duration(want)*step)
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CompactRange(); err != nil {
				t.Fatal(err)
			}
			if d, stall := writes(); d != 0 || stall != 0 {
				t.Fatalf("L0 drained to %d files: %d of %d writes delayed (stall %v)", l0(), d, n, stall)
			}
		})
	}
}

// --- helpers ---

func sortStrings(s []string)                 { sort.Strings(s) }
func searchStrings(s []string, t string) int { return sort.SearchStrings(s, t) }
