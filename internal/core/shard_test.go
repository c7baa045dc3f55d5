package core

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/compaction"
	"repro/internal/version"
	"repro/internal/vfs"
	"repro/internal/vlog"
)

// shardOpts returns smallOpts with a shard count, each DB on its own
// in-memory filesystem.
func shardOpts(shards int) Options {
	opts := smallOpts(compaction.LDC)
	opts.Shards = shards
	return opts
}

// TestShardScanEquivalence is the cross-shard ordering property test: the
// same workload written at Shards=1, 2, and 8 must yield byte-identical
// ordered results from Scan, iteration and seeks. Sharding partitions the keyspace but must never reorder,
// drop, or duplicate what a cursor observes.
func TestShardScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	keys := make([][]byte, n)
	for i := range keys {
		// Random lengths and bytes so shard routing sees a spread of
		// hashes; duplicates across iterations overwrite, as in real load.
		k := make([]byte, 4+rng.Intn(12))
		for j := range k {
			k[j] = byte('a' + rng.Intn(26))
		}
		keys[i] = k
	}

	open := func(shards int) *DB {
		t.Helper()
		db, err := Open(fmt.Sprintf("/db-%d", shards), shardOpts(shards))
		if err != nil {
			t.Fatalf("Open(shards=%d): %v", shards, err)
		}
		return db
	}
	counts := []int{1, 2, 8}
	dbs := make([]*DB, len(counts))
	for i, c := range counts {
		dbs[i] = open(c)
		defer dbs[i].Close()
		if got := dbs[i].NumShards(); got != c {
			t.Fatalf("NumShards() = %d, want %d", got, c)
		}
	}
	for _, db := range dbs {
		for i, k := range keys {
			if err := db.Put(k, []byte(fmt.Sprintf("val-%d-%s", i, k))); err != nil {
				t.Fatal(err)
			}
		}
		// Tombstones must collapse identically across shard counts.
		for i := 0; i < n; i += 7 {
			if err := db.Delete(keys[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	ref, err := dbs[0].Scan(nil, n+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference scan is empty")
	}
	for di, db := range dbs[1:] {
		got, err := db.Scan(nil, n+1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("shards=%d: Scan returned %d pairs, want %d", counts[di+1], len(got), len(ref))
		}
		for i := range ref {
			if !bytes.Equal(got[i].Key, ref[i].Key) || !bytes.Equal(got[i].Value, ref[i].Value) {
				t.Fatalf("shards=%d: Scan[%d] = %q=%q, want %q=%q",
					counts[di+1], i, got[i].Key, got[i].Value, ref[i].Key, ref[i].Value)
			}
		}
	}

	// Iteration: SeekToFirst + Next must walk the reference.
	for di, db := range dbs[1:] {
		it, err := db.NewIterator(nil)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if i >= len(ref) {
				t.Fatalf("shards=%d: iteration yielded extra key %q", counts[di+1], it.Key())
			}
			if !bytes.Equal(it.Key(), ref[i].Key) || !bytes.Equal(it.Value(), ref[i].Value) {
				t.Fatalf("shards=%d: iter[%d] = %q, want %q", counts[di+1], i, it.Key(), ref[i].Key)
			}
			i++
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if i != len(ref) {
			t.Fatalf("shards=%d: iteration stopped %d entries early", counts[di+1], len(ref)-i)
		}
	}

	// Random seeks, each followed by a few steps.
	for di, db := range dbs[1:] {
		it, err := db.NewIterator(nil)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			target := keys[rng.Intn(n)]
			ri := 0
			for ri < len(ref) && bytes.Compare(ref[ri].Key, target) < 0 {
				ri++
			}
			it.Seek(target)
			for step := 0; step < 5 && ri < len(ref); step++ {
				if !it.Valid() {
					t.Fatalf("shards=%d: Seek(%q)+%d invalid, want %q", counts[di+1], target, step, ref[ri].Key)
				}
				if !bytes.Equal(it.Key(), ref[ri].Key) {
					t.Fatalf("shards=%d: Seek(%q)+%d = %q, want %q", counts[di+1], target, step, it.Key(), ref[ri].Key)
				}
				it.Next()
				ri++
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardCrashRecovery is the multi-shard analogue of the ErrFS
// torn-write fault tests: inject a write failure mid-load against a
// 4-shard store with a synced WAL, crash without a clean Close, reboot on
// the surviving bytes, and require every acknowledged write back — each
// shard's WAL segment must replay into the right shard.
func TestShardCrashRecovery(t *testing.T) {
	for _, budget := range []int64{200, 800, 3000} {
		// The shard count comes from the marker, not the reopen options.
		db2 := crashAtWriteBudget(t, shardOpts(4), shardOpts(0), budget)
		if got := db2.NumShards(); got != 4 {
			t.Fatalf("budget %d: recovered NumShards() = %d, want 4", budget, got)
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("budget %d: close: %v", budget, err)
		}
	}
}

// TestShardMarker pins the shard count's persistence rules: recorded at
// creation, adopted on a Shards=0 reopen, defended against an explicit
// mismatch (which would rehash keys into shards that can't see them), and
// read as corrupt when it is not a power of two of at least one.
func TestShardMarker(t *testing.T) {
	fs := vfs.Mem()
	opts := shardOpts(4)
	opts.FS = fs
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Shards=0 adopts the recorded count.
	opts0 := shardOpts(0)
	opts0.FS = fs
	db2, err := Open("/db", opts0)
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.NumShards(); got != 4 {
		t.Errorf("adopted NumShards() = %d, want 4", got)
	}
	if v, err := db2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Errorf("Get after adopt = %q, %v", v, err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// An explicit mismatch is an invalid configuration.
	optsBad := shardOpts(2)
	optsBad.FS = fs
	if _, err := Open("/db", optsBad); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Open with mismatched Shards = %v, want ErrInvalidOptions", err)
	}

	// Matching explicit count still opens (5 rounds to 8, so use 4).
	optsOK := shardOpts(4)
	optsOK.FS = fs
	db3, err := Open("/db", optsOK)
	if err != nil {
		t.Fatalf("Open with matching Shards: %v", err)
	}
	db3.Close()

	// The marker records a power of two no smaller than one.
	for _, bad := range []string{"shards 0\n", "shards 3\n"} {
		writeFile(t, fs, "/db/"+shardsFileName, bad)
		if _, err := Open("/db", opts0); err == nil || !strings.Contains(err.Error(), "corrupt "+shardsFileName) {
			t.Errorf("Open with marker %q = %v, want a corrupt-marker error", bad, err)
		}
	}
}

// TestRetiredLayoutRefused: Open refuses a database in a retired layout
// whatever Shards asks for, and creates nothing there first — an empty store
// must not appear beside the old files. A root CURRENT with no marker is the
// single-shard layout; a root wal/ or vlog/ holding files is the shared
// layout, whose WAL tails and values the shards would not see (a segment of
// shard 3 in a store whose marker says one shard included).
func TestRetiredLayoutRefused(t *testing.T) {
	marker := func(n int) string { return fmt.Sprintf("shards %d\n", n) }
	for _, tc := range []struct {
		name   string
		files  map[string]string
		layout string
	}{
		{"single-shard", map[string]string{
			"CURRENT": "old\n", "MANIFEST-000002": "old\n", "000003.log": "old\n", "000004.sst": "old\n",
		}, "retired single-shard layout"},
		{"shared-wal", map[string]string{
			shardsFileName: marker(1), "shard-0/CURRENT": "old\n", "wal/SHARD-0-000003.log": "old\n",
		}, "retired shared layout"},
		{"shared-vlog", map[string]string{
			shardsFileName: marker(1), "shard-0/CURRENT": "old\n", "vlog/" + vlog.SegmentFileName(3, 1): "old\n",
		}, "retired shared layout"},
	} {
		for _, shards := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("%s/%d", tc.name, shards), func(t *testing.T) {
				dir := t.TempDir()
				fs := vfs.OS()
				for name, content := range tc.files {
					if err := fs.MkdirAll(filepath.Dir(filepath.Join(dir, name))); err != nil {
						t.Fatal(err)
					}
					writeFile(t, fs, filepath.Join(dir, name), content)
				}
				before := treeOf(t, dir)
				opts := shardOpts(shards)
				opts.FS = fs
				db, err := Open(dir, opts)
				if err == nil {
					_ = db.Close()
				}
				if !errors.Is(err, ErrInvalidOptions) || !strings.Contains(err.Error(), tc.layout) {
					t.Errorf("Open = %v, want ErrInvalidOptions naming the %s", err, tc.layout)
				}
				if after := treeOf(t, dir); !slices.Equal(after, before) {
					t.Errorf("refused Open changed the directory: %v, was %v", after, before)
				}
			})
		}
	}
}

// TestShardLayout pins the one on-disk shape of every store, one shard
// included: the LDC_SHARDS marker and a shard-<i> directory per shard —
// nothing else at the root — each holding that shard's CURRENT, MANIFEST,
// tables, NNNNNN.log WALs and VLOG-<i>-NNNNNN.vlog value-log segments.
func TestShardLayout(t *testing.T) {
	for _, tc := range []struct{ shards, n int }{{0, 1}, {1, 1}, {2, 2}} {
		t.Run(fmt.Sprint(tc.shards), func(t *testing.T) {
			dir := t.TempDir()
			opts := shardOpts(tc.shards)
			opts.FS = vfs.OS()
			opts.BlobThreshold = 8 // every value is separated
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if err := db.Put(key(i), value(i)); err != nil {
					t.Fatal(err)
				}
			}
			check := func(when string, live bool) {
				t.Helper()
				want := []string{shardsFileName}
				for i := 0; i < tc.n; i++ {
					want = append(want, fmt.Sprintf("shard-%d/", i))
				}
				slices.Sort(want)
				if got := entriesOf(t, dir); !slices.Equal(got, want) {
					t.Fatalf("%s: root holds %v, want %v", when, got, want)
				}
				marker, err := os.ReadFile(filepath.Join(dir, shardsFileName))
				if err != nil || string(marker) != fmt.Sprintf("shards %d\n", tc.n) {
					t.Fatalf("%s: marker %q, %v", when, marker, err)
				}
				for i := 0; i < tc.n; i++ {
					names := entriesOf(t, filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
					if !slices.Contains(names, "CURRENT") {
						t.Fatalf("%s: shard-%d holds %v, no CURRENT", when, i, names)
					}
					logs, segs := 0, 0
					for _, name := range names {
						if sh, num, ok := vlog.ParseSegmentFileName(name); ok {
							if sh != i || name != vlog.SegmentFileName(i, num) {
								t.Fatalf("%s: shard-%d holds segment %q", when, i, name)
							}
							segs++
							continue
						}
						switch typ, num := version.ParseFileName(name); typ {
						case version.TypeUnknown, version.TypeTemp:
							t.Fatalf("%s: shard-%d holds %q", when, i, name)
						case version.TypeLog:
							if name != filepath.Base(version.LogFileName("", num)) {
								t.Fatalf("%s: shard-%d holds WAL %q", when, i, name)
							}
							logs++
						}
					}
					if segs == 0 {
						t.Fatalf("%s: shard-%d holds no value-log segment: %v", when, i, names)
					}
					if live && logs == 0 {
						t.Fatalf("%s: shard-%d holds no WAL: %v", when, i, names)
					}
				}
			}
			check("open", true)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			check("closed", false)
			db, err = Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if got, err := db.Get(key(7)); err != nil || !bytes.Equal(got, value(7)) {
				t.Fatalf("Get after reopen = %q, %v", got, err)
			}
			check("reopened", true)
		})
	}
}

// entriesOf lists dir, directories with a trailing slash.
func entriesOf(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			names = append(names, e.Name()+"/")
		} else {
			names = append(names, e.Name())
		}
	}
	return names
}

// treeOf lists every path under dir, directories included.
func treeOf(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(p string, _ fs.DirEntry, err error) error {
		paths = append(paths, p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func writeFile(t *testing.T, fs vfs.FS, name, content string) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardApplyFanout exercises the batch splitter: one batch spanning
// every shard must commit whole (read-your-writes immediately after Apply
// returns), including tombstones, and survive a reopen.
func TestShardApplyFanout(t *testing.T) {
	fs := vfs.Mem()
	opts := shardOpts(8)
	opts.FS = fs
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}

	const n = 500
	b := batch.New()
	for i := 0; i < n; i++ {
		b.Set(key(i), value(i))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	touched := map[int]bool{}
	for i := 0; i < n; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("Get(%q) after Apply = %q, %v", key(i), got, err)
		}
		touched[db.shardIndex(key(i))] = true
	}
	if len(touched) != 8 {
		t.Fatalf("batch of %d keys touched %d shards, want all 8", n, len(touched))
	}

	// Mixed sets and deletes in one cross-shard batch.
	b2 := batch.New()
	for i := 0; i < n; i += 2 {
		b2.Delete(key(i))
	}
	for i := 1; i < n; i += 2 {
		b2.Set(key(i), []byte("updated"))
	}
	if err := db.Apply(b2); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	opts2 := shardOpts(0)
	opts2.FS = fs
	db2, err := Open("/db", opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		got, err := db2.Get(key(i))
		if i%2 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(%q) = %q, %v, want ErrNotFound", key(i), got, err)
			}
		} else if err != nil || string(got) != "updated" {
			t.Fatalf("Get(%q) = %q, %v, want %q", key(i), got, err, "updated")
		}
	}
}

// TestShardSnapshot pins snapshot semantics across shards: a snapshot
// captures every shard in one pass, so reads and iterators at the snapshot
// see none of the writes applied afterward.
func TestShardSnapshot(t *testing.T) {
	db := openTestDB(t, shardOpts(4))
	defer db.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	for i := 0; i < n; i++ {
		if i%3 == 0 {
			if err := db.Delete(key(i)); err != nil {
				t.Fatal(err)
			}
		} else if err := db.Put(key(i), []byte("after")); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < n; i += 17 {
		got, err := db.GetAt(key(i), snap)
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("GetAt(%q, snap) = %q, %v, want %q", key(i), got, err, value(i))
		}
	}
	it, err := db.NewIterator(snap)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), key(count)) || !bytes.Equal(it.Value(), value(count)) {
			t.Fatalf("snapshot iter[%d] = %q=%q, want %q=%q", count, it.Key(), it.Value(), key(count), value(count))
		}
		count++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("snapshot iterator saw %d keys, want %d", count, n)
	}
}

// TestShardStatsAggregate checks the router's Stats aggregation: every
// integer field of Stats is the sum over ShardStats, value-log state
// included, but for the block cache's shared folds, which are zero per
// shard; each shard reports its own value log; and derived ratios come from
// the summed counters.
func TestShardStatsAggregate(t *testing.T) {
	opts := shardOpts(4)
	opts.BlobThreshold = 256
	db := openTestDB(t, opts)
	defer db.Close()

	const n = 300
	big := bytes.Repeat([]byte("b"), 300)
	for i := 0; i < n; i++ {
		v := value(i)
		if i%10 == 0 {
			v = big
		}
		if err := db.Put(key(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.Get(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Scan(nil, 10); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()

	s := db.Stats()
	if s.Puts != n || s.Gets != n {
		t.Errorf("aggregate Puts=%d Gets=%d, want %d each", s.Puts, s.Gets, n)
	}
	per := db.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats returned %d entries, want 4", len(per))
	}
	var puts, groups, batches int64
	active := 0
	for _, p := range per {
		puts += p.Puts
		groups += p.WriteGroupsTotal
		batches += p.WriteBatchesTotal
		if p.Puts > 0 {
			active++
		}
	}
	if puts != n {
		t.Errorf("per-shard Puts sum to %d, want %d", puts, n)
	}
	if active < 2 {
		t.Errorf("only %d shards received writes; hash routing should spread %d keys", active, n)
	}
	if s.WriteGroupsTotal != groups || s.WriteBatchesTotal != batches {
		t.Errorf("aggregate groups/batches %d/%d, want %d/%d", s.WriteGroupsTotal, s.WriteBatchesTotal, groups, batches)
	}
	if groups > 0 {
		want := float64(batches) / float64(groups)
		if s.AvgGroupSize != want {
			t.Errorf("AvgGroupSize = %v, want %v (recomputed from sums)", s.AvgGroupSize, want)
		}
	}
	if s.WriteState == "" {
		t.Error("aggregate WriteState is empty")
	}
	withSegments := 0
	for i, p := range per {
		if want := db.shards[i].vlog.Stats().Segments; p.VlogSegments != want {
			t.Errorf("shard %d: VlogSegments = %d, its log holds %d", i, p.VlogSegments, want)
		}
		if p.BlobValuesSeparated > 0 && p.VlogSegments == 0 {
			t.Errorf("shard %d separated %d values but reports no segment", i, p.BlobValuesSeparated)
		}
		if p.VlogSegments > 0 {
			withSegments++
		}
	}
	if withSegments < 2 {
		t.Errorf("only %d shards report value-log segments", withSegments)
	}

	sum := map[string]int64{}
	for i, p := range per {
		intFields(p, func(name string, v int64) {
			sum[name] += v
			if sharedFolds[name] && v != 0 {
				t.Errorf("shard %d: shared fold %s = %d, want 0", i, name, v)
			}
		})
	}
	nonzero := 0
	intFields(s, func(name string, v int64) {
		if v != 0 {
			nonzero++
		}
		if !sharedFolds[name] && v != sum[name] {
			t.Errorf("Stats.%s = %d, shards sum to %d", name, v, sum[name])
		}
	})
	if nonzero < 25 {
		t.Errorf("only %d integer fields of Stats are non-zero: the workload exercises too little", nonzero)
	}
}

// TestOpenUnwindsWhenShardMarkerFails fails each write op of the LDC_SHARDS
// marker in turn: on a fresh create, where the marker is Open's first write,
// Open must report the failure; on the reopen of a populated store, which
// must not rewrite the marker, Open may fail or not. Either way the next Open
// must work and read back every value written so far.
func TestOpenUnwindsWhenShardMarkerFails(t *testing.T) {
	scratch := vfs.NewErrFS(vfs.Mem())
	if err := writeShardsMarker(scratch, "/db", 2); err != nil {
		t.Fatal(err)
	}
	markerOps := scratch.WriteOps()
	big := bytes.Repeat([]byte("v"), 200) // above BlobThreshold: lands in the value log
	for _, reopen := range []bool{false, true} {
		for k := int64(0); k < markerOps; k++ {
			t.Run(fmt.Sprintf("reopen=%v/op=%d", reopen, k), func(t *testing.T) {
				efs := vfs.NewErrFS(vfs.Mem())
				opts := shardOpts(2)
				opts.FS = efs
				opts.BlobThreshold = 64
				var want []string
				put := func(db *DB) {
					t.Helper()
					key := fmt.Sprintf("k%d", len(want))
					if err := db.Put([]byte(key), big); err != nil {
						t.Fatal(err)
					}
					want = append(want, key)
				}
				if reopen {
					db, err := Open("/db", opts)
					if err != nil {
						t.Fatal(err)
					}
					put(db)
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
				}
				before := efs.WriteOps()
				efs.FailAfterWrites(k, errInjected)
				db, err := Open("/db", opts)
				efs.Disarm()
				switch {
				case err == nil && !reopen:
					t.Fatalf("Open succeeded with marker write %d failing", k)
				case err == nil:
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
				case !errors.Is(err, errInjected):
					t.Fatalf("Open = %v, want the injected failure", err)
				case !reopen && efs.WriteOps()-before != k+1:
					t.Fatalf("Open failed after %d write ops; the test assumes the marker's %d come first", efs.WriteOps()-before, markerOps)
				}

				for round := 0; round < 2; round++ { // the next Open, then one more
					db, err := Open("/db", opts)
					if err != nil {
						t.Fatalf("Open after the failed one: %v", err)
					}
					put(db)
					for _, key := range want {
						if got, err := db.Get([]byte(key)); err != nil || !bytes.Equal(got, big) {
							t.Fatalf("Get(%s) = %d bytes, %v", key, len(got), err)
						}
					}
					if err := db.Close(); err != nil {
						t.Fatalf("Close = %v", err)
					}
				}
			})
		}
	}
}

// TestOpenUnwindsWhenAShardFails fails each write of the shards' opens in
// turn, past the marker's: the first shard may be open and running, the
// failing one may have opened its value log. Open must report the failure,
// close what it opened, and leave a directory the next Open can use.
func TestOpenUnwindsWhenAShardFails(t *testing.T) {
	scratch := vfs.NewErrFS(vfs.Mem())
	if err := writeShardsMarker(scratch, "/db", 2); err != nil {
		t.Fatal(err)
	}
	markerOps := scratch.WriteOps()
	big := bytes.Repeat([]byte("v"), 200) // above BlobThreshold: lands in the value log
	failed := 0
	for k := markerOps; ; k++ {
		efs := vfs.NewErrFS(vfs.Mem())
		opts := shardOpts(2)
		opts.FS = efs
		opts.BlobThreshold = 64
		efs.FailAfterWrites(k, errInjected)
		db, err := Open("/db", opts)
		efs.Disarm()
		if err == nil {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			break // every write of Open succeeded: nothing left to fail
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("write %d failed: Open = %v, want the injected failure", k, err)
		}
		failed++
		db, err = Open("/db", opts)
		if err != nil {
			t.Fatalf("write %d failed: reopen = %v", k, err)
		}
		if err := db.Put([]byte("k"), big); err != nil {
			t.Fatal(err)
		}
		if got, err := db.Get([]byte("k")); err != nil || !bytes.Equal(got, big) {
			t.Fatalf("write %d failed: Get after reopen = %d bytes, %v", k, len(got), err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("write %d failed: Close after reopen = %v", k, err)
		}
	}
	if failed < 2*3 {
		t.Fatalf("only %d writes of the shards' opens failed; expected several per shard", failed)
	}
}

// shardEntries lists shard st's live-memtable entries — internal key (user
// key, sequence, kind) and value — in memtable order: what a sub-batch's
// commit left behind, entry order included.
func shardEntries(st *store) []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []string
	it := st.mem.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		out = append(out, fmt.Sprintf("%x=%x", it.Key(), it.Value()))
	}
	return out
}

// TestApplyMultiShardInlineEquivalence: a multi-shard Apply commits one
// sub-batch on the caller and fans the rest out from pooled scratch. It must
// be indistinguishable from applying each hand-built sub-batch to its shard:
// same per-key state, same per-shard entries in the same order; one failing
// shard — the caller-run one or a fanned-out one — is the error reported
// while the others commit; and reused scratch carries nothing over.
func TestApplyMultiShardInlineEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := shardOpts(shards)
			opts.MemTableSize = 4 << 20 // nothing flushes: the memtables hold every entry
			routed := openTestDB(t, opts)
			defer routed.Close()
			opts.FS = vfs.Mem()
			byHand := openTestDB(t, opts)
			defer byHand.Close()

			rng := rand.New(rand.NewSource(int64(shards)))
			model := map[string]string{}
			for round := 0; round < 40; round++ {
				b := batch.New()
				subs := make([]*batch.Batch, shards)
				for i := range subs {
					subs[i] = batch.New()
				}
				for n := 1 + rng.Intn(24); n > 0; n-- {
					k := key(rng.Intn(40)) // few keys: sets and deletes of one key interleave
					if rng.Intn(4) == 0 {
						b.Delete(k)
						subs[byHand.shardIndex(k)].Delete(k)
						delete(model, string(k))
					} else {
						v := value(rng.Int())
						b.Set(k, v)
						subs[byHand.shardIndex(k)].Set(k, v)
						model[string(k)] = string(v)
					}
				}
				if err := routed.Apply(b); err != nil {
					t.Fatal(err)
				}
				for i, sb := range subs {
					if err := byHand.shards[i].Apply(sb); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 40; i++ {
				got, err := routed.Get(key(i))
				if want, ok := model[string(key(i))]; ok != (err == nil) || string(got) != want {
					t.Errorf("%s = %q, %v; want %q (present=%v)", key(i), got, err, want, ok)
				}
			}
			for i := range routed.shards {
				got, want := shardEntries(routed.shards[i]), shardEntries(byHand.shards[i])
				if !slices.Equal(got, want) {
					t.Errorf("shard %d: %d entries through Apply differ from the %d applied by hand", i, len(got), len(want))
				}
			}
		})
	}

	// span returns n keys named prefix-*, the first owned by shard lead, that
	// together touch every shard.
	span := func(db *DB, prefix string, lead, n int) [][]byte {
		var ks [][]byte
		seen := map[int]bool{}
		for i := 0; len(ks) < n || len(seen) < db.NumShards(); i++ {
			k := []byte(fmt.Sprintf("%s-%04d", prefix, i))
			if len(ks) == 0 && db.shardIndex(k) != lead {
				continue
			}
			ks = append(ks, k)
			seen[db.shardIndex(k)] = true
		}
		return ks
	}

	// Shard 1 leads the batch, so it commits on the caller; the failing shard
	// is that one, then a fanned-out one.
	for _, failing := range []int{1, 2} {
		t.Run(fmt.Sprintf("failing-shard=%d", failing), func(t *testing.T) {
			db := openTestDB(t, shardOpts(4))
			defer db.Close()
			errShard := errors.New("injected shard failure")
			st := db.shards[failing]
			st.mu.Lock()
			st.fatal(errShard)
			st.mu.Unlock()

			ks := span(db, "e", 1, 16)
			b := batch.New()
			for _, k := range ks {
				b.Set(k, []byte("v"))
			}
			if err := db.Apply(b); !errors.Is(err, errShard) {
				t.Fatalf("Apply = %v, want the failing shard's error", err)
			}
			for _, k := range ks {
				_, err := db.Get(k)
				if owner := db.shardIndex(k); owner == failing && !errors.Is(err, ErrNotFound) {
					t.Errorf("%s on the failing shard: %v, want not found", k, err)
				} else if owner != failing && err != nil {
					t.Errorf("%s on healthy shard %d: %v, want committed", k, owner, err)
				}
			}
		})
	}

	t.Run("scratch-reuse", func(t *testing.T) {
		db := openTestDB(t, shardOpts(4))
		defer db.Close()
		apply := func(ks [][]byte) {
			b := batch.New()
			for _, k := range ks {
				b.Set(k, []byte("v"))
			}
			if err := db.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		a, bKeys := span(db, "a", 0, 32), span(db, "b", 3, 8)
		apply(a)
		seqA := map[string]uint64{}
		lastA := make([]uint64, 4)
		for _, k := range a {
			s, _ := db.shardOf(k).mem.LatestSeq(k)
			seqA[string(k)] = uint64(s)
		}
		for i, st := range db.shards {
			lastA[i] = uint64(st.set.LastSeq())
		}
		apply(bKeys)
		perShard := make([]uint64, 4)
		for _, k := range bKeys {
			perShard[db.shardIndex(k)]++
		}
		for i, st := range db.shards {
			if got := uint64(st.set.LastSeq()) - lastA[i]; got != perShard[i] {
				t.Errorf("shard %d consumed %d sequences for the second batch's %d entries", i, got, perShard[i])
			}
		}
		for _, k := range a {
			if s, _ := db.shardOf(k).mem.LatestSeq(k); uint64(s) != seqA[string(k)] {
				t.Errorf("%s was rewritten at sequence %d by a batch that does not hold it (was %d)", k, s, seqA[string(k)])
			}
		}
	})
}
