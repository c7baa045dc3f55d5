package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compaction"
	"repro/internal/invariants"
	"repro/internal/keys"
	"repro/internal/sstable"
	"repro/internal/version"
	"repro/internal/vfs"
)

// countProbes is the test's own account of what one Get of key costs on the
// tables of v: filter consultations, negative answers and table probes, made
// with the rule of DESIGN "Read path" (L0 newest first; per sorted level every
// covering window, then the file only if no window holds a visible version,
// stopping at the first level that holds one) directly on the table readers.
func countProbes(t *testing.T, st *store, v *version.Version, key []byte) (n probeTally) {
	t.Helper()
	ucmp := st.icmp.User
	sk := keys.MakeSearchKey(nil, key, keys.MaxSeq)
	var c sstable.ProbeCursor
	probe := func(num uint64) bool {
		r, err := st.tables.get(num)
		if err != nil {
			t.Fatal(err)
		}
		n.bloomProbes++
		if !r.MayContain(key) {
			n.bloomNegatives++
			return false
		}
		n.tableProbes++
		_, _, _, found, err := r.Probe(&c, sk)
		if err != nil {
			t.Fatal(err)
		}
		return found
	}
	for i := len(v.Levels[0]) - 1; i >= 0; i-- {
		if f := v.Levels[0][i]; f.UserRange().Contains(ucmp, key) && probe(f.Num) {
			return n
		}
	}
	for level := 1; level < version.NumLevels; level++ {
		found := false
		for _, f := range v.Levels[level] {
			for _, s := range f.Slices {
				if s.Range.Contains(ucmp, key) && probe(s.FrozenNum) {
					found = true
				}
			}
		}
		for _, f := range v.Levels[level] {
			if !found && f.UserRange().Contains(ucmp, key) && probe(f.Num) {
				found = true
			}
		}
		if found {
			return n
		}
	}
	return n
}

// TestGetStatsContract pins what Stats says about N cached Gets now that
// only one in ReadSampleEvery reads the clock and the probe counters are
// advanced once per Get: the request and probe counts are exact, the latency
// histogram holds exactly the sampled Gets, and ReadTime is their time scaled
// back up.
func TestGetStatsContract(t *testing.T) {
	db, _, _ := slicedTree(t, vfs.Mem(), 100)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	st := db.shards[0]
	v := st.set.Current()
	defer v.Unref()

	const n = 16000
	var want probeTally
	if s := db.Stats(); s.Gets != 0 || s.ReadLatency.Count != 0 || s.BloomProbes != 0 {
		t.Fatalf("the store has served reads before the test's: %d Gets, %d timed, %d filter probes", s.Gets, s.ReadLatency.Count, s.BloomProbes)
	}
	for i := 0; i < n; i++ {
		// Region b is where the slices are; every fourth key is absent.
		key := regionKey('b', (i*7)%30000)
		if i%4 == 3 {
			key = append(key, '!')
		}
		c := countProbes(t, st, v, key)
		want.bloomProbes += c.bloomProbes
		want.bloomNegatives += c.bloomNegatives
		want.tableProbes += c.tableProbes
		if _, err := db.Get(key); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	}
	s := db.Stats()
	if st.set.CurrentNoRef() != v {
		t.Fatal("the version changed under the test")
	}

	if s.Gets != n {
		t.Errorf("Gets = %d, want exactly %d", s.Gets, n)
	}
	d := s.ReadLatency
	if d.Count != n/ReadSampleEvery {
		t.Errorf("ReadLatency.Count = %d, want %d/%d", d.Count, n, ReadSampleEvery)
	}
	got := probeTally{s.BloomProbes, s.BloomNegatives, s.TableProbes}
	// The floor only says the Gets reach tables at all: 3 893 of the 16 000
	// probe one, a window's answer ending its level's search.
	if got != want || want.tableProbes < n/5 || want.bloomNegatives == 0 {
		t.Errorf("bloom probes / negatives / table probes = %+v, the test counted %+v", got, want)
	}
	if amp := float64(s.TableProbes) / float64(s.Gets); s.PointReadAmp != amp {
		t.Errorf("PointReadAmp = %v, want TableProbes/Gets = %v", s.PointReadAmp, amp)
	}
	// ReadTime is an estimate: ReadSampleEvery times the sampled Gets' time.
	// It is exactly that (the histogram's mean is its sum over its count), and
	// therefore between half the sampled median and the sampled maximum per
	// Get — a lost or doubled scale factor falls outside.
	if scaled := d.Mean * ReadSampleEvery * time.Duration(d.Count); s.ReadTime < scaled-scaled/100 || s.ReadTime > scaled+scaled/100 {
		t.Errorf("ReadTime = %v, want %d x the %d samples' total %v", s.ReadTime, ReadSampleEvery, d.Count, scaled/ReadSampleEvery)
	}
	if s.ReadTime < n*d.P50/2 || s.ReadTime > n*d.Max {
		t.Errorf("ReadTime = %v for %d Gets with sampled median %v and maximum %v", s.ReadTime, n, d.P50, d.Max)
	}
}

// windowHit is a key whose newest version lies in a slice window of level,
// over an older version in the level's file.
type windowHit struct {
	key, windowVal, fileVal []byte
	level                   int
	fileSeq                 keys.Seq
	fileNum                 uint64
}

// findWindowHit looks through every window of v for a key that the level's
// file holds too and whose newest version in the store is the window's.
func findWindowHit(t *testing.T, db *DB, v *version.Version) (windowHit, bool) {
	t.Helper()
	st := db.shards[0]
	ucmp := st.icmp.User
	var c sstable.ProbeCursor
	for level := 1; level < version.NumLevels; level++ {
		for _, s := range v.Windows[level].ByLo {
			r, err := st.tables.get(s.FrozenNum)
			if err != nil {
				t.Fatal(err)
			}
			it := r.NewIterator()
			for it.SeekGE(keys.MakeSearchKey(nil, s.Range.Lo, keys.MaxSeq)); it.Valid(); it.Next() {
				uk := keys.InternalKey(it.Key()).UserKey()
				if ucmp.Compare(uk, s.Range.Hi) > 0 {
					break
				}
				f := v.FindFile(level, uk)
				if f == nil {
					continue
				}
				fr, err := st.tables.get(f.Num)
				if err != nil {
					t.Fatal(err)
				}
				fval, _, fseq, found, err := fr.Probe(&c, keys.MakeSearchKey(nil, uk, keys.MaxSeq))
				if err != nil {
					t.Fatal(err)
				}
				if got, err := db.Get(uk); !found || err != nil || !bytes.Equal(got, it.Value()) {
					continue // not in the file, or a newer version lies above
				}
				it.Close()
				return windowHit{key: bytes.Clone(uk), level: level, windowVal: bytes.Clone(it.Value()), fileSeq: fseq, fileVal: bytes.Clone(fval), fileNum: f.Num}, true
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return windowHit{}, false
}

// TestGetStopsAtWindowHit: a Get whose newest version lies in a slice window
// probes the windows of that level that cover the key and not the level's
// file, though the file holds an older version of the key; a read at a
// snapshot below the window's version reaches the file and returns its.
func TestGetStopsAtWindowHit(t *testing.T) {
	db, err := openDB("/hit", Options{
		FS: vfs.Mem(), Policy: compaction.LDC,
		MemTableSize: 32 << 10, SSTableSize: 32 << 10, Fanout: 10, SliceLinkThreshold: 10,
		BlockCacheSize: 4 << 20,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st := db.shards[0]
	pad := strings.Repeat("v", 240)
	rng := rand.New(rand.NewSource(2))
	var (
		hit windowHit
		ok  bool
		v   *version.Version
	)
	// Rounds of puts with values unique to the round, each flushed and
	// compacted by the test, the way slicedTree builds its tree, until a
	// window holds a key's newest version over the file's.
	for round := 0; !ok; round++ {
		if round == 400 {
			t.Fatal("no window holds a newer version of a key its level's file holds")
		}
		for i := 0; i < 250; i++ {
			if err := db.Put(regionKey('b', rng.Intn(20000)), []byte(fmt.Sprintf("round-%04d-%s", round, pad))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactRange(); err != nil { // steps the store until it is idle
			t.Fatal(err)
		}
		if round%10 == 9 {
			v = st.set.Current()
			if hit, ok = findWindowHit(t, db, v); !ok {
				v.Unref()
			}
		}
	}
	defer v.Unref()

	// Nothing above the level holds the key, so each table a Get probes there
	// is one its filter let through; at the level, the windows that cover the
	// key and, under the old rule, the file.
	ucmp := st.icmp.User
	passes := func(num uint64) int64 {
		r, err := st.tables.get(num)
		if err != nil {
			t.Fatal(err)
		}
		if r.MayContain(hit.key) {
			return 1
		}
		return 0
	}
	var above, windows int64
	for _, f := range v.Levels[0] {
		if f.UserRange().Contains(ucmp, hit.key) {
			above += passes(f.Num)
		}
	}
	for level := 1; level <= hit.level; level++ {
		n := int64(0)
		for _, s := range v.Windows[level].ByLo {
			if s.Range.Contains(ucmp, hit.key) {
				n += passes(s.FrozenNum)
			}
		}
		if level == hit.level {
			windows = n
		} else if f := v.FindFile(level, hit.key); f != nil {
			above += n + passes(f.Num)
		} else {
			above += n
		}
	}
	if passes(hit.fileNum) != 1 {
		t.Fatalf("file %d holds %q but its filter rules the key out", hit.fileNum, hit.key)
	}

	before := st.stats.TableProbes.Load()
	got, err := db.Get(hit.key)
	if err != nil || !bytes.Equal(got, hit.windowVal) {
		t.Fatalf("Get(%q) = %q, %v; want the window's %q", hit.key, got, err, hit.windowVal)
	}
	if probes := st.stats.TableProbes.Load() - before; probes != above+windows {
		t.Errorf("Get(%q) probed %d tables: want %d above level %d and the %d windows covering the key there, not the file", hit.key, probes, above, hit.level, windows)
	}
	if st.set.CurrentNoRef() != v {
		t.Fatal("the version changed under the test")
	}

	t.Logf("%q: newest in %d window(s) of level %d, older at seq %d in file %d; %d probes above", hit.key, windows, hit.level, hit.fileSeq, hit.fileNum, above)
	seq := hit.fileSeq
	if got, err := st.getAt(hit.key, &seq, true); err != nil || !bytes.Equal(got, hit.fileVal) {
		t.Errorf("Get(%q) at the file's sequence %d = %q, %v; want the file's %q", hit.key, seq, got, err, hit.fileVal)
	}
}

// TestGetAllocs: a Get allocates the value it returns and nothing else —
// nothing at all when the value aliases a memtable or there is none to
// return — whether or not an immutable memtable is on the path.
func TestGetAllocs(t *testing.T) {
	if !exactAllocs {
		t.Skip("allocation counts are exact only without -race and -tags invariants")
	}
	for _, withImm := range []bool{false, true} {
		name := "imm=absent"
		if withImm {
			name = "imm=present"
		}
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewErrFS(vfs.Mem())
			opts := smallOpts(compaction.LDC)
			opts.FS = fs
			db := openTestDB(t, opts)
			defer db.Close()
			val := bytes.Repeat([]byte("v"), 100)
			for i := 0; i < 1000; i++ {
				if err := db.Put(key(i), val); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			db.WaitIdle()
			inImm, inMem := key(2000), key(3000)
			if withImm {
				// Park the flush of the next memtable in its table's fsync.
				release := make(chan struct{})
				defer close(release)
				fs.SetSyncHook(func(name string) error {
					if strings.HasSuffix(name, ".sst") {
						<-release
					}
					return nil
				})
				if err := db.Put(inImm, val); err != nil {
					t.Fatal(err)
				}
				for i := 0; !immPresent(db); i++ {
					if err := db.Put(key(4000+i), val); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.Put(inMem, val); err != nil {
				t.Fatal(err)
			}
			if immPresent(db) != withImm {
				t.Fatalf("immutable memtable present = %v", !withImm)
			}
			type getCase struct {
				name  string
				key   []byte
				found bool
				most  float64
			}
			cases := []getCase{
				{"table hit", key(500), true, 1},
				{"memtable hit", inMem, true, 1},
				{"not found", key(999999), false, 0},
			}
			if withImm {
				cases = append(cases, getCase{"immutable memtable hit", inImm, true, 1})
			}
			for _, tc := range cases {
				got := testing.AllocsPerRun(200, func() {
					v, err := db.Get(tc.key)
					if tc.found && (err != nil || !bytes.Equal(v, val)) || !tc.found && !errors.Is(err, ErrNotFound) {
						t.Fatalf("Get(%s) = %.10q, %v", tc.key, v, err)
					}
				})
				if got > tc.most {
					t.Errorf("%s: %.0f allocations per Get, want at most %.0f", tc.name, got, tc.most)
				}
			}
		})
	}
}

// TestGetMissAllocs: a Get whose block misses a full block cache allocates
// the block's bytes and the value it returns. The block's reader is the
// probe's own, and the cache entry is the one the insert evicts.
func TestGetMissAllocs(t *testing.T) {
	if !exactAllocs {
		t.Skip("allocation counts are exact only without -race and -tags invariants")
	}
	opts := smallOpts(compaction.LDC)
	// One entry per block, and room for about 130 of the tree's 1000 blocks.
	opts.BlockSize, opts.BlockCacheSize = 64, 16<<10
	db := openTestDB(t, opts)
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 100)
	const n = 1000
	ks := make([][]byte, n)
	for i := range ks {
		ks[i] = key(i)
		if err := db.Put(ks[i], val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(); err != nil {
		t.Fatal(err)
	}
	// Walking the keys in order cycles through every block, far more than the
	// cache holds, so under LRU each block is gone by the time it comes round
	// again.
	i := 0
	get := func() {
		k := ks[i%n]
		i++
		if v, err := db.Get(k); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("Get(%s) = %.10q, %v", k, v, err)
		}
	}
	for j := 0; j < 2*n; j++ { // fill the cache and open every table
		get()
	}
	before := db.Stats()
	const runs = 400
	got := testing.AllocsPerRun(runs, get)
	after := db.Stats()
	if misses := after.BlockCacheMisses - before.BlockCacheMisses; misses < runs {
		t.Fatalf("%d block-cache misses in %d Gets: the Gets do not miss", misses, runs+1)
	}
	if got > 2 {
		t.Errorf("%.0f allocations per Get that misses the block cache, want at most 2", got)
	}
}

// exactAllocs: the race detector makes sync.Pool drop items at random, and
// the invariants build allocates in its lock-rank and cache-accounting
// checks, so an exact allocation count holds under neither.
const exactAllocs = !raceEnabled && !invariants.Enabled

func immPresent(db *DB) bool {
	rs := db.shards[0].loadReadState()
	defer rs.unref()
	return rs.imm != nil
}

// TestGetResultIsCallersOwn holds Get and GetAt to handing out bytes nothing
// else refers to, from every place a value lies: the memtable, the immutable
// memtable, a table's data block, a separated value read from the value log
// and from the block cache, and an older version under a snapshot. Each
// result is scribbled over, then the key is read again; then everything is
// flushed, the store reopened and every key read once more. A Get that
// returned the store's own bytes would show the scribble in the next read,
// and, from a memtable, in the table it is flushed to.
func TestGetResultIsCallersOwn(t *testing.T) {
	fs := vfs.NewErrFS(vfs.Mem())
	opts := smallOpts(compaction.LDC)
	opts.FS = fs
	opts.BlobThreshold = 64
	db := openTestDB(t, opts)
	inline, separated := []byte("value"), blobValue(0, 200)
	put := func(k, v []byte) {
		t.Helper()
		if err := db.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	type row struct {
		name      string
		key, want []byte
		read      func() ([]byte, error)
		final     []byte // the key's value after reopening
	}
	get := func(name string, k, v []byte) row {
		return row{name: name, key: k, want: v, final: v, read: func() ([]byte, error) { return db.Get(k) }}
	}
	check := func(r row) {
		t.Helper()
		v, err := r.read()
		if err != nil || !bytes.Equal(v, r.want) {
			t.Fatalf("%s: read %q, %v; want %q", r.name, v, err, r.want)
		}
		for i := range v {
			v[i] = 'X'
		}
		if v, err := r.read(); err != nil || !bytes.Equal(v, r.want) {
			t.Errorf("%s: after scribbling over a result, read %q, %v; want %q", r.name, v, err, r.want)
		}
	}

	put([]byte("table"), inline)
	put([]byte("blob"), separated)
	put([]byte("cached blob"), separated)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("cached blob")); err != nil {
		t.Fatal(err)
	}
	hits := db.Stats().BlobResolveCacheHits
	check(get("table", []byte("table"), inline))
	check(get("blob uncached", []byte("blob"), separated))
	check(get("blob cached", []byte("cached blob"), separated))
	if got := db.Stats().BlobResolveCacheHits - hits; got != 3 {
		t.Fatalf("%d block-cache hits in the blob rows' four reads, want 3 (all but the first)", got)
	}

	// Park the flush of the next memtable in its table's fsync, so that what
	// it holds stays in the immutable memtable.
	release := make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	defer unpark()
	fs.SetSyncHook(func(name string) error {
		if strings.HasSuffix(name, ".sst") {
			<-release
		}
		return nil
	})
	put([]byte("imm"), inline)
	for i := 0; !immPresent(db); i++ {
		put(key(i), inline)
	}
	put([]byte("mem"), inline)
	check(get("imm", []byte("imm"), inline))
	check(get("memtable", []byte("mem"), inline))

	old := []byte("old value")
	put([]byte("snap"), old)
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	put([]byte("snap"), inline)
	atSnap := row{name: "GetAt under a snapshot", key: []byte("snap"), want: old, final: inline,
		read: func() ([]byte, error) { return db.GetAt([]byte("snap"), snap) }}
	check(atSnap)
	snap.Release()

	unpark()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openTestDB(t, opts)
	defer db.Close()
	for _, r := range []row{atSnap, get("table", []byte("table"), inline), get("blob uncached", []byte("blob"), separated),
		get("blob cached", []byte("cached blob"), separated), get("imm", []byte("imm"), inline),
		get("memtable", []byte("mem"), inline)} {
		if v, err := db.Get(r.key); err != nil || !bytes.Equal(v, r.final) {
			t.Errorf("%s: after flush and reopen, Get(%s) = %q, %v; want %q", r.name, r.key, v, err, r.final)
		}
	}
}
