package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/compaction"
	"repro/internal/encoding"
	"repro/internal/invariants"
	"repro/internal/iterator"
	"repro/internal/keys"
	"repro/internal/ssdsim"
	"repro/internal/sstable"
	"repro/internal/version"
	"repro/internal/vfs"
)

// seekOnly makes a table iterator read one block per request whichever way it
// moves: it steps forward by seeking to the key after the current one, and a
// seek reads a block alone. (Its twin lives in sstable's tests.)
type seekOnly struct {
	iterator.Iterator
	next []byte
}

func (s *seekOnly) Next() {
	ik := keys.InternalKey(s.Key())
	if t := encoding.Fixed64(ik[len(ik)-keys.TrailerLen:]); t > 0 {
		s.next = encoding.PutFixed64(append(s.next[:0], ik.UserKey()...), t-1)
	} else {
		s.next = keys.MakeSearchKey(s.next[:0], append(bytes.Clone(ik.UserKey()), 0), keys.MaxSeq)
	}
	s.SeekGE(s.next)
}

// newEagerIter is the reference the lazy scan path is held to: the merged view
// as it was built before — every table of every level and every slice of every
// sliced file opened up front and seeked on every seek, each slice a clamped
// iterator of its own in one flat merge, every block read alone.
func (db *store) newEagerIter(t testing.TB, seq keys.Seq) *storeIter {
	t.Helper()
	rs := db.loadReadState()
	if rs == nil {
		t.Fatal("store is closed")
	}
	table := func(num uint64) iterator.Iterator {
		r, err := db.tables.get(num)
		if err != nil {
			t.Fatal(err)
		}
		return &seekOnly{Iterator: r.NewIterator()}
	}
	children := []iterator.Iterator{rs.mem.NewIterator()}
	if rs.imm != nil {
		children = append(children, rs.imm.NewIterator())
	}
	for level, files := range rs.v.Levels {
		for i := len(files) - 1; i >= 0; i-- {
			children = append(children, table(files[i].Num))
			for _, s := range files[i].Slices {
				if level == 0 {
					t.Fatal("an L0 file carries a slice")
				}
				children = append(children, iterator.NewClamped(db.icmp.User, table(s.FrozenNum), s.Range))
			}
		}
	}
	// The reference is a pooled store iterator over its own merge, so that its
	// Close puts back into the pool only what the pool gave out.
	i := db.iters.Get().(*storeIter)
	i.rs, i.it, i.seq, i.valid, i.err = rs, iterator.NewMerging(db.icmp.Compare, children...), seq, false, nil
	return i
}

// scanModel is the expected content of a store: user key to value, tombstones
// removed.
type scanModel map[string]string

func (m scanModel) sorted() []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// churn applies n random puts, overwrites and deletes over keys key(0..space)
// to both db and the model.
func churn(t testing.TB, db *DB, m scanModel, rng *rand.Rand, n, space int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := key(rng.Intn(space))
		if rng.Intn(5) == 0 {
			if err := db.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(m, string(k))
			continue
		}
		v := fmt.Sprintf("v%d-%s", i, strings.Repeat("x", rng.Intn(120)))
		if err := db.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		m[string(k)] = v
	}
}

// windowBounds lists the Lo and Hi of every slice window of the current
// version, the keys where the lazy path changes what it does.
func windowBounds(db *store) (bounds [][]byte, slices int) {
	v := db.set.Current()
	defer v.Unref()
	for level := range v.Windows {
		for _, s := range v.Windows[level].ByLo {
			bounds = append(bounds, s.Range.Lo, s.Range.Hi)
			slices++
		}
	}
	return bounds, slices
}

// TestLazyScanMatchesEagerReference is the model-based equivalence test of the
// scan path: on random trees with overlapping slice windows, tombstones,
// overwrites and a pinned snapshot, random programs of seeks and steps read
// the same keys and values, byte for byte, through the store's iterator
// (slices opened lazily, tables read ahead) and through the eager reference —
// while a writer keeps flushing, linking and merging underneath.
func TestLazyScanMatchesEagerReference(t *testing.T) {
	const space = 3000
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			opts := smallOpts(policy)
			opts.SliceLinkThreshold = 6 // keep several links outstanding per file
			db := openTestDB(t, opts)
			defer db.Close()
			st := db.shards[0]
			rng := rand.New(rand.NewSource(18))

			// An early snapshot keeps shadowed versions and tombstones alive in
			// the tables; the second one is what every program reads at.
			early := scanModel{}
			churn(t, db, early, rng, 6000, space)
			pinned, err := db.NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer pinned.Release()
			model := scanModel{}
			for k, v := range early {
				model[k] = v
			}
			churn(t, db, model, rng, 14000, space)
			snap, err := db.NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			seq := *snap.seq(0)

			// The writer overwrites the same keys above the snapshot, a burst
			// beside every program, so that flushes, links and merges keep
			// replacing the tables under the iterators however slow the build.
			burst := make(chan struct{}, 1)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(81))
				for range burst {
					for i := 0; i < 250; i++ {
						if err := db.Put(key(wrng.Intn(space)), []byte(fmt.Sprintf("later-%d", i))); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			defer wg.Wait()
			defer close(burst)

			programs, maxSlices := 40, 0
			if testing.Short() {
				programs = 8 // the race detector and the invariants build run this 20 to 50 times slower
			}
			// program runs one program; its deferred Close leaves no iterator
			// pinning a read state when a check fails, or db.Close would wait
			// on it for good.
			program := func(prog int) {
				select {
				case burst <- struct{}{}:
				default: // the last burst is still going
				}
				bounds, slices := windowBounds(st)
				maxSlices = max(maxSlices, slices)
				lazy, err := st.newIter(&seq)
				if err != nil {
					t.Fatal(err)
				}
				eager := st.newEagerIter(t, seq)
				defer func() {
					if err := errors.Join(lazy.Close(), eager.Close()); err != nil {
						t.Error(err)
					}
				}()
				var trace []string
				check := func(op string) {
					t.Helper()
					trace = append(trace, op)
					if err := errors.Join(lazy.Error(), eager.Error()); err != nil {
						t.Fatalf("program %d %v: %v", prog, trace, err)
					}
					if lazy.Valid() != eager.Valid() {
						t.Fatalf("program %d %v: lazy valid=%v, eager valid=%v", prog, trace, lazy.Valid(), eager.Valid())
					}
					if !lazy.Valid() {
						return
					}
					if !bytes.Equal(lazy.Key(), eager.Key()) || !bytes.Equal(lazy.Value(), eager.Value()) {
						t.Fatalf("program %d %v: lazy at %q=%q, eager at %q=%q", prog, trace,
							lazy.Key(), lazy.Value(), eager.Key(), eager.Value())
					}
					if want, ok := model[string(lazy.Key())]; !ok || want != string(lazy.Value()) {
						t.Fatalf("program %d %v: at %q=%q, the model has %q (present=%v)", prog, trace,
							lazy.Key(), lazy.Value(), want, ok)
					}
				}
				for step := 0; step < 120; step++ {
					switch r := rng.Intn(20); {
					case r == 0:
						lazy.SeekToFirst()
						eager.SeekToFirst()
						check("first")
					case r == 1:
						lazy.SeekToFirst()
						eager.SeekToFirst()
						check("first")
					case r < 5:
						var target []byte
						switch c := rng.Intn(10); {
						case c < 5 && len(bounds) > 0:
							// Exactly on a window's Lo or Hi, or just past it.
							target = bytes.Clone(bounds[rng.Intn(len(bounds))])
							if rng.Intn(3) == 0 {
								target = append(target, 0)
							}
						case c == 5:
							target = []byte("a") // below everything
						case c == 6:
							target = []byte("z") // above everything
						default:
							target = key(rng.Intn(space + 10))
						}
						lazy.SeekGE(target)
						eager.SeekGE(target)
						check(fmt.Sprintf("seek(%q)", target))
					case r < 14 || !lazy.Valid():
						if !lazy.Valid() {
							continue
						}
						lazy.Next()
						eager.Next()
						check("next")
					default:
						lazy.Next()
						eager.Next()
						check("next")
					}
				}
			}
			for prog := 0; prog < programs; prog++ {
				program(prog)
			}
			if policy == compaction.LDC && maxSlices < 10 {
				t.Errorf("the tree never carried more than %d slices: the lazy path was hardly exercised", maxSlices)
			}

			// A whole walk against the model.
			want := model.sorted()
			lazy, err := st.newIter(&seq)
			if err != nil {
				t.Fatal(err)
			}
			defer lazy.Close()
			i := 0
			for lazy.SeekToFirst(); lazy.Valid(); lazy.Next() {
				if i >= len(want) || string(lazy.Key()) != want[i] || string(lazy.Value()) != model[want[i]] {
					t.Fatalf("forward walk, position %d: %q=%q", i, lazy.Key(), lazy.Value())
				}
				i++
			}
			if i != len(want) || lazy.Error() != nil {
				t.Fatalf("forward walk ended after %d of %d keys: %v", i, len(want), lazy.Error())
			}
		})
	}
}

// slicedTree builds a quiesced LDC tree over fs with two key regions: "a-…",
// written once and compacted to the bottom before anything else, so that no
// slice window ever reaches into it, and "b-…", churned a round of puts at a
// time until the quiesced tree carries at least minSlices live slices. The
// store has no compaction worker and the test is the worker: after every
// round it flushes and steps the store until nothing is pickable,
// so no merge races a put and the tree — its slice count with it — is the same
// on every run. It returns the tree, the number of slices, and a key of b in
// the most-linked file.
func slicedTree(t testing.TB, fs vfs.FS, minSlices int) (db *DB, slices int, sliced []byte) {
	t.Helper()
	db, err := openDB("/sliced", Options{
		FS: fs, Policy: compaction.LDC,
		MemTableSize: 32 << 10, SSTableSize: 32 << 10, Fanout: 10, SliceLinkThreshold: 10,
		BlockCacheSize: 4 << 20,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	val := bytes.Repeat([]byte("v"), 256)
	// A round is two memtables or so: L0 stays far below the stop trigger,
	// where a put would wait for a worker that is not coming.
	const roundPuts, chunkRounds, maxChunks = 250, 20, 20
	round := func(key func(i int) []byte) {
		for i := 0; i < roundPuts; i++ {
			if err := db.Put(key(i), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactRange(); err != nil { // steps the store until it is idle
			t.Fatal(err)
		}
	}
	for base := 0; base < 4000; base += roundPuts {
		round(func(i int) []byte { return regionKey('a', base+i) })
	}
	rng := rand.New(rand.NewSource(1))
	for chunk := 0; slices < minSlices; chunk++ {
		if chunk == maxChunks {
			t.Fatalf("the tree carries %d slices after %d puts, want at least %d", slices, chunk*chunkRounds*roundPuts, minSlices)
		}
		for r := 0; r < chunkRounds; r++ {
			round(func(int) []byte { return regionKey('b', rng.Intn(30000)) })
		}
		slices, sliced = countSlices(t, db)
	}
	return db, slices, sliced
}

// countSlices returns the number of live slices in db's tree and a key in its
// most-linked file, and fails the test if a window reaches into region a.
func countSlices(t testing.TB, db *DB) (slices int, sliced []byte) {
	t.Helper()
	v := db.shards[0].set.Current()
	defer v.Unref()
	most := 0
	for level := 1; level < version.NumLevels; level++ {
		for _, s := range v.Windows[level].ByLo {
			if s.Range.Contains(db.shards[0].icmp.User, regionKey('a', 3999)) {
				t.Fatalf("window %q..%q reaches into region a", s.Range.Lo, s.Range.Hi)
			}
		}
		slices += len(v.Windows[level].ByLo)
		for _, f := range v.Sliced[level] {
			if len(f.Slices) > most {
				most, sliced = len(f.Slices), f.Smallest.UserKey()
			}
		}
	}
	return slices, sliced
}

// emptyBlockCache evicts every block of db's live and frozen tables.
func emptyBlockCache(db *DB) {
	for _, st := range db.shards {
		v := st.set.Current()
		for _, files := range v.Levels {
			for _, f := range files {
				db.blockCache.EvictFile(st.tables.cacheNum(f.Num))
			}
		}
		for num := range v.Frozen {
			db.blockCache.EvictFile(st.tables.cacheNum(num))
		}
		v.Unref()
	}
}

func regionKey(region byte, i int) []byte { return []byte(fmt.Sprintf("%c-%08d", region, i)) }

// TestLazyScanAllocsIgnoreSlicesOutsideRange: what a scan allocates depends on
// what it reads, not on how many slices the tree carries elsewhere.
func TestLazyScanAllocsIgnoreSlicesOutsideRange(t *testing.T) {
	scanAllocs := func(db *DB) float64 {
		return testing.AllocsPerRun(20, func() {
			if kvs, err := db.Scan(regionKey('a', 1000), 100); err != nil || len(kvs) != 100 {
				t.Fatalf("Scan = %d pairs, %v", len(kvs), err)
			}
		})
	}
	bare, _, _ := slicedTree(t, vfs.Mem(), 0)
	want := scanAllocs(bare)
	db, slices, _ := slicedTree(t, vfs.Mem(), 300)
	got := scanAllocs(db)
	// The churned tree has a few more levels and L0 tables to put in the merge:
	// a handful of allocations, against the one and more per slice that
	// building every slice's child used to cost. The race detector makes pools
	// drop items at random, which moves the count by as much again.
	if exactAllocs && got > want+8 {
		t.Errorf("Scan of 100 pairs outside every window allocates %.0f times with %d slices in the tree, %.0f with none", got, slices, want)
	}
	t.Logf("allocs per Scan(100): %.0f with %d slices elsewhere, %.0f with none", got, slices, want)
}

// scanChunks counts the scanChunk buffers Scan packs kvs into.
func scanChunks(kvs []KV) int {
	n, free := 0, 0
	for _, kv := range kvs {
		switch size := len(kv.Key) + len(kv.Value); {
		case size > scanChunk:
			n++
		case size > free:
			n, free = n+1, scanChunk-size
		default:
			free -= size
		}
	}
	return n
}

// TestScanAllocs: a warm 100-pair Scan allocates its result and a chunk per
// scanChunk bytes of pairs, and nothing else: every iterator under it comes
// back from a pool. Over one shard, from inside a sliced file's windows and
// from a region no window reaches, and over two shards, through their merge.
func TestScanAllocs(t *testing.T) {
	if !exactAllocs {
		t.Skip("allocation counts are exact only without -race and -tags invariants")
	}
	one, _, sliced := slicedTree(t, vfs.Mem(), 300)
	opts := smallOpts(compaction.LDC)
	opts.Shards = 2
	two := openTestDB(t, opts)
	defer two.Close()
	fillSequential(t, two, 4000)
	if err := two.Flush(); err != nil {
		t.Fatal(err)
	}
	two.WaitIdle()
	fillSequential(t, two, 200) // newer versions in the memtables
	for _, tc := range []struct {
		name  string
		db    *DB
		start []byte
	}{
		{"shards=1/sliced", one, sliced},
		{"shards=1/unsliced", one, regionKey('a', 1000)},
		{"shards=2", two, key(100)},
	} {
		// A collection empties the pools, and the next Puts into them
		// allocate their per-P arrays and queues again, so the bound holds
		// the fewest of several measurements (as in TestScanRequests).
		var kvs []KV
		got := math.Inf(1)
		for range 5 {
			got = min(got, testing.AllocsPerRun(20, func() {
				var err error
				if kvs, err = tc.db.Scan(tc.start, 100); err != nil || len(kvs) != 100 {
					t.Fatalf("%s: Scan = %d pairs, %v", tc.name, len(kvs), err)
				}
			}))
		}
		if want := 1 + scanChunks(kvs); got > float64(want) {
			t.Errorf("%s: a warm Scan of 100 pairs allocates %.0f times, want %d: the result and %d chunks", tc.name, got, want, want-1)
		}
		t.Logf("%s: %.0f allocations per warm Scan(100)", tc.name, got)
	}
}

// TestScanRequests pins what a 100-pair Scan with a cold block cache costs, on
// a device that only counts (ssdsim at Scale 0): from a key of the most-linked
// file, where the scan crosses that file's slice windows, and from a region no
// window reaches. A table iterator's seek reads ahead as its forward steps do,
// and a block it read ahead is decoded only if it lands there, so the scans
// make at most 12 and 4 device requests (16 and 5 when a seek read its block
// alone) and allocate for the blocks they land on, not for all they read, and
// for the result and its chunk: at most 20 and 11 times (36 and 27 when the
// iterator stack was built anew for every scan).
func TestScanRequests(t *testing.T) {
	prof := ssdsim.DefaultProfile()
	prof.Scale = 0
	dev := ssdsim.NewDevice(prof)
	db, _, sliced := slicedTree(t, ssdsim.Wrap(vfs.Mem(), dev), 300)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	for _, tc := range []struct {
		name          string
		start         []byte
		reads, allocs uint64
	}{
		{"sliced", sliced, 12, 20},
		{"unsliced", regionKey('a', 1000), 4, 11},
	} {
		if _, err := db.Scan(tc.start, 100); err != nil { // fills the pools
			t.Fatal(err)
		}
		// A collection in the middle of a scan can empty the pools it draws on,
		// so the allocation bound holds the fewest of several runs.
		const runs = 10
		reads, allocs := uint64(0), uint64(math.MaxUint64)
		for i := 0; i < runs; i++ {
			emptyBlockCache(db)
			var before, after runtime.MemStats
			ops := dev.Snapshot().ByCategory[ssdsim.CatUserRead].ReadOps
			runtime.ReadMemStats(&before)
			kvs, err := db.Scan(tc.start, 100)
			runtime.ReadMemStats(&after)
			if err != nil || len(kvs) != 100 {
				t.Fatalf("%s: Scan = %d pairs, %v", tc.name, len(kvs), err)
			}
			reads += uint64(dev.Snapshot().ByCategory[ssdsim.CatUserRead].ReadOps - ops)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
		}
		if reads > tc.reads*runs {
			t.Errorf("%s: a cold Scan of 100 pairs made %.1f device reads, want at most %d", tc.name, float64(reads)/runs, tc.reads)
		}
		if exactAllocs && allocs > tc.allocs {
			t.Errorf("%s: a cold Scan of 100 pairs made %d allocations, want at most %d", tc.name, allocs, tc.allocs)
		}
		t.Logf("%s: %.1f device reads per cold Scan(100), %d allocations", tc.name, float64(reads)/runs, allocs)
	}
}

// TestFullWalkKeepsHotBlock: a walk of the whole store, as the server's DBSIZE
// makes, over a store four times the size of its full block cache streams past
// the cache. Only each table's first request goes into it, so the block of a
// key that point reads keep hot is still cached after the walk; a walk that
// cached every block it landed on would have pushed it out.
func TestFullWalkKeepsHotBlock(t *testing.T) {
	db := openTestDB(t, Options{
		FS: vfs.Mem(), Policy: compaction.LDC,
		MemTableSize: 256 << 10, SSTableSize: 256 << 10, BlockCacheSize: 512 << 10,
	})
	defer db.Close()
	const n = 2000
	val := bytes.Repeat([]byte("v"), 1000)
	for i := 0; i < n; i++ {
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
	get := func(i int) (blocksRead int64) {
		before := db.Stats().BlockReads
		if v, err := db.Get(key(i)); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("Get(%d) = %d bytes, %v", i, len(v), err)
		}
		return db.Stats().BlockReads - before
	}
	for i := 0; i < n; i++ { // fills the cache with the blocks of point reads
		get(i)
	}
	if used := db.blockCache.Used(); used < 448<<10 {
		t.Fatalf("the point reads left %d bytes of a 512 KiB cache in use", used)
	}
	const hot = 0 // its block went out of the cache long ago
	if get(hot) != 1 || get(hot) != 0 {
		t.Fatal("the hot key's block is not cached after its point read")
	}
	it, err := db.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	walked := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		walked++
	}
	if err := it.Close(); err != nil || walked != n {
		t.Fatalf("walk saw %d keys of %d: %v", walked, n, err)
	}
	if got := get(hot); got != 0 {
		t.Errorf("the hot key's block was read again after the walk: the walk evicted it")
	}
}

// TestScanPairsEndAtTheirCapacity: Scan carves pairs out of shared chunks, so
// every Key and Value ends at its own capacity — appending to one pair never
// writes into the next — and a pair larger than a chunk comes back whole; from
// the memtable and from tables alike.
func TestScanPairsEndAtTheirCapacity(t *testing.T) {
	opts := smallOpts(compaction.LDC)
	opts.MemTableSize, opts.SSTableSize = 1<<20, 1<<20
	db := openTestDB(t, opts)
	defer db.Close()
	sizes := []int{0, 1, 100, scanChunk - 12, scanChunk, 40 << 10, 7}
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, sizes[i%len(sizes)]) }
	const n = 60
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, where := range []string{"memtable", "tables"} {
		if where == "tables" {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		kvs, err := db.Scan(nil, n+1)
		if err != nil || len(kvs) != n {
			t.Fatalf("%s: Scan = %d pairs, %v; want %d", where, len(kvs), err, n)
		}
		for i, kv := range kvs {
			if cap(kv.Key) != len(kv.Key) || cap(kv.Value) != len(kv.Value) {
				t.Errorf("%s: pair %d: key len %d cap %d, value len %d cap %d", where, i, len(kv.Key), cap(kv.Key), len(kv.Value), cap(kv.Value))
			}
		}
		for i := range kvs {
			kvs[i].Key = append(kvs[i].Key, '!')
			kvs[i].Value = append(kvs[i].Value, '!')
		}
		for i, kv := range kvs {
			if !bytes.Equal(kv.Key, append(key(i), '!')) || !bytes.Equal(kv.Value, append(val(i), '!')) {
				t.Fatalf("%s: after appending to every pair, pair %d reads %.20q = %d bytes", where, i, kv.Key, len(kv.Value))
			}
		}
	}
	if kvs, err := db.Scan(nil, 0); kvs != nil || err != nil {
		t.Errorf("Scan(nil, 0) = %d pairs, %v; want nil, nil", len(kvs), err)
	}
}

// chunkSink keeps TestScanChunkIsASmallObject's chunks on the heap.
var chunkSink [][]byte

// TestScanChunkIsASmallObject: a scan chunk comes out of the allocator's 32 KiB
// size class. A chunk of a full 32 KiB is a large object, with a span of its
// own that is zeroed at every allocation. runtime.MemStats.BySize stops at the
// 18 KiB class, so the test reads the runtime's histogram of allocations by
// size, whose buckets end at the size classes.
func TestScanChunkIsASmallObject(t *testing.T) {
	const n = 64
	sample := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	inClass := func() uint64 {
		metrics.Read(sample)
		h := sample[0].Value.Float64Histogram()
		for i, c := range h.Counts {
			if h.Buckets[i] <= 32<<10 && h.Buckets[i+1] > 32<<10 {
				return c
			}
		}
		t.Fatal("no bucket holds the 32 KiB size class")
		return 0
	}
	before := inClass()
	for i := 0; i < n; i++ {
		chunkSink = append(chunkSink, make([]byte, 0, scanChunk))
	}
	// A span is counted when the allocator moves on from it, so the last
	// chunk may not be counted yet.
	if got := inClass() - before; got < n/2 {
		t.Errorf("%d chunks of %d bytes: %d allocations in the 32 KiB size class", n, scanChunk, got)
	}
	chunkSink = nil
}

// TestLazyScanCorruptBlock damages one data block of a table and checks, at the
// level of DB.Scan, that bad bytes behind a read-ahead are nobody's problem
// until a scan gets to them, and then the problem a Get of a key there has.
func TestLazyScanCorruptBlock(t *testing.T) {
	fs := vfs.NewErrFS(vfs.Mem())
	opts := smallOpts(compaction.UDC)
	opts.FS, opts.MemTableSize, opts.SSTableSize, opts.BlockSize = fs, 256<<10, 256<<10, 4096
	db := openTestDB(t, opts)
	const n = 200 // less than one memtable
	val := bytes.Repeat([]byte("v"), 1000)
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	v := db.shards[0].set.Current()
	var tables []*version.FileMeta
	for _, files := range v.Levels {
		tables = append(tables, files...)
	}
	v.Unref()
	if len(tables) != 1 {
		t.Fatalf("%d tables, want the one flush", len(tables))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The middle of the file is a data block well inside the third or fourth
	// read-ahead request of a scan from the start.
	name := version.TableFileName(db.shards[0].dir, tables[0].Num)
	if err := fs.FlipBit(name, tables[0].Size/2); err != nil {
		t.Fatal(err)
	}
	db = openTestDB(t, opts)
	defer db.Close()

	// The first key whose Get fails is the first key of the damaged block.
	bad, perr := -1, error(nil)
	for i := 0; i < n && bad < 0; i++ {
		if _, err := db.Get(key(i)); err != nil {
			bad, perr = i, err
		}
	}
	if bad < 40 || !errors.Is(perr, sstable.ErrCorrupt) {
		t.Fatalf("first unreadable key is %d: %v", bad, perr)
	}
	// Start over with nothing cached, so that the scans below read ahead
	// across the damaged block themselves.
	db.Close()
	db = openTestDB(t, opts)
	defer db.Close()

	kvs, err := db.Scan(key(0), bad)
	if err != nil || len(kvs) != bad {
		t.Fatalf("Scan of the %d pairs before the bad block = %d pairs, %v", bad, len(kvs), err)
	}
	kvs, err = db.Scan(key(0), bad+1)
	if len(kvs) != bad || err == nil || err.Error() != perr.Error() {
		t.Fatalf("Scan onto the bad block = %d pairs, %v; Get says %v", len(kvs), err, perr)
	}
	if want := fmt.Sprintf("file %06d at offset", tables[0].Num); !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to name %s", err, want)
	}
	// Past the bad block the table reads on.
	next := bad
	for err != nil {
		next++
		_, err = db.Get(key(next))
	}
	if kvs, err = db.Scan(key(next), n); err != nil || len(kvs) != n-next {
		t.Errorf("Scan from behind the bad block = %d pairs, %v", len(kvs), err)
	}
}

// TestLazyScanSliceIterUseAfterCloseCaught runs the use-after-Close trap the
// other pooled iterators have over the slice iterator.
func TestLazyScanSliceIterUseAfterCloseCaught(t *testing.T) {
	if !invariants.Enabled {
		t.Skip("poison checks compile away without -tags invariants")
	}
	db, _, sliced := slicedTree(t, vfs.Mem(), 1)
	st := db.shards[0]
	v := st.set.Current()
	defer v.Unref()
	level := 1
	for len(v.Windows[level].ByLo) == 0 {
		level++
	}
	for name, use := range map[string]func(iterator.Iterator){
		"Valid":       func(it iterator.Iterator) { it.Valid() },
		"Key":         func(it iterator.Iterator) { it.Key() },
		"Next":        func(it iterator.Iterator) { it.Next() },
		"SeekToFirst": func(it iterator.Iterator) { it.SeekToFirst() },
		"SeekGE":      func(it iterator.Iterator) { it.SeekGE(keys.MakeSearchKey(nil, sliced, keys.MaxSeq)) },
		"Open":        func(it iterator.Iterator) { it.(iterator.Lazy).Open() },
	} {
		it := st.newSliceIter(&v.Windows[level])
		it.SeekToFirst()
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Errorf("second Close = %v", err)
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
