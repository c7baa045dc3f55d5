package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/invariants"
	"repro/internal/iterator"
	"repro/internal/keys"
	"repro/internal/vfs"
)

// raTable is one table of 4 KiB blocks (four 1 KiB values each) on a read-
// logging filesystem, with its layout, and a reader over a cold block cache.
type raTable struct {
	fs     *readLog
	r      *Reader
	cache  *cache.Cache
	blocks []tableBlock
}

const raFileNum = 7

// newRATable builds (once per fs) and opens the table; the log starts empty.
func newRATable(t testing.TB, fs *readLog, nblocks int) *raTable {
	t.Helper()
	if !fs.Exists("/ra.sst") {
		kvs := make([]kv, 4*nblocks)
		for i := range kvs {
			kvs[i] = kv{u: fmt.Sprintf("key-%06d", i), seq: 1, val: fmt.Sprintf("%06d", i) + strings.Repeat("v", 1018)}
		}
		buildTable(t, fs, "/ra.sst", WriterOptions{Cmp: icmp, BlockSize: 4096, BloomBitsPerKey: 10}, kvs)
	}
	ropts := defaultROpts()
	ropts.Cache, ropts.FileNum = cache.New(16<<20), raFileNum
	tb := &raTable{fs: fs, cache: ropts.Cache, r: openTable(t, fs, "/ra.sst", ropts)}
	t.Cleanup(func() { _ = tb.r.Close() })
	tb.blocks, _ = layout(t, tb.r)
	if len(tb.blocks) != nblocks {
		t.Fatalf("table has %d blocks, want %d", len(tb.blocks), nblocks)
	}
	fs.reads = nil
	return tb
}

// firstKey is the search key that lands on block i's first entry.
func (tb *raTable) firstKey(i int) []byte {
	return keys.MakeSearchKey(nil, []byte(fmt.Sprintf("key-%06d", 4*i)), keys.MaxSeq)
}

// blockAt maps an offset to the block that starts there.
func (tb *raTable) blockAt(t *testing.T, off int64) int {
	t.Helper()
	for i, b := range tb.blocks {
		if b.off == off {
			return i
		}
	}
	t.Fatalf("a read starts at %d, which is no block's offset", off)
	return -1
}

// requests renders the log as block ranges: "0 1-3 4-10" is a read of block
// 0, one of blocks 1 to 3 and one of blocks 4 to 10.
func (tb *raTable) requests(t *testing.T) string {
	t.Helper()
	var out []string
	for _, rd := range tb.fs.reads {
		first := tb.blockAt(t, rd.off)
		last, n := first, tb.blocks[first].size
		for n < int64(rd.n) {
			last++
			n += tb.blocks[last].size
		}
		if n != int64(rd.n) {
			t.Fatalf("read of %d bytes at block %d does not end on a block boundary", rd.n, first)
		}
		if last == first {
			out = append(out, fmt.Sprint(first))
		} else {
			out = append(out, fmt.Sprintf("%d-%d", first, last))
		}
	}
	tb.fs.reads = nil
	return strings.Join(out, " ")
}

// walk steps it forward until it rests on block upTo's first entry (or the
// end), counting entries.
func (tb *raTable) walk(t *testing.T, it iterator.Iterator, upTo int) (n int) {
	t.Helper()
	for ; it.Valid(); it.Next() {
		if upTo < len(tb.blocks) && icmp.Compare(it.Key(), tb.firstKey(upTo)) >= 0 {
			break
		}
		n++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReadAheadRequestShape pins what a user iterator asks the device for. On
// this table a block is a little over 4 KiB on disk, so a 16 KiB request holds
// 3 of them, a 32 KiB one 7 and a 64 KiB one 15. A seek's request is the first
// of the ramp; only a point read reads a block alone.
func TestReadAheadRequestShape(t *testing.T) {
	fs := newReadLog(vfs.Mem())
	const n = 60

	t.Run("cold forward walk ramps up", func(t *testing.T) {
		tb := newRATable(t, fs, n)
		if sz := tb.blocks[0].size; 3*sz > readAheadMin || 4*sz <= readAheadMin || 15*sz > IOChunk || 16*sz <= IOChunk {
			t.Fatalf("blocks of %d bytes do not pack 3, 7 and 15 to a request", sz)
		}
		it := tb.r.NewIterator()
		defer it.Close()
		it.SeekToFirst()
		if got := tb.walk(t, it, n); got != 4*n {
			t.Fatalf("walked %d entries, want %d", got, 4*n)
		}
		if got, want := tb.requests(t), "0-2 3-9 10-24 25-39 40-54 55-59"; got != want {
			t.Errorf("requests %q, want %q", got, want)
		}
		// Every block went into the cache under its own offset, charged what it
		// keeps resident.
		var resident int64
		for i, b := range tb.blocks {
			v, ok := tb.cache.Get(cache.Key{FileNum: raFileNum, Offset: uint64(b.off)})
			if !ok {
				t.Fatalf("block %d is not cached", i)
			}
			resident += int64(len(v))
		}
		if tb.cache.Len() != n || tb.cache.Used() != resident {
			t.Errorf("cache holds %d entries charged %d bytes, want %d charged %d", tb.cache.Len(), tb.cache.Used(), n, resident)
		}
		// A second walk finds everything cached.
		it.SeekToFirst()
		tb.walk(t, it, n)
		if got := tb.requests(t); got != "" {
			t.Errorf("warm walk read %q", got)
		}
	})

	t.Run("a seek starts the ramp over", func(t *testing.T) {
		tb := newRATable(t, fs, n)
		it := tb.r.NewIterator()
		defer it.Close()
		it.SeekToFirst()
		tb.walk(t, it, 12) // up the ramp to a 64 KiB request
		it.SeekGE(tb.firstKey(30))
		tb.walk(t, it, 45)
		if got, want := tb.requests(t), "0-2 3-9 10-24 30-32 33-39 40-54"; got != want {
			t.Errorf("requests %q, want %q", got, want)
		}
	})

	t.Run("never past the block that holds upper", func(t *testing.T) {
		tb := newRATable(t, fs, n)
		w := keys.KeyRange{Lo: []byte("key-000010"), Hi: []byte("key-000077")} // blocks 2 to 19
		first, last, _ := span(tb.blocks, &w)
		if first != 2 || last != 19 {
			t.Fatalf("window spans blocks %d to %d", first, last)
		}
		hi := keys.MakeInternalKey(nil, w.Hi, 0, keys.KindDelete)
		it := iterator.NewClamped(icmp.User, tb.r.NewIteratorUpTo(hi), w)
		defer it.Close()
		it.SeekToFirst()
		if got := len(drain(t, it)); got != 68 {
			t.Fatalf("window yielded %d entries, want 68", got)
		}
		if got, want := tb.requests(t), "2-4 5-11 12-19"; got != want {
			t.Errorf("requests %q, want %q", got, want)
		}
	})

	t.Run("a request stops short of a cached block", func(t *testing.T) {
		tb := newRATable(t, fs, n)
		if _, _, found, err := tb.r.Get([]byte("key-000033"), keys.MaxSeq); !found || err != nil { // block 8
			t.Fatal(found, err)
		}
		it := tb.r.NewIterator()
		defer it.Close()
		it.SeekToFirst()
		tb.walk(t, it, 30)
		if got, want := tb.requests(t), "8 0-2 3-7 9-23 24-38"; got != want {
			t.Errorf("requests %q, want %q", got, want)
		}
	})

	t.Run("a seek's request stops at upper's block and short of a cached block", func(t *testing.T) {
		tb := newRATable(t, fs, n)
		w := keys.KeyRange{Lo: []byte("key-000010"), Hi: []byte("key-000013")} // blocks 2 and 3
		it := iterator.NewClamped(icmp.User, tb.r.NewIteratorUpTo(keys.MakeInternalKey(nil, w.Hi, 0, keys.KindDelete)), w)
		it.SeekToFirst()
		if got := len(drain(t, it)); got != 4 {
			t.Fatalf("window yielded %d entries, want 4", got)
		}
		it.Close()
		if _, _, found, err := tb.r.Get([]byte("key-000028"), keys.MaxSeq); !found || err != nil { // block 7
			t.Fatal(found, err)
		}
		it = tb.r.NewIterator()
		defer it.Close()
		it.SeekGE(tb.firstKey(5))
		tb.walk(t, it, 9)
		if got, want := tb.requests(t), "2-3 7 5-6 8-14"; got != want {
			t.Errorf("requests %q, want %q", got, want)
		}
	})

	t.Run("a seek back starts the ramp over below the blocks read", func(t *testing.T) {
		tb := newRATable(t, fs, n)
		it := tb.r.NewIterator()
		defer it.Close()
		it.SeekGE(tb.firstKey(20))
		tb.walk(t, it, 30)
		it.SeekGE(tb.firstKey(10))
		if got := tb.walk(t, it, 20); got != 40 {
			t.Fatalf("walked %d entries back up to block 20, want 40", got)
		}
		if got, want := tb.requests(t), "20-22 23-29 30-44 10-12 13-19"; got != want {
			t.Errorf("requests %q, want %q", got, want)
		}
	})

	t.Run("point reads take one block", func(t *testing.T) {
		tb := newRATable(t, fs, n)
		for i := 0; i < 4*n; i += 4 {
			if _, _, found, err := tb.r.Get([]byte(fmt.Sprintf("key-%06d", i)), keys.MaxSeq); !found || err != nil {
				t.Fatal(i, found, err)
			}
		}
		var want []string
		for i := 0; i < n; i++ {
			want = append(want, fmt.Sprint(i))
		}
		if got := tb.requests(t); got != strings.Join(want, " ") {
			t.Errorf("point reads requested %q", got)
		}
	})
}

// TestReadAheadBlocksOwnTheirBytes checks that blocks cached out of one
// request share no memory: scribbling over everything one of them can reach
// leaves its neighbours readable. (Under -tags invariants the request's buffer
// is poisoned as well, so a block that aliased it would fail every test here.)
func TestReadAheadBlocksOwnTheirBytes(t *testing.T) {
	tb := newRATable(t, newReadLog(vfs.Mem()), 30)
	it := tb.r.NewIterator()
	it.SeekToFirst()
	want := drain(t, it)
	it.Close()
	if got := tb.requests(t); got != "0-2 3-9 10-24 25-29" {
		t.Fatalf("requests %q", got)
	}
	// Blocks 3 to 9 came in one request. From an entry of block 6, reach as
	// far as the allocation behind it goes.
	it = tb.r.NewIterator()
	it.SeekGE(tb.firstKey(6))
	v := it.Value()
	v = v[:cap(v)]
	for i := range v {
		v[i] = 0xEE
	}
	it.Close()
	// Every other block still reads as before (block 6 itself is now garbage
	// that nothing validates again, so the walk goes around it).
	it = tb.r.NewIterator()
	defer it.Close()
	it.SeekToFirst()
	for i := 0; i < 24; i++ {
		if i > 0 {
			it.Next()
		}
		if !it.Valid() || !bytes.Equal(it.Key(), want[i].k) || !bytes.Equal(it.Value(), want[i].v) {
			t.Fatalf("entry %d (block %d) changed when block 6 was overwritten", i, i/4)
		}
	}
	it.SeekGE(tb.firstKey(7))
	for i, got := range drain(t, it) {
		if w := want[28+i]; !bytes.Equal(got.k, w.k) || !bytes.Equal(got.v, w.v) {
			t.Fatalf("entry %d (block %d) changed when block 6 was overwritten", 28+i, 7+i/4)
		}
	}
	if got := tb.requests(t); got != "" {
		t.Errorf("the blocks were to come from the cache, yet %q was read", got)
	}
}

// TestReadAheadLandsLazily: a request's blocks are verified, decoded and
// cached only as the walk lands on them, and neither sizing a request nor
// landing on a block the iterator holds counts as a cache lookup.
func TestReadAheadLandsLazily(t *testing.T) {
	tb := newRATable(t, newReadLog(vfs.Mem()), 30)
	atOpen, _ := ioBytes(tb.r) // the index and the filter
	lookups := func() int64 {
		hits, misses := tb.cache.Stats()
		return hits + misses
	}
	check := func(requests string, landed int) {
		t.Helper()
		if got := tb.requests(t); got != requests {
			t.Errorf("requests %q, want %q", got, requests)
		}
		var onDisk int64
		for _, b := range tb.blocks[:landed] {
			onDisk += b.size - blockTrailerLen
		}
		if got, _ := ioBytes(tb.r); tb.cache.Len() != landed || tb.r.opts.Stats.BlockReads.Load() != int64(landed) || got-atOpen != onDisk {
			t.Errorf("%d blocks cached, %d decoded, %d bytes counted; want the %d landed on, %d bytes",
				tb.cache.Len(), tb.r.opts.Stats.BlockReads.Load(), got-atOpen, landed, onDisk)
		}
	}
	it := tb.r.NewIterator()
	defer it.Close()
	it.SeekToFirst()
	check("0-2", 1)
	if got := lookups(); got != 1 {
		t.Errorf("a seek that read ahead made %d cache lookups, want its own block's", got)
	}
	before := lookups()
	tb.walk(t, it, 2)
	if got := lookups() - before; got != 0 {
		t.Errorf("landing on two held blocks made %d cache lookups", got)
	}
	check("", 3)
	tb.walk(t, it, 5)
	check("3-9", 6)
	before = lookups()
	it.SeekGE(tb.firstKey(4)) // back onto block 4, held and landed on already
	if !it.Valid() || lookups() != before {
		t.Errorf("seeking back onto a held block: valid=%v, %d cache lookups", it.Valid(), lookups()-before)
	}
	check("", 6)
}

// TestReadAheadPoisonsHeldRun: under -tags invariants the held run's buffer is
// overwritten as it goes back to the pool, so that a block that still aliased
// it would read garbage in every test.
func TestReadAheadPoisonsHeldRun(t *testing.T) {
	if !invariants.Enabled {
		t.Skip("poisoning compiles away without -tags invariants")
	}
	tb := newRATable(t, newReadLog(vfs.Mem()), 30)
	it := tb.r.NewIterator().(*tableIter)
	it.SeekToFirst()
	held := it.chunk
	if held == nil || tb.requests(t) != "0-2" {
		t.Fatal("the seek holds no run")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	for i, b := range held[:3*tb.blocks[0].size] {
		if b != 0xDD {
			t.Fatalf("byte %d of the released run reads %#x", i, b)
		}
	}
}

// TestReadAheadBadBytes: a block that fails its checksum inside a request is a
// problem only for a scan that lands on it, and then the same problem a point
// read of it has: the iterator reads it again alone and reports what that read
// reports.
func TestReadAheadBadBytes(t *testing.T) {
	fs := newReadLog(vfs.Mem())
	tb := newRATable(t, fs, 30)
	bad := tb.blocks[7] // inside the 3-9 request
	if err := fs.FlipBit("/ra.sst", bad.off+bad.size/2); err != nil {
		t.Fatal(err)
	}
	tb = newRATable(t, fs, 30) // over the damaged file
	cached := func(i int) bool {
		_, ok := tb.cache.Get(cache.Key{FileNum: raFileNum, Offset: uint64(tb.blocks[i].off)})
		return ok
	}

	// A scan that ends in block 6 never learns of it.
	it := tb.r.NewIterator()
	defer it.Close()
	it.SeekToFirst()
	for i := 1; i < 4*7; i++ {
		it.Next()
	}
	if !it.Valid() || it.Error() != nil || string(keys.InternalKey(it.Key()).UserKey()) != "key-000027" {
		t.Fatalf("scan up to the bad block: valid=%v err=%v", it.Valid(), it.Error())
	}
	if got := tb.requests(t); got != "0-2 3-9" {
		t.Fatalf("requests %q", got)
	}
	for i := 0; i < 10; i++ {
		if cached(i) != (i < 7) {
			t.Errorf("block %d cached = %v: the blocks landed on are cached, nothing after them", i, cached(i))
		}
	}

	// One step further it reads the block again, alone, and reports what a
	// point read reports.
	it.Next()
	err := it.Error()
	if got := tb.requests(t); got != "7" {
		t.Errorf("landing on the bad block requested %q, want it alone", got)
	}
	_, _, _, perr := tb.r.Get([]byte("key-000028"), keys.MaxSeq)
	if it.Valid() || !errors.Is(err, ErrCorrupt) || perr == nil || err.Error() != perr.Error() {
		t.Errorf("scan onto the bad block: valid=%v err=%v; the point read says %v", it.Valid(), err, perr)
	}
	if want := fmt.Sprintf("file %06d at offset %d", raFileNum, bad.off); !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to name %s", err, want)
	}
	if cached(7) {
		t.Error("the bad block is cached")
	}

	// A seek onto it fails the same way: the head of its request is bad.
	tb.fs.reads = nil
	seek := tb.r.NewIterator()
	defer seek.Close()
	seek.SeekGE(tb.firstKey(7))
	if seek.Valid() || seek.Error() == nil || seek.Error().Error() != perr.Error() {
		t.Errorf("seek onto the bad block: valid=%v err=%v; the point read says %v", seek.Valid(), seek.Error(), perr)
	}
	if got := tb.requests(t); got != "7-9 7" {
		t.Errorf("seek onto the bad block requested %q", got)
	}
}

// TestReadAheadShortRead fails, then shortens, the 3-9 request: the scan
// stops with an error, never as if the table ended there.
func TestReadAheadShortRead(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		fault func(n int) (int, error)
		want  error
	}{
		{"failed", func(n int) (int, error) { return 0, boom }, boom},
		{"short", func(n int) (int, error) { return n - 1, nil }, io.ErrUnexpectedEOF},
		{"block-aligned short", func(n int) (int, error) { return n / 7 * 3, nil }, io.ErrUnexpectedEOF},
	} {
		fs := newReadLog(vfs.Mem())
		tb := newRATable(t, fs, 30)
		fs.fault = func(i, n int) (int, error) {
			if i != 1 {
				return n, nil
			}
			return tc.fault(n)
		}
		it := tb.r.NewIterator()
		it.SeekToFirst()
		entries := 0
		for ; it.Valid(); it.Next() {
			entries++
		}
		if err := it.Close(); entries != 3*4 || !errors.Is(err, tc.want) {
			t.Errorf("%s: scan ended after %d entries with %v, want 12 and %v", tc.name, entries, err, tc.want)
		}
		if got := tb.requests(t); got != "0-2 3-9" {
			t.Errorf("%s: requests %q", tc.name, got)
		}
	}
}

// useCache puts the table's reader on c in place of its own cold cache.
func (tb *raTable) useCache(c *cache.Cache) {
	tb.cache, tb.r.opts.Cache = c, c
}

// blockKey is block i's key in the block cache, and blockLen its decoded
// (here: raw) size, what the cache charges for it.
func (tb *raTable) blockKey(i int) cache.Key {
	return cache.Key{FileNum: raFileNum, Offset: uint64(tb.blocks[i].off)}
}

func (tb *raTable) blockLen(i int) int64 { return tb.blocks[i].size - blockTrailerLen }

// fillCache sets 4 KiB entries of another file into c until it is full to the
// byte: c has one shard and a capacity that is a multiple of 4 KiB.
func fillCache(c *cache.Cache, capacity int64) {
	for i := uint64(0); c.Used() < capacity; i++ {
		c.Set(cache.Key{FileNum: raFileNum + 1, Offset: i << 12}, make([]byte, 4096), 4096)
	}
}

// walkAll walks it from its current position to the end and checks that the
// walk yields entries from the n-th on, each as the table holds it.
func (tb *raTable) walkAll(t *testing.T, it iterator.Iterator, n int) {
	t.Helper()
	for ; it.Valid(); it.Next() {
		if string(keys.InternalKey(it.Key()).UserKey()) != fmt.Sprintf("key-%06d", n) || string(it.Value()[:6]) != fmt.Sprintf("%06d", n) {
			t.Fatalf("entry %d reads %q", n, it.Key())
		}
		n++
	}
	if err := it.Error(); err != nil || n != 4*len(tb.blocks) {
		t.Fatalf("walk ended at entry %d of %d: %v", n, 4*len(tb.blocks), err)
	}
}

// TestReadAheadStreamsPastAFullCache: on a full block cache a long walk reads
// as it does on an empty one and lands, verifies and counts every block, but
// only its seek's request changes the cache: the cache ends as it would after
// a Set of those blocks, and every block of the later requests, streamed in
// place, evicted nothing.
func TestReadAheadStreamsPastAFullCache(t *testing.T) {
	const n, capacity = 60, 64 << 12
	tb := newRATable(t, newReadLog(vfs.Mem()), n)
	tb.useCache(cache.NewSharded(capacity, 1))
	fillCache(tb.cache, capacity)
	twin := cache.NewSharded(capacity, 1)
	fillCache(twin, capacity)
	for i := 0; i < 3; i++ { // the seek's request, 0-2
		twin.Set(tb.blockKey(i), make([]byte, tb.blockLen(i)), tb.blockLen(i))
	}

	atOpen, _ := ioBytes(tb.r) // the index and the filter
	it := tb.r.NewIterator()
	defer it.Close()
	it.SeekToFirst()
	tb.walkAll(t, it, 0)
	if got, want := tb.requests(t), "0-2 3-9 10-24 25-39 40-54 55-59"; got != want {
		t.Errorf("requests %q, want %q", got, want)
	}
	var onDisk int64
	for i := range tb.blocks {
		onDisk += tb.blockLen(i)
	}
	if got, _ := ioBytes(tb.r); tb.r.opts.Stats.BlockReads.Load() != n || got-atOpen != onDisk {
		t.Errorf("%d blocks decoded and %d bytes counted, want all %d and their %d bytes",
			tb.r.opts.Stats.BlockReads.Load(), got-atOpen, n, onDisk)
	}
	for i := uint64(0); i < capacity>>12; i++ {
		k := cache.Key{FileNum: raFileNum + 1, Offset: i << 12}
		if tb.cache.Contains(k) != twin.Contains(k) {
			t.Errorf("filler entry %d: cached = %v, want %v", i, tb.cache.Contains(k), twin.Contains(k))
		}
	}
	for i := range tb.blocks {
		if tb.cache.Contains(tb.blockKey(i)) != (i < 3) {
			t.Errorf("block %d cached = %v: only the seek's request, 0-2, goes into a full cache", i, !(i < 3))
		}
	}
	if tb.cache.Used() != twin.Used() || tb.cache.Len() != twin.Len() {
		t.Errorf("cache holds %d entries charged %d bytes, want %d charged %d", tb.cache.Len(), tb.cache.Used(), twin.Len(), twin.Used())
	}

	// A streamed request of one block (the window ends in block 13) is held
	// in the buffer like a longer one, not read alone into the cache.
	w := keys.KeyRange{Lo: []byte("key-000040"), Hi: []byte("key-000052")} // blocks 10 to 13
	win := iterator.NewClamped(icmp.User, tb.r.NewIteratorUpTo(keys.MakeInternalKey(nil, w.Hi, 0, keys.KindDelete)), w)
	defer win.Close()
	win.SeekToFirst()
	if got := len(drain(t, win)); got != 13 {
		t.Fatalf("window yielded %d entries, want 13", got)
	}
	if got := tb.requests(t); got != "10-12 13" {
		t.Errorf("window requests %q, want %q", got, "10-12 13")
	}
	if tb.cache.Contains(tb.blockKey(13)) || !tb.cache.Contains(tb.blockKey(10)) {
		t.Error("the window's seek request is not cached, or its streamed block is")
	}
}

// TestReadAheadStreamsIntoFreeRoom: a walk's streamed blocks go into the cache
// for as long as it has room for them, and never push out what is there —
// here the seek's blocks, which came first.
func TestReadAheadStreamsIntoFreeRoom(t *testing.T) {
	const n = 60
	tb := newRATable(t, newReadLog(vfs.Mem()), n)
	var room int64 // the first ten blocks' worth: 0-2, then 3-9 of the 3-9 request
	for i := 0; i < 10; i++ {
		room += tb.blockLen(i)
	}
	tb.useCache(cache.NewSharded(room, 1))
	it := tb.r.NewIterator()
	defer it.Close()
	it.SeekToFirst()
	tb.walkAll(t, it, 0)
	for i := range tb.blocks {
		if tb.cache.Contains(tb.blockKey(i)) != (i < 10) {
			t.Errorf("block %d cached = %v, want the ten that fit", i, !(i < 10))
		}
	}
	if tb.cache.Used() != room || tb.r.opts.Stats.BlockReads.Load() != n {
		t.Errorf("cache charged %d bytes of %d, %d blocks decoded of %d", tb.cache.Used(), room, tb.r.opts.Stats.BlockReads.Load(), n)
	}
	// A second walk finds 0-9 cached and reads the rest again. Its first
	// request since the seek, 10-12, is the one that goes into the cache as a
	// seek's does; the ramp goes on from there.
	it.SeekToFirst()
	tb.walkAll(t, it, 0)
	if got, want := tb.requests(t), "0-2 3-9 10-24 25-39 40-54 55-59 10-12 13-19 20-34 35-49 50-59"; got != want {
		t.Errorf("requests %q, want %q", got, want)
	}
}

// TestReadAheadStreamedValueDies: under -tags invariants, a value kept from a
// block a walk streamed past a full cache reads as poison once the walk's next
// request is read, while one kept from its seek's request, which the cache
// owns, reads as before.
func TestReadAheadStreamedValueDies(t *testing.T) {
	if !invariants.Enabled {
		t.Skip("poisoning compiles away without -tags invariants")
	}
	const capacity = 64 << 12
	tb := newRATable(t, newReadLog(vfs.Mem()), 30)
	tb.useCache(cache.NewSharded(capacity, 1))
	fillCache(tb.cache, capacity)
	it := tb.r.NewIteratorUpTo(tb.blocks[11].lastKey) // a short last request: 10-11
	defer it.Close()
	it.SeekToFirst()
	tb.walk(t, it, 2)
	seekVal := it.Value() // block 2's first entry, in the cache
	tb.walk(t, it, 9)
	for i := 0; i < 3; i++ {
		it.Next()
	}
	streamed := it.Value() // block 9's last entry, in the 3-9 request's buffer
	if string(streamed[:6]) != "000039" {
		t.Fatalf("at %q, want block 9's last entry", streamed[:6])
	}
	it.Next() // onto block 10: the next request
	if got := tb.requests(t); got != "0-2 3-9 10-11" {
		t.Fatalf("requests %q", got)
	}
	for i, b := range streamed {
		if b != 0xDD {
			t.Fatalf("byte %d of a value kept from a streamed block reads %#x after the next request", i, b)
		}
	}
	if string(seekVal[:6]) != "000008" {
		t.Errorf("a value kept from the seek's request reads %q", seekVal[:6])
	}
}
