package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/encoding"
	"repro/internal/invariants"
	"repro/internal/iterator"
	"repro/internal/keys"
	"repro/internal/vfs"
)

// readLog is a filesystem that records every read made of the files opened
// through it, with vfs.ErrFS's read hook. fault, when set, may fail or shorten
// the i-th read (counted from 0) of n bytes, the way the hook does.
type readLog struct {
	*vfs.ErrFS
	reads []readOp
	fault func(i, n int) (int, error)
}

type readOp struct {
	off int64
	n   int
}

func newReadLog(inner vfs.FS) *readLog {
	l := &readLog{ErrFS: vfs.NewErrFS(inner)}
	l.SetReadHook(func(_ string, off int64, n int) (int, error) {
		i := len(l.reads)
		l.reads = append(l.reads, readOp{off, n})
		if l.fault != nil {
			return l.fault(i, n)
		}
		return n, nil
	})
	return l
}

func (l *readLog) bytes() (n int64) {
	for _, r := range l.reads {
		n += int64(r.n)
	}
	return n
}

// tableBlock is one data block as the index names it.
type tableBlock struct {
	off, size int64 // on disk, trailer included
	lastKey   []byte
}

// layout lists r's data blocks in file order, as its on-disk index names them,
// and returns where the data ends (the first byte of the filter block, or of
// the index).
func layout(t testing.TB, r *Reader) (blocks []tableBlock, dataEnd int64) {
	t.Helper()
	var it block.Iter
	it.Init(onDiskIndex(t, r))
	for it.SeekToFirst(); it.Valid(); it.Next() {
		h, n := decodeBlockHandle(it.Value())
		if n == 0 {
			t.Fatal("bad index entry")
		}
		blocks = append(blocks, tableBlock{int64(h.offset), int64(h.length) + blockTrailerLen, bytes.Clone(it.Key())})
		dataEnd = int64(h.offset+h.length) + blockTrailerLen
	}
	return blocks, dataEnd
}

// span is the byte range View documents for a pass over window w: from the
// first block whose last key reaches w.Lo through the first whose last key
// reaches w.Hi. ok is false when no block can hold a key of w.
func span(blocks []tableBlock, w *keys.KeyRange) (first, last int, ok bool) {
	if len(blocks) == 0 {
		return 0, 0, false
	}
	if w == nil {
		return 0, len(blocks) - 1, true
	}
	lo := keys.MakeSearchKey(nil, w.Lo, keys.MaxSeq)
	hi := keys.MakeInternalKey(nil, w.Hi, 0, keys.KindDelete)
	if icmp.Compare(lo, hi) > 0 {
		return 0, 0, false // inverted
	}
	first = -1
	for i, b := range blocks {
		if icmp.Compare(b.lastKey, lo) >= 0 {
			first = i
			break
		}
	}
	if first < 0 {
		return 0, 0, false
	}
	last = len(blocks) - 1
	for i := first; i < len(blocks); i++ {
		if icmp.Compare(blocks[i].lastKey, hi) >= 0 {
			last = i
			break
		}
	}
	return first, last, true
}

type pair struct{ k, v []byte }

// drain copies out everything it yields from its current position.
func drain(t testing.TB, it iterator.Iterator) []pair {
	t.Helper()
	var out []pair
	for ; it.Valid(); it.Next() {
		out = append(out, pair{bytes.Clone(it.Key()), bytes.Clone(it.Value())})
	}
	if err := it.Error(); err != nil {
		t.Fatalf("iterator: %v", err)
	}
	return out
}

func samePairs(a, b []pair) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d entries, want %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].k, b[i].k) || !bytes.Equal(a[i].v, b[i].v) {
			return fmt.Errorf("entry %d is %s, want %s", i, keys.InternalKey(a[i].k), keys.InternalKey(b[i].k))
		}
	}
	return nil
}

// reference is a user iterator over r, clamped from outside for a slice.
func reference(r *Reader, w *keys.KeyRange) iterator.Iterator {
	if w == nil {
		return r.NewIterator()
	}
	return iterator.NewClamped(icmp.User, r.NewIterator(), *w)
}

// viewPass opens a compaction pass the way core does: an iterator over a view
// of r reading through f, clamped to window w (nil = the whole table) and
// reading ahead no further than its end. Closing the pass closes the view.
func viewPass(r *Reader, f vfs.File, w *keys.KeyRange) iterator.Iterator {
	p := new(passIter)
	r.View(&p.view, f, new(ReadStats))
	if w == nil {
		p.Iterator = p.view.NewIterator()
		return p
	}
	c := new(iterator.Clamped)
	c.Init(icmp.User, *w)
	c.Child = p.view.NewIteratorUpTo(c.Hi())
	p.Iterator = c
	return p
}

type passIter struct {
	iterator.Iterator
	view   Reader
	closed bool
}

func (p *passIter) Close() error {
	err := p.Iterator.Close()
	if !p.closed {
		p.closed = true
		err = errors.Join(err, p.view.Close())
	}
	return err
}

// checkSequential runs one pass over window w (nil = the whole table) and
// holds it to the reference's output and to the documented I/O shape.
func checkSequential(t *testing.T, fs vfs.FS, name string, r *Reader, w *keys.KeyRange) {
	t.Helper()
	ref := reference(r, w)
	ref.SeekToFirst()
	want := drain(t, ref)
	ref.Close()
	blockReads, hits, misses := r.opts.Stats.BlockReads.Load(), int64(0), int64(0)
	if r.opts.Cache != nil {
		hits, misses = r.opts.Cache.Stats()
	}
	onDisk, decoded := ioBytes(r)

	cf := newReadLog(fs)
	f, err := cf.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	it := viewPass(r, f, w)
	it.SeekToFirst()
	got := drain(t, it)
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := samePairs(got, want); err != nil {
		t.Fatalf("window %v: %v", w, err)
	}

	// The pass shares r's index and nothing else.
	if r.opts.Stats.BlockReads.Load() != blockReads {
		t.Errorf("pass moved BlockReads %d -> %d", blockReads, r.opts.Stats.BlockReads.Load())
	}
	if a, b := ioBytes(r); a != onDisk || b != decoded {
		t.Errorf("pass moved IOBytes (%d,%d) -> (%d,%d)", onDisk, decoded, a, b)
	}
	if r.opts.Cache != nil {
		if h, m := r.opts.Cache.Stats(); h != hits || m != misses {
			t.Errorf("pass touched the block cache: hits %d -> %d, misses %d -> %d", hits, h, misses, m)
		}
	}

	// I/O shape: exactly the window's block span, in maximal block-aligned
	// runs, each one read once and in file order.
	blocks, _ := layout(t, r)
	first, last, ok := span(blocks, w)
	if !ok {
		if len(cf.reads) != 0 {
			t.Fatalf("window %v holds no block, yet the pass read %v", w, cf.reads)
		}
		return
	}
	spanLo, spanHi := blocks[first].off, blocks[last].off+blocks[last].size
	if cf.bytes() != spanHi-spanLo {
		t.Errorf("window %v: read %d bytes, span [%d,%d) is %d", w, cf.bytes(), spanLo, spanHi, spanHi-spanLo)
	}
	next, maxBlock := first, int64(0)
	for i, rd := range cf.reads {
		if rd.off != blocks[next].off {
			t.Fatalf("read %d at %d: not at block %d's offset %d", i, rd.off, next, blocks[next].off)
		}
		var n int64
		for next <= last && n < int64(rd.n) {
			n += blocks[next].size
			maxBlock = max(maxBlock, blocks[next].size)
			next++
		}
		if n != int64(rd.n) {
			t.Fatalf("read %d of %d bytes at %d does not end on a block boundary", i, rd.n, rd.off)
		}
		if rd.n > IOChunk && blocks[next-1].off != rd.off {
			t.Errorf("read %d is %d bytes (> chunk) but holds more than one block", i, rd.n)
		}
		if next <= last && int64(rd.n)+blocks[next].size <= IOChunk {
			t.Errorf("read %d stopped at %d bytes though block %d (%d bytes) still fit the chunk", i, rd.n, next, blocks[next].size)
		}
	}
	if next != last+1 {
		t.Errorf("reads covered blocks [%d,%d), span is [%d,%d]", first, next, first, last)
	}
	if maxBlock <= IOChunk/2 {
		// Every read but the last carries more than chunk - maxBlock bytes.
		limit := (spanHi-spanLo)/(IOChunk-maxBlock) + 2
		if int64(len(cf.reads)) > limit {
			t.Errorf("%d reads for a %d-byte span (blocks up to %d bytes): more than %d", len(cf.reads), spanHi-spanLo, maxBlock, limit)
		}
	}
}

// randomKVs builds n user keys with one to three versions each, and values
// that compress (so every codec engages) with a random tail (so block sizes
// vary).
func randomKVs(rng *rand.Rand, n, maxVal int) []kv {
	var kvs []kv
	for i := 0; i < n; i++ {
		versions := 1 + rng.Intn(3)
		for v := 0; v < versions; v++ {
			val := strings.Repeat("payload ", rng.Intn(maxVal/8+1)) + fmt.Sprint(rng.Int63())
			kvs = append(kvs, kv{u: fmt.Sprintf("key-%06d", 2*i), seq: keys.Seq(10 - v), val: val})
		}
	}
	return kvs
}

func userKey(b tableBlock) []byte { return keys.InternalKey(b.lastKey).UserKey() }

// windowsFor returns the named corner cases plus random windows over a table
// whose user keys are key-%06d for even numbers below 2n.
func windowsFor(rng *rand.Rand, blocks []tableBlock, n int) []*keys.KeyRange {
	k := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	ws := []*keys.KeyRange{
		nil,                                      // the whole table
		{Lo: k(0), Hi: k(2 * n)},                 // a window that is the whole table
		{Lo: []byte("a"), Hi: []byte("b")},       // below the table
		{Lo: []byte("z"), Hi: []byte("zz")},      // above it
		{Lo: k(2*(n/2) + 1), Hi: k(2*(n/2) + 1)}, // between two keys: empty
		{Lo: k(n), Hi: k(n - 2)},                 // inverted
		{Lo: k(n), Hi: k(n)},                     // one key
		{Lo: nil, Hi: k(n)},                      // open below
	}
	if len(blocks) > 2 {
		i, j := rng.Intn(len(blocks)-1), rng.Intn(len(blocks)-1)
		if i > j {
			i, j = j, i
		}
		// Lo and Hi on block boundaries: a block's last key, and the key
		// after it (the next block's first).
		ws = append(ws,
			&keys.KeyRange{Lo: userKey(blocks[i]), Hi: userKey(blocks[j])},
			&keys.KeyRange{Lo: append(bytes.Clone(userKey(blocks[i])), 0), Hi: userKey(blocks[j+1])},
			&keys.KeyRange{Lo: userKey(blocks[j]), Hi: userKey(blocks[j])})
	}
	for i := 0; i < 12; i++ {
		a, b := rng.Intn(2*n+2)-1, rng.Intn(2*n+2)-1 // odd numbers fall between keys
		if a > b {
			a, b = b, a
		}
		ws = append(ws, &keys.KeyRange{Lo: k(a), Hi: k(b)})
	}
	return ws
}

// TestSequentialMatchesBlockAtATime is the equivalence and bounds property:
// over random tables in every format, a pass over a view yields what a user
// iterator yields, whole-file and clamped to windows, reads exactly the
// window's blocks in chunk-sized runs, and leaves the reader's counters and
// block cache alone.
func TestSequentialMatchesBlockAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, comp := range []compress.Kind{compress.None, compress.LZ4} {
		for _, bs := range []int{512, 4096} {
			wopts := WriterOptions{Cmp: icmp, BlockSize: bs, BloomBitsPerKey: 10, Compression: comp}
			t.Run(fmt.Sprintf("%v-%d", comp, bs), func(t *testing.T) {
				for round := 0; round < 3; round++ {
					n := 40 + rng.Intn(1500)
					fs := vfs.Mem()
					buildTable(t, fs, "/t.sst", wopts, randomKVs(rng, n, 300))
					ropts := defaultROpts()
					ropts.Cache = cache.New(1 << 20)
					r := openTable(t, fs, "/t.sst", ropts)
					blocks, _ := layout(t, r)
					for _, w := range windowsFor(rng, blocks, n) {
						checkSequential(t, fs, "/t.sst", r, w)
					}
					_ = r.Close()
				}
			})
		}
	}
}

func TestSequentialSingleBlockAndOversizedBlock(t *testing.T) {
	fs := vfs.Mem()
	buildTable(t, fs, "/one.sst", WriterOptions{Cmp: icmp, BlockSize: 4096}, sortedKVs(3))
	r := openTable(t, fs, "/one.sst", defaultROpts())
	if blocks, _ := layout(t, r); len(blocks) != 1 {
		t.Fatalf("%d blocks, want a single-block table", len(blocks))
	}
	for _, w := range []*keys.KeyRange{nil, {Lo: []byte("key-000001"), Hi: []byte("key-000001")}, {Lo: []byte("l"), Hi: []byte("m")}} {
		checkSequential(t, fs, "/one.sst", r, w)
	}
	_ = r.Close()

	// Values larger than a chunk make blocks larger than a chunk, between
	// ordinary ones: each is read alone, in one request.
	var kvs []kv
	for i := 0; i < 60; i++ {
		val := fmt.Sprintf("value-%06d", i)
		if i%20 == 7 {
			val = strings.Repeat("x", IOChunk+i*100)
		}
		kvs = append(kvs, kv{u: fmt.Sprintf("key-%06d", 2*i), seq: 1, val: val})
	}
	buildTable(t, fs, "/big.sst", WriterOptions{Cmp: icmp, BlockSize: 512}, kvs)
	r = openTable(t, fs, "/big.sst", defaultROpts())
	defer r.Close()
	blocks, _ := layout(t, r)
	oversized := 0
	for _, b := range blocks {
		if b.size > IOChunk {
			oversized++
		}
	}
	if oversized != 3 {
		t.Fatalf("%d blocks larger than a chunk, want 3", oversized)
	}
	for _, w := range windowsFor(rand.New(rand.NewSource(1)), blocks, 60) {
		checkSequential(t, fs, "/big.sst", r, w)
	}
}

// TestSequentialNeverReadsMetadata pins that a pass reads no byte at or
// after the end of the data blocks: not the filter, the index or the footer.
func TestSequentialNeverReadsMetadata(t *testing.T) {
	fs := vfs.Mem()
	props := buildTable(t, fs, "/t.sst", WriterOptions{Cmp: icmp, BlockSize: 512, BloomBitsPerKey: 10}, sortedKVs(2000))
	if props.FilterBytes == 0 {
		t.Fatal("table has no filter block")
	}
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	_, dataEnd := layout(t, r)
	cf := newReadLog(fs)
	f, _ := cf.Open("/t.sst")
	it := viewPass(r, f, nil)
	it.SeekToFirst()
	if n := len(drain(t, it)); n != 2000 {
		t.Fatalf("pass yielded %d entries", n)
	}
	it.Close()
	for _, rd := range cf.reads {
		if rd.off+int64(rd.n) > dataEnd {
			t.Errorf("read [%d,+%d) reaches past the data blocks, which end at %d", rd.off, rd.n, dataEnd)
		}
	}
}

func TestSequentialSeekGE(t *testing.T) {
	fs := vfs.Mem()
	rng := rand.New(rand.NewSource(3))
	buildTable(t, fs, "/t.sst", WriterOptions{Cmp: icmp, BlockSize: 512}, randomKVs(rng, 400, 100))
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	for i := 0; i < 200; i++ {
		var w *keys.KeyRange
		if i%2 == 1 {
			w = &keys.KeyRange{Lo: []byte(fmt.Sprintf("key-%06d", rng.Intn(400))), Hi: []byte(fmt.Sprintf("key-%06d", 400+rng.Intn(400)))}
		}
		target := keys.MakeInternalKey(nil, []byte(fmt.Sprintf("key-%06d", rng.Intn(820)-10)), keys.Seq(rng.Intn(12)), keys.KindSet)
		ref := reference(r, w)
		ref.SeekGE(target)
		want := drain(t, ref)
		ref.Close()
		f, _ := fs.Open("/t.sst")
		it := viewPass(r, f, w)
		it.SeekGE(target)
		got := drain(t, it)
		it.Close()
		if err := samePairs(got, want); err != nil {
			t.Fatalf("SeekGE(%s) in %v: %v", keys.InternalKey(target), w, err)
		}
	}
}

// TestSequentialReseek: a pass is forward-only, but one iterator can be
// re-seeked — back to an earlier block, from mid-run or from past the window's
// end — and each time yields what a fresh pass from that target does.
func TestSequentialReseek(t *testing.T) {
	fs := vfs.Mem()
	rng := rand.New(rand.NewSource(5))
	buildTable(t, fs, "/t.sst", WriterOptions{Cmp: icmp, BlockSize: 512}, randomKVs(rng, 400, 100))
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	for _, w := range []*keys.KeyRange{nil, {Lo: []byte("key-000100"), Hi: []byte("key-000300")}} {
		f, _ := fs.Open("/t.sst")
		it := viewPass(r, f, w)
		for trial := 0; trial < 60; trial++ {
			var target []byte
			ref := reference(r, w)
			if trial%10 == 0 {
				it.SeekToFirst()
				ref.SeekToFirst()
			} else {
				target = keys.MakeInternalKey(nil, []byte(fmt.Sprintf("key-%06d", rng.Intn(420)-10)), keys.Seq(rng.Intn(12)), keys.KindSet)
				it.SeekGE(target)
				ref.SeekGE(target)
			}
			want := drain(t, ref)
			ref.Close()
			steps := len(want)
			if trial%3 != 0 {
				steps = rng.Intn(steps + 1) // leave the pass partway through a run
			}
			var got []pair
			for ; it.Valid() && len(got) < steps; it.Next() {
				got = append(got, pair{bytes.Clone(it.Key()), bytes.Clone(it.Value())})
			}
			if err := it.Error(); err != nil {
				t.Fatal(err)
			}
			if err := samePairs(got, want[:steps]); err != nil {
				t.Fatalf("trial %d in %v, target %v: %v", trial, w, target, err)
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSequentialCorruptBlockInsideRun flips one byte in the third block of a
// run: the pass yields the two blocks before it, then fails with ErrCorrupt
// naming the file and the block's offset.
func TestSequentialCorruptBlockInsideRun(t *testing.T) {
	for _, comp := range []compress.Kind{compress.None, compress.LZ4} {
		fs := vfs.Mem()
		wopts := defaultWOpts()
		wopts.Compression = comp
		buildTable(t, fs, "/t.sst", wopts, sortedKVs(1000))
		ropts := defaultROpts()
		ropts.FileNum = 77
		r := openTable(t, fs, "/t.sst", ropts)
		blocks, _ := layout(t, r)
		data := readAll(t, fs, "/t.sst")
		data[blocks[2].off+blocks[2].size/2] ^= 0x10
		writeAll(t, fs, "/t.sst", data)

		ref := r.NewIterator()
		ref.SeekToFirst()
		var before int
		for ; ref.Valid() && icmp.Compare(ref.Key(), blocks[1].lastKey) <= 0; ref.Next() {
			before++
		}
		ref.Close()

		f, _ := fs.Open("/t.sst")
		it := viewPass(r, f, nil)
		got := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			got++
		}
		err := it.Close()
		if got != before {
			t.Errorf("%v: pass yielded %d entries before failing, the two good blocks hold %d", comp, got, before)
		}
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "file 000077") ||
			!strings.Contains(err.Error(), fmt.Sprintf("offset %d", blocks[2].off)) {
			t.Errorf("%v: err = %v, want ErrCorrupt naming file 000077 and offset %d", comp, err, blocks[2].off)
		}
		_ = r.Close()
	}
}

// TestSequentialReadErrors fails, then shortens, the second run's read: either
// way the pass ends with an error, never as a quietly shorter input.
func TestSequentialReadErrors(t *testing.T) {
	fs := vfs.Mem()
	buildTable(t, fs, "/t.sst", WriterOptions{Cmp: icmp, BlockSize: 4096}, randomKVs(rand.New(rand.NewSource(9)), 1500, 300))
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		fault func(n int) (int, error)
		want  error
	}{
		{"failed", func(n int) (int, error) { return 0, boom }, boom},
		{"short, with error", func(n int) (int, error) { return n / 2, boom }, boom},
		{"short", func(n int) (int, error) { return n - 1, nil }, io.ErrUnexpectedEOF},
		{"block-aligned short", func(n int) (int, error) { return 0, nil }, io.ErrUnexpectedEOF},
	} {
		cf := newReadLog(fs)
		cf.fault = func(i, n int) (int, error) {
			if i != 1 {
				return n, nil
			}
			return tc.fault(n)
		}
		f, _ := cf.Open("/t.sst")
		it := viewPass(r, f, nil)
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		err := it.Close()
		if len(cf.reads) != 2 || n == 0 {
			t.Fatalf("%s: %d reads, %d entries: the fault was to hit the second run of several", tc.name, len(cf.reads), n)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s read of the second run: pass ended with %v after %d entries, want %v", tc.name, err, n, tc.want)
		}
	}
}

// TestSequentialValuesDieAtHandOver documents the lifetime of what the
// iterator hands out: a value aliases the run's buffer, so it is only good
// until the iterator moves (the Iterator contract), and a caller that keeps
// one across the hand-over to the next run reads other bytes.
func TestSequentialValuesDieAtHandOver(t *testing.T) {
	fs := vfs.Mem()
	buildTable(t, fs, "/t.sst", WriterOptions{Cmp: icmp, BlockSize: 4096}, sortedKVs(20000))
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	cf := newReadLog(fs)
	f, _ := cf.Open("/t.sst")
	it := viewPass(r, f, nil)
	defer it.Close()
	it.SeekToFirst()
	kept, want := it.Value(), bytes.Clone(it.Value())
	for len(cf.reads) < 2 && it.Valid() {
		if !bytes.Equal(kept, want) {
			t.Fatal("value changed while its run was still current")
		}
		it.Next()
	}
	if len(cf.reads) < 2 {
		t.Fatal("table fits one run")
	}
	if bytes.Equal(kept, want) {
		t.Error("a value kept across the hand-over still reads the same: the run buffer was not reused")
	}
}

// TestSequentialUseAfterCloseCaught runs the use-after-Close trap of the
// pooled iterators over a pass: a closed table iterator panics on any use,
// and a value kept past Close reads the poisoned run buffer.
func TestSequentialUseAfterCloseCaught(t *testing.T) {
	if !invariants.Enabled {
		t.Skip("poison checks compile away without -tags invariants")
	}
	fs := vfs.Mem()
	buildTable(t, fs, "/t.sst", defaultWOpts(), sortedKVs(100))
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	for name, use := range map[string]func(iterator.Iterator){
		"Valid":       func(it iterator.Iterator) { it.Valid() },
		"Next":        func(it iterator.Iterator) { it.Next() },
		"SeekToFirst": func(it iterator.Iterator) { it.SeekToFirst() },
		"SeekGE":      func(it iterator.Iterator) { it.SeekGE([]byte("key-000001\x00\x00\x00\x00\x00\x00\x00\x01")) },
	} {
		f, _ := fs.Open("/t.sst")
		it := viewPass(r, f, nil)
		it.SeekToFirst()
		value := it.Value()
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Errorf("second Close = %v", err)
		}
		if !bytes.Equal(value, bytes.Repeat([]byte{0xDD}, len(value))) {
			t.Errorf("a value kept past Close reads %q, want poison", value)
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

// seekOnly makes a table iterator read one block per request whichever way
// it moves, as every iterator did before read-ahead: it steps forward by
// seeking to the key after the current one, and a seek reads a block alone.
// (It pays for a seek per entry, so compare its request counts, not its time.)
type seekOnly struct {
	iterator.Iterator
	next []byte
}

func (s *seekOnly) Next() {
	// The internal key after (ukey, trailer) has the trailer one lower, or is
	// the first key of the next user key.
	ik := keys.InternalKey(s.Key())
	if t := encoding.Fixed64(ik[len(ik)-keys.TrailerLen:]); t > 0 {
		s.next = encoding.PutFixed64(append(s.next[:0], ik.UserKey()...), t-1)
	} else {
		s.next = keys.MakeSearchKey(s.next[:0], append(bytes.Clone(ik.UserKey()), 0), keys.MaxSeq)
	}
	s.SeekGE(s.next)
}

// BenchmarkTableIterSequential walks one 4 MiB table of 1 KiB values from a
// counting in-memory file the three ways there are to read one: a block per
// request, as point reads do; a user iterator's forward walk, reading ahead;
// and a compaction input's pass over a view.
func BenchmarkTableIterSequential(b *testing.B) {
	fs := newReadLog(vfs.Mem())
	val := strings.Repeat("v", 1024)
	kvs := make([]kv, 4096)
	for i := range kvs {
		kvs[i] = kv{u: fmt.Sprintf("key-%06d", i), seq: 1, val: val}
	}
	buildTable(b, fs, "/bench.sst", WriterOptions{Cmp: icmp, BloomBitsPerKey: 10}, kvs)
	walk := func(b *testing.B, open func() (iterator.Iterator, func())) {
		once := func() (entries int) {
			it, done := open()
			for it.SeekToFirst(); it.Valid(); it.Next() {
				entries++
			}
			if err := it.Close(); err != nil {
				b.Fatal(err)
			}
			done()
			return entries
		}
		entries := 0
		fs.reads = fs.reads[:0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			entries += once()
		}
		b.StopTimer()
		if entries != b.N*len(kvs) {
			b.Fatalf("walked %d entries, want %d", entries, b.N*len(kvs))
		}
		reads := len(fs.reads)
		allocs := testing.AllocsPerRun(1, func() { once() })
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
		b.ReportMetric(allocs/float64(len(kvs)), "allocs/entry")
		b.ReportMetric(float64(reads)/float64(b.N), "readops/table")
	}
	// The user iterators walk a reader opened per pass (footer, index and
	// filter reads included) over an empty block cache, which is what a
	// compaction input cost before it read through views; the pass shares one
	// pinned reader's index through a view and leaves the cache alone.
	user := func(wrap func(iterator.Iterator) iterator.Iterator) func() (iterator.Iterator, func()) {
		return func() (iterator.Iterator, func()) {
			ropts := defaultROpts()
			ropts.Cache = cache.New(8 << 20)
			r := openTable(b, fs, "/bench.sst", ropts)
			return wrap(r.NewIterator()), func() { _ = r.Close() }
		}
	}
	b.Run("block-at-a-time", func(b *testing.B) {
		walk(b, user(func(it iterator.Iterator) iterator.Iterator { return &seekOnly{Iterator: it} }))
	})
	b.Run("readahead", func(b *testing.B) {
		walk(b, user(func(it iterator.Iterator) iterator.Iterator { return it }))
	})
	b.Run("sequential", func(b *testing.B) {
		r := openTable(b, fs, "/bench.sst", defaultROpts())
		defer r.Close()
		walk(b, func() (iterator.Iterator, func()) {
			f, err := fs.Open("/bench.sst")
			if err != nil {
				b.Fatal(err)
			}
			return viewPass(r, f, nil), func() {}
		})
	})
}
