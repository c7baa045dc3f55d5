package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/checksum"
	"repro/internal/compress"
	"repro/internal/encoding"
	"repro/internal/invariants"
	"repro/internal/keys"
	"repro/internal/vfs"
)

// exactAllocs: the race detector makes sync.Pool drop items at random, and
// the invariants build allocates in the lock-rank checks of the block cache
// and of the in-memory filesystem, so an exact allocation count holds under
// neither.
const exactAllocs = !raceEnabled && !invariants.Enabled

// onDiskIndex reads r's index block back from its file, as the table stores
// it, without moving r's read counters.
func onDiskIndex(t testing.TB, r *Reader) *block.Reader {
	t.Helper()
	tail := make([]byte, min(r.size, footerLenV2))
	if _, err := r.f.ReadAt(tail, r.size-int64(len(tail))); err != nil {
		t.Fatal(err)
	}
	ftr, err := decodeFooter(tail)
	if err != nil {
		t.Fatal(err)
	}
	h := ftr.indexHandle
	raw := make([]byte, h.length+blockTrailerLen)
	if _, err := r.f.ReadAt(raw, int64(h.offset)); err != nil {
		t.Fatal(err)
	}
	data, err := r.decodeBlock(raw, h.offset)
	if err != nil {
		t.Fatal(err)
	}
	br, err := block.NewReader(r.cmp, data)
	if err != nil {
		t.Fatal(err)
	}
	return br
}

// randomTable writes to name a table drawn from rng — n user keys over a
// small alphabet, so that neighbours share prefixes, with up to three versions
// each and values from empty to 300 bytes, in blocks of 64 to 575 bytes under
// a random codec — and returns its writer and its entries in order.
func randomTable(t testing.TB, rng *rand.Rand, fs vfs.FS, name string, n int) (*Writer, []pair) {
	t.Helper()
	users := map[string]bool{}
	for len(users) < n {
		u := make([]byte, 1+rng.Intn(10))
		for i := range u {
			u[i] = "abc"[rng.Intn(3)]
		}
		users[string(u)] = true
	}
	sorted := make([]string, 0, n)
	for u := range users {
		sorted = append(sorted, u)
	}
	sort.Strings(sorted)
	wopts := defaultWOpts()
	wopts.BlockSize = 64 + rng.Intn(512)
	wopts.Compression = []compress.Kind{compress.None, compress.LZ4}[rng.Intn(2)]
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, wopts)
	var want []pair
	for _, u := range sorted {
		seq := keys.Seq(10 + rng.Intn(1000))
		for v := rng.Intn(3); v >= 0; v-- {
			ik := keys.MakeInternalKey(nil, []byte(u), seq, keys.KindSet)
			val := make([]byte, rng.Intn(300))
			rng.Read(val)
			if err := w.Add(ik, val); err != nil {
				t.Fatal(err)
			}
			want = append(want, pair{ik, val})
			seq -= keys.Seq(1 + rng.Intn(3))
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return w, want
}

// seekTargets are the internal keys tests seek to: every entry's, and around
// each user key the smallest and largest keys it can have and the smallest of
// the next user key up — so below the first entry, between versions, between
// user keys, on entries and past the last.
func seekTargets(want []pair) [][]byte {
	targets := [][]byte{keys.MakeSearchKey(nil, nil, keys.MaxSeq)}
	for _, p := range want {
		u := keys.InternalKey(p.k).UserKey()
		targets = append(targets, p.k,
			keys.MakeSearchKey(nil, u, keys.MaxSeq),
			keys.MakeInternalKey(nil, u, 0, keys.KindDelete),
			keys.MakeSearchKey(nil, append(bytes.Clone(u), 0), keys.MaxSeq))
	}
	return append(targets, keys.MakeSearchKey(nil, []byte("d"), keys.MaxSeq))
}

// checkIndexMatchesOnDisk holds r's decoded index to a block.Iter walk of the
// index block the file stores: the same entries, the same first and last, and
// for every target the same SeekGE position and the same neighbours by Next
// and Prev.
func checkIndexMatchesOnDisk(t *testing.T, r *Reader, targets [][]byte) {
	t.Helper()
	var it block.Iter
	it.Init(onDiskIndex(t, r))
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		h, w := decodeBlockHandle(it.Value())
		if n >= len(r.index) || !bytes.Equal(r.indexKey(n), it.Key()) || r.index[n].h != h || w != len(it.Value()) {
			t.Fatalf("on-disk index entry %d is %s -> %+v; decoded: %d entries", n, keys.InternalKey(it.Key()), h, len(r.index))
		}
		n++
	}
	if it.Error() != nil || n != len(r.index) {
		t.Fatalf("on-disk index has %d entries (err %v), decoded %d", n, it.Error(), len(r.index))
	}
	same := func(op string, want int) {
		t.Helper()
		switch {
		case want < 0 || want >= len(r.index):
			if it.Valid() {
				t.Fatalf("%s: on-disk index at %s, decoded position %d is off the end", op, keys.InternalKey(it.Key()), want)
			}
		case !it.Valid() || !bytes.Equal(it.Key(), r.indexKey(want)):
			t.Fatalf("%s: on-disk index valid=%v, decoded entry %d is %s", op, it.Valid(), want, keys.InternalKey(r.indexKey(want)))
		}
	}
	it.SeekToFirst()
	same("SeekToFirst", 0)
	for _, target := range targets {
		i := r.seekIndex(target)
		it.SeekGE(target)
		same(fmt.Sprintf("SeekGE(%s)", keys.InternalKey(target)), i)
		if !it.Valid() {
			continue
		}
		it.Next()
		same("Next", i+1)
		if it.Error() != nil {
			t.Fatal(it.Error())
		}
	}
}

// checkIterMatches holds a table iterator over r to want, the table's entries:
// a whole walk, and from every target's SeekGE a step forward, so that steps
// cross every block edge.
func checkIterMatches(t *testing.T, r *Reader, want []pair, targets [][]byte) {
	t.Helper()
	it := r.NewIterator()
	defer it.Close()
	it.SeekToFirst()
	if err := samePairs(drain(t, it), want); err != nil {
		t.Fatalf("forward walk: %v", err)
	}
	at := func(op string, j int) {
		t.Helper()
		if err := it.Error(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if j < 0 || j >= len(want) {
			if it.Valid() {
				t.Fatalf("%s: at %s, want past the end", op, keys.InternalKey(it.Key()))
			}
			return
		}
		if !it.Valid() || !bytes.Equal(it.Key(), want[j].k) || !bytes.Equal(it.Value(), want[j].v) {
			t.Fatalf("%s: valid=%v, want entry %d %s", op, it.Valid(), j, keys.InternalKey(want[j].k))
		}
	}
	for _, target := range targets {
		j := sort.Search(len(want), func(i int) bool { return icmp.Compare(want[i].k, target) >= 0 })
		op := fmt.Sprintf("SeekGE(%s)", keys.InternalKey(target))
		it.SeekGE(target)
		at(op, j)
		if j == len(want) {
			continue
		}
		it.Next()
		at(op+".Next", j+1)
	}
}

// TestDecodedIndexMatchesOnDisk: on random tables — one block to hundreds,
// raw and compressed, opened from the file and handed over by the writer —
// the decoded index agrees with a walk of the on-disk index block, and table
// iterators and point gets built on it return the table's entries.
func TestDecodedIndexMatchesOnDisk(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := vfs.Mem()
		w, want := randomTable(t, rng, fs, "/t.sst", 1+rng.Intn(300))
		targets := seekTargets(want)
		opened := openTable(t, fs, "/t.sst", ReaderOptions{Cmp: icmp, Cache: cache.New(8 << 10), VerifyChecksums: true})
		f, err := fs.Open("/t.sst")
		if err != nil {
			t.Fatal(err)
		}
		built, err := w.OpenReader(f, defaultROpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Reader{opened, built} {
			checkIndexMatchesOnDisk(t, r, targets)
			checkIterMatches(t, r, want, targets)
			for _, p := range want {
				ik := keys.InternalKey(p.k)
				if v, _, found, err := r.Get(ik.UserKey(), ik.Seq()); err != nil || !found || !bytes.Equal(v, p.v) {
					t.Fatalf("seed %d: Get(%s) = %d bytes, %v, %v", seed, ik, len(v), found, err)
				}
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// withIndex returns the table raw (raw blocks, CRC32C) with its index block
// rebuilt at the given restart interval from its own entries, their handles
// edited first by edit if it is not nil, then framed, checksummed and named
// by the footer as the writer does it. Everything before the index is kept
// byte for byte.
func withIndex(t *testing.T, raw []byte, interval int, edit func([]blockHandle)) []byte {
	t.Helper()
	ftr, err := decodeFooter(raw[len(raw)-footerLenV2:])
	if err != nil {
		t.Fatal(err)
	}
	ih := ftr.indexHandle
	idx, err := block.NewReader(icmp.Compare, raw[ih.offset:ih.offset+ih.length])
	if err != nil {
		t.Fatal(err)
	}
	var ks [][]byte
	var hs []blockHandle
	it := idx.Iter()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		h, _ := decodeBlockHandle(it.Value())
		ks, hs = append(ks, bytes.Clone(it.Key())), append(hs, h)
	}
	if edit != nil {
		edit(hs)
	}
	bw := block.Writer{Interval: interval}
	for i := range ks {
		bw.Add(ks[i], hs[i].encode(nil))
	}
	payload := bw.Finish()
	out := append([]byte(nil), raw[:ih.offset]...)
	out = append(out, payload...)
	out = append(out, byte(compress.None))
	out = encoding.PutFixed32(out, checksum.Sum(checksum.CRC32C, payload, byte(compress.None)))
	ftr.indexHandle = blockHandle{offset: ih.offset, length: uint64(len(payload))}
	return ftr.encode(out)
}

// TestOpenRejectsBadIndex: an index that names a block outside the file, or
// that does not restart at every entry, fails OpenReader with ErrCorrupt —
// with every checksum intact, so the index decode is what catches it, not a
// later probe or scan.
func TestOpenRejectsBadIndex(t *testing.T) {
	fs := vfs.Mem()
	buildTable(t, fs, "/t.sst", defaultWOpts(), sortedKVs(300))
	raw := readAll(t, fs, "/t.sst")
	open := func(data []byte) (*Reader, error) {
		writeAll(t, fs, "/x.sst", data)
		f, err := fs.Open("/x.sst")
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(f, defaultROpts())
		if err != nil {
			_ = f.Close()
		}
		return r, err
	}

	// The rebuild itself is faithful: unedited, the table opens and reads.
	r, err := open(withIndex(t, raw, 1, nil))
	if err != nil {
		t.Fatalf("rebuilt index: %v", err)
	}
	if v, _, found, err := r.Get([]byte("key-000150"), keys.MaxSeq); err != nil || !found || string(v) != "value-000150" {
		t.Fatalf("rebuilt index: Get = %q, %v, %v", v, found, err)
	}
	_ = r.Close()

	for _, tc := range []struct {
		name     string
		interval int
		edit     func([]blockHandle)
	}{
		{"offset past the end", 1, func(hs []blockHandle) { hs[len(hs)/2].offset = uint64(len(raw)) }},
		{"length past the end", 1, func(hs []blockHandle) { hs[0].length = uint64(len(raw)) }},
		{"end past 2^64", 1, func(hs []blockHandle) { hs[1].offset, hs[1].length = 1<<63, 1<<63 }},
		{"restarts every second entry", 2, nil},
	} {
		if r, err := open(withIndex(t, raw, tc.interval, tc.edit)); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				_ = r.Close()
			}
			t.Errorf("%s: OpenReader = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestProbeAllocs: a Probe whose block is cached allocates nothing: its
// cursor is the caller's, and the index is searched where it lies.
func TestProbeAllocs(t *testing.T) {
	if !exactAllocs {
		t.Skip("allocation counts are exact only without -race and -tags invariants")
	}
	fs := vfs.Mem()
	kvs := sortedKVs(2000)
	buildTable(t, fs, "/t.sst", defaultWOpts(), kvs)
	r := openTable(t, fs, "/t.sst", ReaderOptions{Cmp: icmp, Cache: cache.New(1 << 20), VerifyChecksums: true})
	defer r.Close()
	sks := make([]keys.InternalKey, len(kvs))
	var c ProbeCursor
	for i, e := range kvs {
		sks[i] = keys.MakeSearchKey(nil, []byte(e.u), keys.MaxSeq)
		if _, _, _, found, err := r.Probe(&c, sks[i]); !found || err != nil { // warm the cache
			t.Fatalf("Probe(%s) = %v, %v", e.u, found, err)
		}
	}
	i := 0
	if got := testing.AllocsPerRun(1000, func() {
		k := i % len(kvs)
		i++
		if v, _, _, found, err := r.Probe(&c, sks[k]); !found || err != nil || string(v) != kvs[k].val {
			t.Fatalf("Probe(%s) = %q, %v, %v", kvs[k].u, v, found, err)
		}
	}); got != 0 {
		t.Errorf("%.1f allocations per cached Probe, want 0", got)
	}
}

// checkDamagedTable reads every entry of r, a table that may be damaged,
// every way a reader can — a Get of each entry, a table iterator walk, a
// compaction pass over a view, through a handle of its own — and
// requires each to return the table's entries exactly, up to an ErrCorrupt
// that ends it; a pristine table must return them all.
func checkDamagedTable(t *testing.T, fs vfs.FS, name string, r *Reader, want []pair, pristine bool) {
	t.Helper()
	ended := func(op string, n int, err error) {
		t.Helper()
		switch {
		case err != nil && (pristine || !errors.Is(err, ErrCorrupt)):
			t.Fatalf("%s: %v after %d of %d entries", op, err, n, len(want))
		case err == nil && n != len(want):
			t.Fatalf("%s: ended without an error after %d of %d entries", op, n, len(want))
		}
	}
	for _, p := range want {
		ik := keys.InternalKey(p.k)
		v, _, found, err := r.Get(ik.UserKey(), ik.Seq())
		switch {
		case err != nil:
			ended("Get "+ik.String(), 0, err)
		case !found || !bytes.Equal(v, p.v):
			t.Fatalf("Get(%s) = %d bytes, found=%v, want %d bytes", ik, len(v), found, len(p.v))
		}
	}
	it := r.NewIterator()
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if n >= len(want) || !bytes.Equal(it.Key(), want[n].k) || !bytes.Equal(it.Value(), want[n].v) {
			t.Fatalf("forward walk: entry %d is %s", n, keys.InternalKey(it.Key()))
		}
		n++
	}
	ended("forward walk", n, it.Error())
	_ = it.Close()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	seq := viewPass(r, f, nil)
	n = 0
	for seq.SeekToFirst(); seq.Valid(); seq.Next() {
		if n >= len(want) || !bytes.Equal(seq.Key(), want[n].k) || !bytes.Equal(seq.Value(), want[n].v) {
			t.Fatalf("compaction pass: entry %d is %s", n, keys.InternalKey(seq.Key()))
		}
		n++
	}
	ended("compaction pass", n, seq.Close())
}

// FuzzTableIndex: a multi-block table with one byte changed, or its tail cut
// off, opens with ErrCorrupt or reads back exactly up to an ErrCorrupt, by
// point gets, a table iterator both ways and a compaction pass; it never
// panics and never returns wrong bytes or silently fewer entries.
func FuzzTableIndex(f *testing.F) {
	f.Add(int64(1), uint32(0), uint8(0), uint32(0))
	f.Add(int64(2), uint32(700), uint8(0x01), uint32(0))
	f.Add(int64(3), uint32(0), uint8(0), uint32(30))
	f.Add(int64(4), uint32(1<<20), uint8(0xff), uint32(0))
	f.Add(int64(5), uint32(5), uint8(0x80), uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, at uint32, mask uint8, cut uint32) {
		rng := rand.New(rand.NewSource(seed))
		fs := vfs.Mem()
		_, want := randomTable(t, rng, fs, "/t.sst", 1+rng.Intn(60))
		raw := readAll(t, fs, "/t.sst")
		pristine := false
		switch {
		case mask != 0:
			raw[at%uint32(len(raw))] ^= mask
		case cut != 0:
			raw = raw[:len(raw)-1-int(cut%uint32(len(raw)))]
		default:
			pristine = true
		}
		writeAll(t, fs, "/t.sst", raw)
		in, err := fs.Open("/t.sst")
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(in, ReaderOptions{Cmp: icmp, Cache: cache.New(8 << 10), VerifyChecksums: true})
		if err != nil {
			if pristine || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenReader: %v", err)
			}
			_ = in.Close()
			return
		}
		defer r.Close()
		checkDamagedTable(t, fs, "/t.sst", r, want, pristine)
	})
}
