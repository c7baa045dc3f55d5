package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/keys"
	"repro/internal/vfs"
)

var icmp = keys.InternalComparer{User: keys.BytewiseComparer{}}

type kv struct {
	u   string
	seq keys.Seq
	val string
}

func buildTable(t testing.TB, fs vfs.FS, name string, wopts WriterOptions, kvs []kv) Props {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, wopts)
	for _, e := range kvs {
		ik := keys.MakeInternalKey(nil, []byte(e.u), e.seq, keys.KindSet)
		if err := w.Add(ik, []byte(e.val)); err != nil {
			t.Fatalf("Add(%q): %v", e.u, err)
		}
	}
	props, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return props
}

func openTable(t testing.TB, fs vfs.FS, name string, ropts ReaderOptions) *Reader {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f, ropts)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	return r
}

func sortedKVs(n int) []kv {
	kvs := make([]kv, n)
	for i := range kvs {
		kvs[i] = kv{u: fmt.Sprintf("key-%06d", i), seq: 1, val: fmt.Sprintf("value-%06d", i)}
	}
	return kvs
}

func defaultWOpts() WriterOptions {
	return WriterOptions{Cmp: icmp, BlockSize: 256, BloomBitsPerKey: 10}
}

func defaultROpts() ReaderOptions {
	return ReaderOptions{Cmp: icmp, VerifyChecksums: true}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := vfs.Mem()
	kvs := sortedKVs(1000)
	props := buildTable(t, fs, "/t.sst", defaultWOpts(), kvs)
	if props.Entries != 1000 {
		t.Errorf("Entries = %d", props.Entries)
	}
	if string(keys.InternalKey(props.Smallest).UserKey()) != "key-000000" ||
		string(keys.InternalKey(props.Largest).UserKey()) != "key-000999" {
		t.Errorf("bounds = %s..%s", props.Smallest, props.Largest)
	}
	if props.DataBlocks < 2 {
		t.Errorf("DataBlocks = %d, expected multiple with 256B blocks", props.DataBlocks)
	}

	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	it := r.NewIterator()
	defer it.Close()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		want := kvs[i]
		if string(keys.InternalKey(it.Key()).UserKey()) != want.u || string(it.Value()) != want.val {
			t.Fatalf("entry %d: %s=%q", i, keys.InternalKey(it.Key()), it.Value())
		}
		i++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if i != 1000 {
		t.Errorf("iterated %d entries", i)
	}
}

func TestGetFoundAndAbsent(t *testing.T) {
	fs := vfs.Mem()
	buildTable(t, fs, "/t.sst", defaultWOpts(), sortedKVs(500))
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()

	v, del, found, err := r.Get([]byte("key-000123"), keys.MaxSeq)
	if err != nil || !found || del || string(v) != "value-000123" {
		t.Errorf("Get = %q %v %v %v", v, del, found, err)
	}
	_, _, found, err = r.Get([]byte("key-9999999"), keys.MaxSeq)
	if err != nil || found {
		t.Errorf("absent key found=%v err=%v", found, err)
	}
	// Key between two present keys.
	_, _, found, _ = r.Get([]byte("key-000123x"), keys.MaxSeq)
	if found {
		t.Error("between-key reported found")
	}
}

func TestGetSnapshotAndTombstone(t *testing.T) {
	fs := vfs.Mem()
	f, _ := fs.Create("/t.sst")
	w := NewWriter(f, defaultWOpts())
	// Internal order: seq desc within a user key.
	w.Add(keys.MakeInternalKey(nil, []byte("k"), 9, keys.KindDelete), nil)
	w.Add(keys.MakeInternalKey(nil, []byte("k"), 5, keys.KindSet), []byte("v5"))
	w.Add(keys.MakeInternalKey(nil, []byte("k"), 2, keys.KindSet), []byte("v2"))
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	_, del, found, _ := r.Get([]byte("k"), keys.MaxSeq)
	if !found || !del {
		t.Errorf("latest: del=%v found=%v, want tombstone", del, found)
	}
	v, del, found, _ := r.Get([]byte("k"), 6)
	if !found || del || string(v) != "v5" {
		t.Errorf("Get@6 = %q %v %v", v, del, found)
	}
	v, _, _, _ = r.Get([]byte("k"), 3)
	if string(v) != "v2" {
		t.Errorf("Get@3 = %q", v)
	}
	_, _, found, _ = r.Get([]byte("k"), 1)
	if found {
		t.Error("Get@1 found a later write")
	}
}

func TestOutOfOrderAddRejected(t *testing.T) {
	fs := vfs.Mem()
	f, _ := fs.Create("/t.sst")
	w := NewWriter(f, defaultWOpts())
	w.Add(keys.MakeInternalKey(nil, []byte("b"), 1, keys.KindSet), nil)
	if err := w.Add(keys.MakeInternalKey(nil, []byte("a"), 1, keys.KindSet), nil); err == nil {
		t.Fatal("out-of-order Add accepted")
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("Finish succeeded after ordering error")
	}
}

func TestSeekGEAcrossBlocks(t *testing.T) {
	fs := vfs.Mem()
	kvs := sortedKVs(300)
	buildTable(t, fs, "/t.sst", defaultWOpts(), kvs)
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	it := r.NewIterator()
	defer it.Close()

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		i := rng.Intn(310)
		target := fmt.Sprintf("key-%06d", i)
		it.SeekGE(keys.MakeSearchKey(nil, []byte(target), keys.MaxSeq))
		if i < 300 {
			if !it.Valid() || string(keys.InternalKey(it.Key()).UserKey()) != target {
				t.Fatalf("SeekGE(%s) landed on %v", target, it.Valid())
			}
		} else if it.Valid() {
			t.Fatalf("SeekGE(%s) should exhaust", target)
		}
	}
}

// TestReseekAcrossBlocks: one table iterator, re-seeked back and forth across
// block edges and to the table's ends — from mid-walk and from past the end —
// yields every entry from the target on, in order, each time.
func TestReseekAcrossBlocks(t *testing.T) {
	fs := vfs.Mem()
	kvs := sortedKVs(257)
	buildTable(t, fs, "/t.sst", defaultWOpts(), kvs)
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	it := r.NewIterator()
	defer it.Close()
	walk := func(op string, from, steps int) {
		t.Helper()
		i := from
		for ; it.Valid() && (steps < 0 || i < from+steps); it.Next() {
			if i >= len(kvs) || string(keys.InternalKey(it.Key()).UserKey()) != kvs[i].u || string(it.Value()) != kvs[i].val {
				t.Fatalf("%s: entry %d is %q", op, i, keys.InternalKey(it.Key()).UserKey())
			}
			i++
		}
		if err := it.Error(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if steps < 0 && i != len(kvs) {
			t.Fatalf("%s: walk stopped at %d", op, i)
		}
	}
	it.SeekToFirst()
	walk("SeekToFirst", 0, -1)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		i := rng.Intn(len(kvs))
		it.SeekGE(keys.MakeSearchKey(nil, []byte(kvs[i].u), keys.MaxSeq))
		steps := rng.Intn(40)
		if trial%8 == 7 {
			steps = -1 // to the end, so the next seek starts from there
		}
		walk(fmt.Sprintf("SeekGE(%s)", kvs[i].u), i, steps)
	}
	it.SeekToFirst()
	walk("SeekToFirst after the trials", 0, -1)
}

func TestBloomFilterSkipsAbsentKeys(t *testing.T) {
	fs := vfs.Mem()
	buildTable(t, fs, "/t.sst", defaultWOpts(), sortedKVs(1000))
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()

	misses := 0
	for i := 0; i < 1000; i++ {
		if r.MayContain([]byte(fmt.Sprintf("absent-%06d", i))) {
			misses++
		}
	}
	if misses > 30 {
		t.Errorf("bloom passed %d/1000 absent keys", misses)
	}
	before := r.opts.Stats.BlockReads.Load()
	for i := 0; i < 100; i++ {
		r.Get([]byte(fmt.Sprintf("nothere-%06d", i)), keys.MaxSeq)
	}
	if got := r.opts.Stats.BlockReads.Load() - before; got > 10 {
		t.Errorf("%d block reads for 100 absent-key Gets; filter not consulted", got)
	}
}

func TestNoFilterTable(t *testing.T) {
	fs := vfs.Mem()
	w := defaultWOpts()
	w.BloomBitsPerKey = 0
	buildTable(t, fs, "/t.sst", w, sortedKVs(10))
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	if !r.MayContain([]byte("anything")) {
		t.Error("filterless table must report MayContain true")
	}
	v, _, found, err := r.Get([]byte("key-000003"), keys.MaxSeq)
	if err != nil || !found || string(v) != "value-000003" {
		t.Errorf("Get = %q %v %v", v, found, err)
	}
}

func TestBlockCacheReducesReads(t *testing.T) {
	fs := vfs.Mem()
	buildTable(t, fs, "/t.sst", defaultWOpts(), sortedKVs(500))
	c := cache.New(1 << 20)
	ropts := defaultROpts()
	ropts.Cache = c
	ropts.FileNum = 42
	r := openTable(t, fs, "/t.sst", ropts)
	defer r.Close()

	for pass := 0; pass < 2; pass++ {
		it := r.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
		}
		it.Close()
	}
	firstPass := r.opts.Stats.BlockReads.Load()
	if firstPass == 0 {
		t.Fatal("no block reads at all")
	}
	// Second pass should have been fully cached.
	if hits, _ := c.Stats(); hits == 0 {
		t.Error("no cache hits on second pass")
	}
	it := r.NewIterator()
	it.SeekToFirst()
	it.Close()
	if r.opts.Stats.BlockReads.Load() != firstPass {
		t.Errorf("cached re-read still fetched blocks: %d -> %d", firstPass, r.opts.Stats.BlockReads.Load())
	}
}

// ioBytes reports the on-disk and decoded bytes r has counted into its sink.
func ioBytes(r *Reader) (compressed, uncompressed int64) {
	return r.opts.Stats.CompressedBytesRead.Load(), r.opts.Stats.UncompressedBytesRead.Load()
}

// TestReadStatsSinkOutlivesReaders: readers that share a sink add to it, and
// what they counted stays there after they are closed.
func TestReadStatsSinkOutlivesReaders(t *testing.T) {
	fs := vfs.Mem()
	buildTable(t, fs, "/t.sst", defaultWOpts(), sortedKVs(500))
	var sink ReadStats
	ropts := defaultROpts()
	ropts.Stats = &sink
	for i := 0; i < 2; i++ {
		r := openTable(t, fs, "/t.sst", ropts)
		if _, _, found, err := r.Get([]byte("key-000100"), keys.MaxSeq); err != nil || !found {
			t.Fatalf("reader %d: Get found=%v err=%v", i, found, err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sink.BlockReads.Load(); got != 2 {
		t.Errorf("two readers, one block each: sink counts %d block reads, want 2", got)
	}
	if c, u := sink.CompressedBytesRead.Load(), sink.UncompressedBytesRead.Load(); c == 0 || u < c {
		t.Errorf("sink bytes: on-disk %d, decoded %d", c, u)
	}
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	if r.opts.Stats == nil || r.opts.Stats == &sink {
		t.Error("a reader opened without a sink must count into a private one")
	}
}

func TestChecksumCorruptionDetected(t *testing.T) {
	fs := vfs.Mem()
	buildTable(t, fs, "/t.sst", defaultWOpts(), sortedKVs(100))

	// Flip a byte in the middle of the file.
	f, _ := fs.Open("/t.sst")
	size, _ := f.Size()
	raw := make([]byte, size)
	f.ReadAt(raw, 0)
	_ = f.Close()
	raw[size/3] ^= 0xff
	out, _ := fs.Create("/t.sst")
	out.Write(raw)
	_ = out.Close()

	f2, _ := fs.Open("/t.sst")
	r, err := OpenReader(f2, defaultROpts())
	if err != nil {
		return // corruption hit the index/filter: detected at open
	}
	it := r.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
	}
	if it.Error() == nil {
		t.Error("corruption not detected during scan")
	}
	it.Close()
	_ = r.Close()
}

func TestOpenRejectsTruncatedFile(t *testing.T) {
	fs := vfs.Mem()
	f, _ := fs.Create("/t.sst")
	f.Write([]byte("not a table"))
	_ = f.Close()
	rf, _ := fs.Open("/t.sst")
	if _, err := OpenReader(rf, defaultROpts()); err == nil {
		t.Error("short file accepted")
	}
}

func TestEmptyTable(t *testing.T) {
	fs := vfs.Mem()
	props := buildTable(t, fs, "/t.sst", defaultWOpts(), nil)
	if props.Entries != 0 {
		t.Errorf("Entries = %d", props.Entries)
	}
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	it := r.NewIterator()
	it.SeekToFirst()
	if it.Valid() {
		t.Error("empty table iterator valid")
	}
	it.Close()
}

func TestLargeValues(t *testing.T) {
	fs := vfs.Mem()
	big := bytes.Repeat([]byte{0xab}, 64<<10)
	f, _ := fs.Create("/t.sst")
	w := NewWriter(f, defaultWOpts())
	w.Add(keys.MakeInternalKey(nil, []byte("big"), 1, keys.KindSet), big)
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	v, _, found, err := r.Get([]byte("big"), keys.MaxSeq)
	if err != nil || !found || !bytes.Equal(v, big) {
		t.Errorf("large value corrupted: len=%d found=%v err=%v", len(v), found, err)
	}
}

// Round-trip with randomized data against a sorted reference.
func TestRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ref := map[string]string{}
	for i := 0; i < 2000; i++ {
		ref[fmt.Sprintf("k%08d", rng.Intn(1<<30))] = fmt.Sprintf("v%d", i)
	}
	var sorted []string
	for k := range ref {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	kvs := make([]kv, len(sorted))
	for i, k := range sorted {
		kvs[i] = kv{u: k, seq: 1, val: ref[k]}
	}
	fs := vfs.Mem()
	buildTable(t, fs, "/t.sst", defaultWOpts(), kvs)
	r := openTable(t, fs, "/t.sst", defaultROpts())
	defer r.Close()
	for k, v := range ref {
		got, _, found, err := r.Get([]byte(k), keys.MaxSeq)
		if err != nil || !found || string(got) != v {
			t.Fatalf("Get(%q) = %q %v %v", k, got, found, err)
		}
	}
}

func BenchmarkTableWrite(b *testing.B) {
	fs := vfs.Mem()
	val := bytes.Repeat([]byte{'v'}, 1024)
	b.ResetTimer()
	f, _ := fs.Create("/bench.sst")
	w := NewWriter(f, WriterOptions{Cmp: icmp, BloomBitsPerKey: 10})
	for i := 0; i < b.N; i++ {
		w.Add(keys.MakeInternalKey(nil, []byte(fmt.Sprintf("key-%012d", i)), keys.Seq(i+1), keys.KindSet), val)
	}
	_, _ = w.Finish()
	_ = f.Close()
}

func BenchmarkTableGet(b *testing.B) {
	fs := vfs.Mem()
	kvs := sortedKVs(10000)
	buildTable(b, fs, "/bench.sst", WriterOptions{Cmp: icmp, BloomBitsPerKey: 10}, kvs)
	c := cache.New(32 << 20)
	r := openTable(b, fs, "/bench.sst", ReaderOptions{Cmp: icmp, Cache: c, VerifyChecksums: true})
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Get([]byte(fmt.Sprintf("key-%06d", i%10000)), keys.MaxSeq)
	}
}
