package memtable

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/encoding"
	"repro/internal/keys"
)

var icmp = keys.InternalComparer{User: keys.BytewiseComparer{}}

func TestGetLatestVersion(t *testing.T) {
	m := New(icmp)
	m.Add(1, keys.KindSet, []byte("k"), []byte("v1"))
	m.Add(2, keys.KindSet, []byte("k"), []byte("v2"))
	m.Add(3, keys.KindSet, []byte("k"), []byte("v3"))

	v, del, found := m.Get([]byte("k"), keys.MaxSeq)
	if !found || del || string(v) != "v3" {
		t.Errorf("Get latest = %q del=%v found=%v", v, del, found)
	}
}

func TestGetSnapshotIsolation(t *testing.T) {
	m := New(icmp)
	m.Add(1, keys.KindSet, []byte("k"), []byte("v1"))
	m.Add(5, keys.KindSet, []byte("k"), []byte("v5"))

	v, _, found := m.Get([]byte("k"), 3)
	if !found || string(v) != "v1" {
		t.Errorf("Get@3 = %q found=%v, want v1", v, found)
	}
	_, _, found = m.Get([]byte("k"), 0)
	if found {
		t.Error("Get@0 found a version written at seq 1")
	}
}

func TestGetTombstone(t *testing.T) {
	m := New(icmp)
	m.Add(1, keys.KindSet, []byte("k"), []byte("v"))
	m.Add(2, keys.KindDelete, []byte("k"), nil)

	_, del, found := m.Get([]byte("k"), keys.MaxSeq)
	if !found || !del {
		t.Errorf("tombstone not observed: del=%v found=%v", del, found)
	}
	// Older snapshot still sees the value.
	v, del, found := m.Get([]byte("k"), 1)
	if !found || del || string(v) != "v" {
		t.Errorf("Get@1 = %q del=%v found=%v", v, del, found)
	}
}

func TestGetAbsent(t *testing.T) {
	m := New(icmp)
	m.Add(1, keys.KindSet, []byte("aa"), []byte("v"))
	if _, _, found := m.Get([]byte("ab"), keys.MaxSeq); found {
		t.Error("found absent key")
	}
	if _, _, found := m.Get([]byte("a"), keys.MaxSeq); found {
		t.Error("found prefix of stored key")
	}
}

func TestEmptyValueAndDeleteValueDropped(t *testing.T) {
	m := New(icmp)
	m.Add(1, keys.KindSet, []byte("k"), nil)
	v, del, found := m.Get([]byte("k"), keys.MaxSeq)
	if !found || del || len(v) != 0 {
		t.Errorf("empty value: %q del=%v found=%v", v, del, found)
	}
	m.Add(2, keys.KindDelete, []byte("k"), []byte("ignored"))
	_, del, _ = m.Get([]byte("k"), keys.MaxSeq)
	if !del {
		t.Error("delete with payload not treated as tombstone")
	}
}

func TestIteratorOrderAndValues(t *testing.T) {
	m := New(icmp)
	m.Add(2, keys.KindSet, []byte("b"), []byte("vb"))
	m.Add(1, keys.KindSet, []byte("a"), []byte("va"))
	m.Add(3, keys.KindSet, []byte("c"), []byte("vc"))

	it := m.NewIterator()
	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, string(keys.InternalKey(it.Key()).UserKey())+"="+string(it.Value()))
	}
	want := "[a=va b=vb c=vc]"
	if fmt.Sprint(got) != want {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestIteratorSeekGE(t *testing.T) {
	m := New(icmp)
	for i := 0; i < 10; i++ {
		m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("k%02d", i*2)), []byte("v"))
	}
	it := m.NewIterator()
	it.SeekGE(keys.MakeSearchKey(nil, []byte("k05"), keys.MaxSeq))
	if !it.Valid() || string(keys.InternalKey(it.Key()).UserKey()) != "k06" {
		t.Errorf("SeekGE landed on %q", it.Key())
	}
}

func TestApproximateBytesGrows(t *testing.T) {
	m := New(icmp)
	if m.ApproximateBytes() != 0 {
		t.Error("fresh table has nonzero bytes")
	}
	m.Add(1, keys.KindSet, []byte("key"), []byte("value"))
	if m.ApproximateBytes() < int64(len("key")+len("value")) {
		t.Errorf("ApproximateBytes = %d too small", m.ApproximateBytes())
	}
	if m.Len() != 1 || m.Empty() {
		t.Error("Len/Empty wrong")
	}
}

// Property: every inserted (key, seq) is retrievable at exactly its own
// snapshot with its own value.
func TestQuickRoundTrip(t *testing.T) {
	type op struct {
		Key byte
		Val []byte
	}
	f := func(ops []op) bool {
		m := New(icmp)
		type ver struct {
			seq keys.Seq
			val []byte
		}
		latest := map[byte]ver{}
		for i, o := range ops {
			seq := keys.Seq(i + 1)
			m.Add(seq, keys.KindSet, []byte{o.Key}, o.Val)
			latest[o.Key] = ver{seq, o.Val}
		}
		for k, v := range latest {
			got, del, found := m.Get([]byte{k}, keys.MaxSeq)
			if !found || del || !bytes.Equal(got, v.val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// recordLen is the packed size of an entry, which is what Add carves and what
// ApproximateBytes counts.
func recordLen(ukey, value int) int {
	ikey := ukey + keys.TrailerLen
	return encoding.UvarintLen(uint64(ikey)) + ikey + encoding.UvarintLen(uint64(value)) + value
}

// TestAddAllocsAmortised: records come from 64 KiB chunks and skiplist nodes
// from slabs, so filling a memtable costs a chunk per 64 KiB of records plus a
// slab per 128 entries — a few hundredths of an allocation per Add, for
// 1 KiB values as for 64 B ones.
func TestAddAllocsAmortised(t *testing.T) {
	const n = 10000
	ukeys := make([][]byte, n)
	for i := range ukeys {
		ukeys[i] = []byte(fmt.Sprintf("user-key-%07d", i*7919%n))
	}
	for _, size := range []int{1 << 10, 64} {
		value := bytes.Repeat([]byte{'v'}, size)
		perAdd := testing.AllocsPerRun(3, func() {
			m := New(icmp)
			for i, k := range ukeys {
				m.Add(keys.Seq(i+1), keys.KindSet, k, value)
			}
		}) / n
		if perAdd > 0.1 {
			t.Errorf("%d B values: %.4f allocations per Add, want <= 0.1", size, perAdd)
		}
	}
}

// TestRecordChunkEdges: a record of exactly a quarter chunk is the largest
// the chunk takes; one byte more, or more than a whole chunk, gets an
// allocation of its own and leaves the chunk where it was. Each reads back
// whole, small records keep packing into the chunk around them, and
// ApproximateBytes counts record bytes only — no chunk slack — so a memtable
// rotates where it did before chunks.
func TestRecordChunkEdges(t *testing.T) {
	m := New(icmp)
	ukey := []byte("k")
	// The value whose record is exactly a quarter chunk.
	quarter := chunkSize / 4
	for recordLen(len(ukey), quarter) > chunkSize/4 {
		quarter--
	}
	if recordLen(len(ukey), quarter) != chunkSize/4 {
		t.Fatalf("test sizing: record of %d, want %d", recordLen(len(ukey), quarter), chunkSize/4)
	}
	var want int64
	seq := keys.Seq(0)
	base := func() *byte {
		if cap(m.chunk) == 0 {
			return nil
		}
		return &m.chunk[:1][0]
	}
	// add reports how much of the current chunk the record took, or -1 when
	// it started a chunk after the first.
	add := func(valueLen int) (carved int) {
		seq++
		value := bytes.Repeat([]byte{byte('a' + seq)}, valueLen)
		before, chunk := len(m.chunk), base()
		m.Add(seq, keys.KindSet, ukey, value)
		want += int64(recordLen(len(ukey), valueLen))
		got, _, found := m.Get(ukey, seq)
		if !found || !bytes.Equal(got, value) {
			t.Fatalf("record with a %d B value does not read back", valueLen)
		}
		if chunk != nil && base() != chunk {
			return -1
		}
		return len(m.chunk) - before
	}
	if n := add(10); n != recordLen(1, 10) {
		t.Fatalf("small record carved %d bytes of chunk, want %d", n, recordLen(1, 10))
	}
	if n := add(quarter); n != chunkSize/4 {
		t.Fatalf("quarter-chunk record carved %d bytes of chunk, want %d", n, chunkSize/4)
	}
	if n := add(quarter + 1); n != 0 {
		t.Fatalf("record one byte over a quarter chunk carved %d bytes of chunk, want its own allocation", n)
	}
	if n := add(2 * chunkSize); n != 0 {
		t.Fatalf("record larger than a chunk carved %d bytes of chunk, want its own allocation", n)
	}
	if n := add(10); n != recordLen(1, 10) {
		t.Fatalf("small record after the large ones carved %d bytes of chunk, want %d", n, recordLen(1, 10))
	}
	// Fill the chunk to the brim: the record that no longer fits starts the
	// next chunk, and those before it stay readable.
	for len(m.chunk)+chunkSize/4 <= chunkSize {
		add(quarter)
	}
	if n := add(quarter); n != -1 || len(m.chunk) != chunkSize/4 {
		t.Fatalf("record that does not fit the chunk's tail: carved %d, chunk now %d bytes", n, len(m.chunk))
	}
	for s := keys.Seq(1); s <= seq; s++ {
		if got, _, found := m.Get(ukey, s); !found || len(got) == 0 || got[0] != byte('a'+s) {
			t.Fatalf("record %d is damaged after later chunks", s)
		}
	}
	if m.ApproximateBytes() != want {
		t.Fatalf("ApproximateBytes = %d, want the %d record bytes", m.ApproximateBytes(), want)
	}
}

// BenchmarkMemtableIterate walks a full memtable of 10 000 entries with
// 100 B values from its first entry to its end, as a flush does; an op is
// one walk.
func BenchmarkMemtableIterate(b *testing.B) {
	const n = 10000
	m := New(icmp)
	value := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < n; i++ {
		m.Add(keys.Seq(i+1), keys.KindSet, []byte(fmt.Sprintf("key-%08d", i*7919%n)), value)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := m.NewIterator()
		entries := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			entries++
		}
		if entries != n {
			b.Fatalf("walked %d entries, want %d", entries, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
}

// BenchmarkMemtableSeek positions a memtable iterator of 10 000 entries at a
// key and reads the entry there, as a scan's first step does; an op is one
// seek. An iterator kept by value and rebound for every seek, as a store
// iterator keeps its memtables', allocates nothing.
func BenchmarkMemtableSeek(b *testing.B) {
	const n = 10000
	m := New(icmp)
	value := bytes.Repeat([]byte("v"), 100)
	targets := make([][]byte, n)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%08d", i*7919%n))
		m.Add(keys.Seq(i+1), keys.KindSet, k, value)
		targets[i] = keys.MakeSearchKey(nil, k, keys.MaxSeq)
	}
	var it Iter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Init(m)
		it.SeekGE(targets[i%n])
		if !it.Valid() || len(it.Value()) != len(value) {
			b.Fatalf("seek %d landed on nothing", i)
		}
	}
}
