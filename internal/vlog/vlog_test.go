package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/vfs"
)

func TestPointerRoundTrip(t *testing.T) {
	p := Pointer{Segment: 7, Offset: 1 << 40, Length: 12345}
	enc := p.Encode(nil)
	if len(enc) != PointerLen {
		t.Fatalf("encoded length = %d, want %d", len(enc), PointerLen)
	}
	got, ok := DecodePointer(enc)
	if !ok || got != p {
		t.Fatalf("DecodePointer = %+v, %v; want %+v", got, ok, p)
	}
	if _, ok := DecodePointer(enc[:PointerLen-1]); ok {
		t.Fatal("DecodePointer accepted a short encoding")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, tc := range []struct{ key, val string }{
		{"k", "v"},
		{"", ""},
		{"key", string(bytes.Repeat([]byte{0xAB}, 4096))},
	} {
		rec := AppendRecord(nil, []byte(tc.key), []byte(tc.val))
		key, val, n, err := DecodeRecord(rec)
		if err != nil {
			t.Fatalf("DecodeRecord(%q/%d): %v", tc.key, len(tc.val), err)
		}
		if n != len(rec) || string(key) != tc.key || string(val) != tc.val {
			t.Fatalf("round trip mismatch for %q", tc.key)
		}
	}
}

func TestWriterAppendReadBack(t *testing.T) {
	fs := vfs.Mem()
	l, err := Open(fs, "vl", Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := l.NewWriter(0)
	var ptrs []Pointer
	for i := 0; i < 100; i++ {
		p, err := w.Append([]byte(fmt.Sprintf("key-%03d", i)), bytes.Repeat([]byte{byte(i)}, 100+i))
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	r := l.GetReader()
	defer r.Release()
	for i, p := range ptrs {
		key, val, err := r.Read(p)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(key) != fmt.Sprintf("key-%03d", i) || len(val) != 100+i || val[0] != byte(i) {
			t.Fatalf("read %d: wrong record %q/%d", i, key, len(val))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

func TestWriterRotatesSegments(t *testing.T) {
	fs := vfs.Mem()
	l, err := Open(fs, "vl", Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	w := l.NewWriter(3)
	val := bytes.Repeat([]byte{7}, 200)
	var ptrs []Pointer
	for i := 0; i < 5; i++ {
		p, err := w.Append([]byte("k"), val)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if ptrs[0].Segment == ptrs[4].Segment {
		t.Fatal("expected rotation across appends")
	}
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("Segments = %d, want >= 2", st.Segments)
	}
	// All pointers still resolve across segments.
	r := l.GetReader()
	defer r.Release()
	for i, p := range ptrs {
		if _, v, err := r.Read(p); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("read %d after rotation: %v", i, err)
		}
	}
	// Names parse back to the owning shard.
	names, _ := fs.List("vl")
	for _, name := range names {
		shard, _, ok := ParseSegmentFileName(name)
		if !ok || shard != 3 {
			t.Fatalf("bad segment name %q", name)
		}
	}
}

func TestReopenSealsAndTruncatesTorn(t *testing.T) {
	efs := vfs.NewErrFS(vfs.Mem())
	l, err := Open(efs, "vl", Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := l.NewWriter(0)
	var ptrs []Pointer
	for i := 0; i < 10; i++ {
		p, err := w.Append([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{byte(i)}, 64))
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear half of the final record off the tail, emulating a crash
	// mid-append.
	name := "vl/" + SegmentFileName(0, ptrs[0].Segment)
	last := ptrs[len(ptrs)-1]
	if err := efs.TearFile(name, int(last.Length/2)); err != nil {
		t.Fatal(err)
	}

	// Reopen: the valid extent covers every complete record and the torn
	// one is logically truncated.
	l2, err := Open(efs, "vl", Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ptrs[:len(ptrs)-1] {
		if !l2.Valid(p) {
			t.Fatalf("pointer %d invalid after torn-tail reopen", i)
		}
	}
	if l2.Valid(last) {
		t.Fatal("pointer into the torn record accepted")
	}
	r := l2.GetReader()
	if _, v, err := r.Read(ptrs[0]); err != nil || len(v) != 64 {
		t.Fatalf("read after torn-tail reopen: %v", err)
	}
	r.Release()
	// New writers never append to the recovered segment.
	w2 := l2.NewWriter(0)
	p, err := w2.Append([]byte("new"), []byte("value"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Segment == ptrs[0].Segment {
		t.Fatal("writer appended to a sealed segment")
	}
	_ = w2.Close()
	_ = l2.Close()
}

func TestDeleteSegmentAndSegmentGone(t *testing.T) {
	fs := vfs.Mem()
	l, err := Open(fs, "vl", Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := l.NewWriter(0)
	p, err := w.Append([]byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.DeleteSegment(p.Segment); err != nil {
		t.Fatal(err)
	}
	r := l.GetReader()
	defer r.Release()
	if _, _, err := r.Read(p); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("read deleted segment = %v, want ErrSegmentGone", err)
	}
	if names, _ := fs.List("vl"); len(names) != 0 {
		t.Fatalf("segment file survived deletion: %v", names)
	}
}

func TestDeadAccountingAndCandidates(t *testing.T) {
	fs := vfs.Mem()
	l, err := Open(fs, "vl", Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := l.NewWriter(0)
	var ptrs []Pointer
	for i := 0; i < 4; i++ {
		p, err := w.Append([]byte("k"), bytes.Repeat([]byte{1}, 100))
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	// Active segments are never candidates, whatever their dead ratio.
	l.MarkDead(ptrs[0].Segment, int64(ptrs[0].Length)*3)
	if got := l.Candidates(0.5); len(got) != 0 {
		t.Fatalf("active segment offered for GC: %v", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.Candidates(0.5); len(got) != 1 || got[0] != ptrs[0].Segment {
		t.Fatalf("Candidates = %v, want [%d]", got, ptrs[0].Segment)
	}
	if got := l.Candidates(0.99); len(got) != 0 {
		t.Fatalf("Candidates above ratio = %v, want none", got)
	}
	st := l.Stats()
	if st.DeadBytes == 0 || st.TotalBytes == 0 {
		t.Fatalf("dead accounting missing: %+v", st)
	}
}

func TestSegmentScan(t *testing.T) {
	fs := vfs.Mem()
	l, err := Open(fs, "vl", Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := l.NewWriter(1)
	var want []Pointer
	for i := 0; i < 8; i++ {
		p, err := w.Append([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{byte(i)}, 50))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := l.OpenSegment(want[0].Segment)
	if err != nil {
		t.Fatal(err)
	}
	var got []Pointer
	err = s.Scan(func(ptr Pointer, key, value []byte) error {
		if string(key) != fmt.Sprintf("k%d", len(got)) {
			return fmt.Errorf("wrong key %q at %d", key, len(got))
		}
		got = append(got, ptr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: scan pointer %v != append pointer %v", i, got[i], want[i])
		}
	}
}

// TestEveryByteFlip corrupts each byte of a small segment in turn and
// requires the scan to stop cleanly: every record the scanner still
// accepts must be byte-identical to an original record (CRC32C detects
// all single-bit and single-byte corruptions at these lengths), and the
// decoder must never panic.
func TestEveryByteFlip(t *testing.T) {
	var seg []byte
	type rec struct{ key, val string }
	recs := []rec{{"alpha", "one"}, {"beta", "twotwo"}, {"gamma", "threethree"}}
	for _, r := range recs {
		seg = AppendRecord(seg, []byte(r.key), []byte(r.val))
	}
	for i := range seg {
		corrupted := append([]byte(nil), seg...)
		corrupted[i] ^= 0xFF
		var off, idx int
		for off < len(corrupted) {
			key, val, n, err := DecodeRecord(corrupted[off:])
			if err != nil {
				break
			}
			if idx >= len(recs) || string(key) != recs[idx].key || string(val) != recs[idx].val {
				t.Fatalf("flip at %d: decoder accepted a corrupted record %d (%q)", i, idx, key)
			}
			off += n
			idx++
		}
		if idx == len(recs) && off == len(corrupted) {
			t.Fatalf("flip at %d went undetected", i)
		}
	}
}
