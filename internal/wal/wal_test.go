package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/vfs"
)

func writeLog(t testing.TB, fs vfs.FS, name string, recs ...[]byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	for _, r := range recs {
		if err := w.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
}

func readAll(t testing.TB, fs vfs.FS, name string) ([][]byte, error) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := NewReader(f)
	var out [][]byte
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func TestRoundTripSmallRecords(t *testing.T) {
	fs := vfs.Mem()
	recs := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	writeLog(t, fs, "/log", recs...)
	got, err := readAll(t, fs, "/log")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Errorf("record %d: %q != %q", i, got[i], recs[i])
		}
	}
}

func TestRecordSpanningBlocks(t *testing.T) {
	fs := vfs.Mem()
	big := bytes.Repeat([]byte("x"), 3*BlockSize+123)
	writeLog(t, fs, "/log", []byte("small"), big, []byte("tail"))
	got, err := readAll(t, fs, "/log")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(got[1], big) || string(got[2]) != "tail" {
		t.Fatalf("spanning record mangled: %d records", len(got))
	}
}

func TestRecordExactlyFillingBlock(t *testing.T) {
	fs := vfs.Mem()
	rec := bytes.Repeat([]byte("y"), BlockSize-headerLen)
	writeLog(t, fs, "/log", rec, []byte("next"))
	got, err := readAll(t, fs, "/log")
	if err != nil || len(got) != 2 || !bytes.Equal(got[0], rec) {
		t.Fatalf("block-filling record: %d records err=%v", len(got), err)
	}
}

func TestBlockTailPadding(t *testing.T) {
	fs := vfs.Mem()
	// Leave fewer than headerLen bytes in the first block.
	rec := bytes.Repeat([]byte("z"), BlockSize-headerLen-3)
	writeLog(t, fs, "/log", rec, []byte("after-pad"))
	got, err := readAll(t, fs, "/log")
	if err != nil || len(got) != 2 || string(got[1]) != "after-pad" {
		t.Fatalf("padding handling: %d records err=%v", len(got), err)
	}
}

func TestTornTailDetected(t *testing.T) {
	fs := vfs.Mem()
	writeLog(t, fs, "/log", []byte("good-1"), []byte("good-2"), bytes.Repeat([]byte("G"), 5000))
	// Truncate mid-way through the last record.
	f, _ := fs.Open("/log")
	size, _ := f.Size()
	raw := make([]byte, size-2000)
	f.ReadAt(raw, 0)
	_ = f.Close()
	out, _ := fs.Create("/log")
	out.Write(raw)
	_ = out.Close()

	got, err := readAll(t, fs, "/log")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn tail err = %v, want ErrCorrupt", err)
	}
	if len(got) != 2 || string(got[0]) != "good-1" || string(got[1]) != "good-2" {
		t.Errorf("records before tear lost: %d", len(got))
	}
}

func TestBitFlipDetected(t *testing.T) {
	fs := vfs.Mem()
	writeLog(t, fs, "/log", []byte("aaaa"), []byte("bbbb"))
	f, _ := fs.Open("/log")
	size, _ := f.Size()
	raw := make([]byte, size)
	f.ReadAt(raw, 0)
	_ = f.Close()
	raw[headerLen+1] ^= 0x01 // flip a payload bit of the first record
	out, _ := fs.Create("/log")
	out.Write(raw)
	_ = out.Close()

	_, err := readAll(t, fs, "/log")
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip err = %v, want ErrCorrupt", err)
	}
}

// TestZeroTail: a log followed by zeros up to the end of the file — a file
// that grew before its last write landed — reads back whole and ends cleanly,
// for the WAL and the MANIFEST alike. Zeros with anything after them are a
// hole, and a record whose first fragment the zeros follow was torn; both end
// in ErrCorrupt after the records before them.
func TestZeroTail(t *testing.T) {
	big := bytes.Repeat([]byte("s"), BlockSize+100) // its first fragment ends the first block
	recs := [][]byte{[]byte("a"), big, []byte("b")}
	for _, tc := range []struct {
		name string
		tail []byte
		keep int // bytes of the log kept before the tail; 0 keeps it all
		n    int // records read back
		bad  bool
	}{
		{"a few zeros", make([]byte, 100), 0, 3, false},
		{"zeros past two block edges", make([]byte, 2*BlockSize), 0, 3, false},
		{"zeros, then a byte", append(make([]byte, 100), 1), 0, 3, true},
		{"zeros, then a byte two blocks on", append(make([]byte, 2*BlockSize), 1), 0, 3, true},
		{"zeros after a first fragment", make([]byte, 2*BlockSize), BlockSize, 1, true},
	} {
		fs := vfs.Mem()
		writeLog(t, fs, "/log", recs...)
		raw := readFile(t, fs, "/log")
		if tc.keep > 0 {
			raw = raw[:tc.keep]
		}
		writeFile(t, fs, "/log", append(raw, tc.tail...))
		got, err := readAll(t, fs, "/log")
		if len(got) != tc.n || (err != nil) != tc.bad || (tc.bad && !errors.Is(err, ErrCorrupt)) {
			t.Errorf("%s: %d records, %v; want %d records, error %v", tc.name, len(got), err, tc.n, tc.bad)
			continue
		}
		for i := range got {
			if !bytes.Equal(got[i], recs[i]) {
				t.Errorf("%s: record %d differs", tc.name, i)
			}
		}
	}
}

func TestEmptyLog(t *testing.T) {
	fs := vfs.Mem()
	writeLog(t, fs, "/log")
	got, err := readAll(t, fs, "/log")
	if err != nil || len(got) != 0 {
		t.Errorf("empty log: %d records err=%v", len(got), err)
	}
}

func TestManyRecordsRoundTripQuick(t *testing.T) {
	f := func(payloads [][]byte) bool {
		fs := vfs.Mem()
		writeLog(t, fs, "/log", payloads...)
		got, err := readAll(t, fs, "/log")
		if err != nil || len(got) != len(payloads) {
			return false
		}
		for i := range payloads {
			if !bytes.Equal(got[i], payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAppendAcrossManyBlocks(t *testing.T) {
	fs := vfs.Mem()
	var recs [][]byte
	for i := 0; i < 500; i++ {
		recs = append(recs, []byte(fmt.Sprintf("record-%04d-%s", i, bytes.Repeat([]byte("p"), i%700))))
	}
	writeLog(t, fs, "/log", recs...)
	got, err := readAll(t, fs, "/log")
	if err != nil || len(got) != len(recs) {
		t.Fatalf("%d records err=%v", len(got), err)
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

func BenchmarkAddRecord1K(b *testing.B) {
	fs := vfs.Mem()
	f, _ := fs.Create("/log")
	w := NewWriter(f)
	rec := bytes.Repeat([]byte("r"), 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.AddRecord(rec)
	}
}

// countingFile counts Write calls, to observe the buffered writer coalescing.
type countingFile struct {
	vfs.File
	writes int
}

func (c *countingFile) Write(p []byte) (int, error) {
	c.writes++
	return c.File.Write(p)
}

func TestBufferedWriterCoalescesAndRoundTrips(t *testing.T) {
	fs := vfs.Mem()
	raw, err := fs.Create("/log")
	if err != nil {
		t.Fatal(err)
	}
	cf := &countingFile{File: raw}
	w := NewWriterSize(cf, 8<<10)
	var recs [][]byte
	for i := 0; i < 64; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, 100)
		recs = append(recs, rec)
		if err := w.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	// 64 records × ~107 bytes stage into an 8 KiB buffer: far fewer device
	// writes than records.
	if cf.writes >= 32 {
		t.Errorf("buffered writer issued %d writes for 64 records; want coalescing", cf.writes)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(t, fs, "/log")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestFlushWithoutSyncMakesRecordsReadable(t *testing.T) {
	fs := vfs.Mem()
	f, err := fs.Create("/log")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriterSize(f, 32<<10)
	if err := w.AddRecord([]byte("staged")); err != nil {
		t.Fatal(err)
	}
	// Before Flush the record sits in the writer's buffer only.
	if got, _ := readAll(t, fs, "/log"); len(got) != 0 {
		t.Fatalf("unflushed record already visible: %d records", len(got))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(t, fs, "/log")
	if err != nil || len(got) != 1 || string(got[0]) != "staged" {
		t.Fatalf("after Flush: records=%v err=%v", got, err)
	}
}

func TestBufferedWriterSpanningBlocks(t *testing.T) {
	fs := vfs.Mem()
	f, err := fs.Create("/log")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriterSize(f, 4<<10)
	big := bytes.Repeat([]byte{0xAB}, 3*BlockSize+123)
	if err := w.AddRecord(big); err != nil {
		t.Fatal(err)
	}
	if err := w.AddRecord([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(t, fs, "/log")
	if err != nil || len(got) != 2 {
		t.Fatalf("records=%d err=%v, want 2 records", len(got), err)
	}
	if !bytes.Equal(got[0], big) || string(got[1]) != "after" {
		t.Fatal("buffered multi-block record corrupted")
	}
}
