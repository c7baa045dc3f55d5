package wal

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/vfs"
)

// fuzzRecords makes one record per two size bytes, of their big-endian value
// in bytes — empty through a record that spans three blocks — each filled
// with bytes of its own.
func fuzzRecords(sizes []byte) [][]byte {
	recs := make([][]byte, min(len(sizes)/2, 32))
	for i := range recs {
		recs[i] = make([]byte, int(sizes[2*i])<<8|int(sizes[2*i+1]))
		for j := range recs[i] {
			recs[i][j] = byte(i*31 + j)
		}
	}
	return recs
}

// FuzzWALReader: a log with one byte changed, or its tail cut off, reads back
// as a prefix of the records written, each exact. A cut log ends at io.EOF or
// at an error wrapping ErrCorrupt; a changed one reads back whole (the change
// hit a block's padding) or ends at the error. The reader never panics, never
// returns a record that was not written and never skips one to return a later
// one; the intact log reads back whole.
func FuzzWALReader(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3}, uint32(0), uint8(0), uint32(0))
	f.Add([]byte{0, 0, 0, 0, 1, 5}, uint32(13), uint8(0x01), uint32(0))
	f.Add([]byte{0x80, 0, 0, 0, 0xff, 1}, uint32(BlockSize+3), uint8(0x80), uint32(0))
	f.Add([]byte{0x50, 0, 0, 7, 0, 7}, uint32(0), uint8(0), uint32(9000))
	// An empty record, one that ends within a header's length of its block's
	// end, and one in the next block; the change makes the empty record's
	// header all zeros.
	f.Add([]byte{0, 0, 0x7f, 0xee, 0, 9}, uint32(6), uint8(0x01), uint32(0))
	f.Fuzz(func(t *testing.T, sizes []byte, at uint32, mask uint8, cut uint32) {
		recs := fuzzRecords(sizes)
		fs := vfs.Mem()
		writeLog(t, fs, "/log", recs...)
		raw := readFile(t, fs, "/log")
		intact, changed := true, false
		switch {
		case len(raw) == 0:
		case mask != 0:
			raw[at%uint32(len(raw))] ^= mask
			intact, changed = false, true
		case cut != 0:
			raw = raw[:len(raw)-1-int(cut%uint32(len(raw)))]
			intact = false
		}
		writeFile(t, fs, "/log", raw)

		got, err := readAll(t, fs, "/log")
		if len(got) > len(recs) {
			t.Fatalf("%d records read back, %d written", len(got), len(recs))
		}
		for i := range got {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("record %d: %d bytes read back, not the %d-byte record written there", i, len(got[i]), len(recs[i]))
			}
		}
		switch {
		case err != nil && (intact || !errors.Is(err, ErrCorrupt)):
			t.Fatalf("after %d of %d records: %v", len(got), len(recs), err)
		case (intact || changed) && err == nil && len(got) != len(recs):
			t.Fatalf("read back %d of %d records and no error (intact %v)", len(got), len(recs), intact)
		}
	})
}

func readFile(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && size > 0 {
		t.Fatal(err)
	}
	return buf
}

func writeFile(t *testing.T, fs vfs.FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
