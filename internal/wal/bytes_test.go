package wal

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/vfs"
)

// framedRecords is an input that takes the writer through every fragment
// type and every pad length: for each block tail of 0 to 6 bytes a record that
// ends that far short of its block, then an empty record after the pad; and
// one record three blocks long.
func framedRecords() [][]byte {
	var recs [][]byte
	off := 0 // within the current block, as the writer tracks it
	add := func(n int) {
		recs = append(recs, bytes.Repeat([]byte{byte(len(recs) + 1)}, n))
		for first := true; first || n > 0; first = false {
			if BlockSize-off < headerLen {
				off = 0
			}
			frag := min(n, BlockSize-off-headerLen)
			off += headerLen + frag
			n -= frag
		}
	}
	for tail := 0; tail < headerLen; tail++ {
		add(100 + tail)
		add(BlockSize - off - headerLen - tail)
		add(0)
	}
	add(3*BlockSize + 17)
	add(5)
	return recs
}

// TestLogBytesUnchanged: the per-type CRC states are computed once and block
// tails are padded from a static array; the framing and the checksums are the
// ones written before, byte for byte, through the unbuffered writer and the
// coalescing one. The digest is of the log the previous writer produced from
// the same records.
func TestLogBytesUnchanged(t *testing.T) {
	const parent = "9b0fc37b04f29b4b21d4b9773f713ec6cc06ace45ec8938c9323fa48fb1ab63e"
	recs := framedRecords()
	for _, buffered := range []bool{false, true} {
		fs := vfs.Mem()
		f, err := fs.Create("/log")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(f)
		if buffered {
			w = NewWriterSize(f, 64<<10)
		}
		for _, r := range recs {
			if err := w.AddRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		log := make([]byte, size)
		if _, err := f.ReadAt(log, 0); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(log)); got != parent {
			t.Errorf("buffered=%v: log digest %s, want %s", buffered, got, parent)
		}
	}
}

// TestAddRecordAllocs: appending a record allocates nothing once the
// writer's buffers have grown — no type byte for the CRC, no pad.
func TestAddRecordAllocs(t *testing.T) {
	f, err := vfs.Mem().Create("/log")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriterSize(f, 64<<10)
	rec := bytes.Repeat([]byte{'r'}, 1000) // pads a block tail every few dozen records
	for i := 0; i < 5000; i++ {
		if err := w.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	perRecord := testing.AllocsPerRun(5000, func() {
		if err := w.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	})
	if perRecord > 0.01 {
		t.Errorf("%.4f allocations per record, want <= 0.01", perRecord)
	}
}
