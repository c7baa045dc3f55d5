package sstable

import (
	"errors"
	"testing"

	"repro/internal/compress"
	"repro/internal/keys"
	"repro/internal/vfs"
)

// FuzzBlockRoundTrip builds a one-entry table from arbitrary value bytes
// under a fuzzer-chosen codec (raw or lz4), optionally
// flips one byte or truncates the file, and requires the read path to
// either return the exact value or fail with ErrCorrupt — never panic,
// never read out of bounds, never succeed with wrong data.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte("hello world"), uint8(0), -1)
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint8(1), 100)
	f.Add([]byte{}, uint8(1), 0)
	f.Add([]byte("abcabcabcabcabcabcabcabc"), uint8(1), 48)
	f.Fuzz(func(t *testing.T, value []byte, comp uint8, corrupt int) {
		wopts := defaultWOpts()
		wopts.Compression = []compress.Kind{compress.None, compress.LZ4}[comp%2]

		fs := vfs.Mem()
		out, err := fs.Create("/f.sst")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(out, wopts)
		ik := keys.MakeInternalKey(nil, []byte("key"), 1, keys.KindSet)
		if err := w.Add(ik, value); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}

		raw := readAll(t, fs, "/f.sst")
		switch {
		case corrupt >= 0 && len(raw) > 0:
			// Flip one byte somewhere in the file.
			pos := corrupt % len(raw)
			raw = append([]byte(nil), raw...)
			raw[pos] ^= 0x01
			writeAll(t, fs, "/f.sst", raw)
		case corrupt < -1:
			// Truncate the tail (always structurally invalid: the footer is
			// the last thing written).
			cut := (-corrupt) % (len(raw) + 1)
			writeAll(t, fs, "/f.sst", raw[:len(raw)-cut])
		}

		in, err := fs.Open("/f.sst")
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(in, defaultROpts())
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open: untyped error %v", err)
			}
			_ = in.Close()
			return
		}
		got, deleted, found, err := r.Get([]byte("key"), keys.MaxSeq)
		switch {
		case err != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("get: untyped error %v", err)
			}
		case found && !deleted:
			if string(got) != string(value) {
				t.Fatalf("silent corruption: got %d bytes, want %d", len(got), len(value))
			}
		case corrupt == -1:
			// Pristine file must find the key.
			t.Fatalf("pristine table lost the key (deleted=%v found=%v)", deleted, found)
		}
		_ = r.Close()
	})
}
