package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compaction"
	"repro/internal/compress"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// compressibleValue returns a deterministic, highly repetitive value so that
// lz4 actually engages (the writer stores incompressible blocks
// raw, which would defeat these tests).
func compressibleValue(i int) string {
	return strings.Repeat(fmt.Sprintf("value-%04d ", i%97), 20)
}

// TestBitFlipDetected corrupts one byte of a table file over raw and over
// compressed blocks (the harder case) and requires every damaged read to
// surface sstable.ErrCorrupt — silent media corruption is the fault block
// checksums exist to catch.
func TestBitFlipDetected(t *testing.T) {
	for _, codec := range []compress.Kind{compress.None, compress.LZ4} {
		t.Run(codec.String(), func(t *testing.T) {
			mem := vfs.Mem()
			efs := vfs.NewErrFS(mem)
			opts := smallOpts(compaction.UDC)
			opts.FS = efs
			opts.Compression = codec

			db := openTestDB(t, opts)
			const n = 400
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("key-%05d", i)
				if err := db.Put([]byte(k), []byte(compressibleValue(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CompactRange(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			tables := listTables(t, mem, db.shards[0].dir)
			if len(tables) == 0 {
				t.Fatal("no table files after flush")
			}
			// Flip a bit inside the first data block of every table: offset
			// 64 is well within block zero for 512-byte blocks.
			for _, name := range tables {
				if err := efs.FlipBit(name, 64); err != nil {
					t.Fatalf("FlipBit(%s): %v", name, err)
				}
			}

			opts2 := opts
			opts2.FS = mem
			db2, err := openDB("/db", opts2, false)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			corrupt, silent := 0, 0
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("key-%05d", i)
				got, err := db2.Get([]byte(k))
				switch {
				case err == nil:
					if string(got) != compressibleValue(i) {
						silent++
					}
				case errors.Is(err, sstable.ErrCorrupt):
					corrupt++
				case errors.Is(err, ErrNotFound):
					t.Fatalf("key %s vanished instead of failing checksum", k)
				default:
					t.Fatalf("key %s: untyped error %v", k, err)
				}
			}
			if corrupt == 0 {
				t.Errorf("%v: no read detected the flipped bit", codec)
			}
			if silent != 0 {
				t.Errorf("%v: %d reads returned wrong data without error", codec, silent)
			}
		})
	}
}

func listTables(t *testing.T, fs vfs.FS, dir string) []string {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		if strings.HasSuffix(name, ".sst") {
			out = append(out, dir+"/"+name)
		}
	}
	return out
}

// TestMixedCompressionReopen reopens one store under raw, lz4 and raw again
// in sequence. Every phase must read tables written by every earlier phase —
// the codec is a per-block fact recorded on disk, not a global option — and
// compactions must merge mixed inputs into the currently configured output
// format.
func TestMixedCompressionReopen(t *testing.T) {
	fs := vfs.Mem()
	const perPhase = 300
	total := 0
	for pi, comp := range []compress.Kind{compress.None, compress.LZ4, compress.None} {
		opts := smallOpts(compaction.LDC)
		opts.FS = fs
		opts.Compression = comp
		db, err := Open("/db", opts)
		if err != nil {
			t.Fatalf("phase %d: open: %v", pi, err)
		}
		// All keys written by earlier phases stay readable.
		for i := 0; i < total; i++ {
			k := fmt.Sprintf("key-%05d", i)
			got, err := db.Get([]byte(k))
			if err != nil || string(got) != compressibleValue(i) {
				t.Fatalf("phase %d: key %s = %q, %v", pi, k, got, err)
			}
		}
		for i := total; i < total+perPhase; i++ {
			k := fmt.Sprintf("key-%05d", i)
			if err := db.Put([]byte(k), []byte(compressibleValue(i))); err != nil {
				t.Fatal(err)
			}
		}
		total += perPhase
		// Force merges so this phase's tables mix with earlier formats.
		if err := db.CompactRange(); err != nil {
			t.Fatal(err)
		}
		pairs, err := db.Scan([]byte("key-"), total+10)
		if err != nil {
			t.Fatalf("phase %d: scan: %v", pi, err)
		}
		if len(pairs) != total {
			t.Fatalf("phase %d: scan saw %d keys, want %d", pi, len(pairs), total)
		}
		s := db.Stats()
		if comp != compress.None {
			if s.CompressedBytesWritten == 0 ||
				s.CompressedBytesWritten >= s.UncompressedBytesWritten {
				t.Errorf("phase %d (%v): wrote %d on-disk for %d raw bytes; expected compression",
					pi, comp, s.CompressedBytesWritten, s.UncompressedBytesWritten)
			}
			if s.CompressionRatio <= 1.0 {
				t.Errorf("phase %d: CompressionRatio = %v, want > 1", pi, s.CompressionRatio)
			}
		}
		if s.UncompressedBytesRead < s.CompressedBytesRead {
			t.Errorf("phase %d: decoded %d < on-disk %d read bytes",
				pi, s.UncompressedBytesRead, s.CompressedBytesRead)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("phase %d: close: %v", pi, err)
		}
	}
}
