package sstable

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"repro/internal/keys"
	"repro/internal/vfs"
)

// versionedKVs is n entries over user keys of which every fourth has two
// versions, newest first, with ~100 B values: the input of the byte-identity
// and allocation tests.
func versionedKVs(n int) []kv {
	kvs := make([]kv, 0, n)
	for i := 0; len(kvs) < n; i++ {
		u := fmt.Sprintf("user-key-%07d", i)
		if i%4 == 0 {
			kvs = append(kvs, kv{u: u, seq: 9, val: fmt.Sprintf("newer-%094d", i)})
		}
		kvs = append(kvs, kv{u: u, seq: 5, val: fmt.Sprintf("value-%094d", i)})
	}
	return kvs[:n]
}

// TestTableBytesUnchanged: the writer keeps a hash per entry, not a copy of
// its user key, and its block trailer lives in the Writer; the file it writes
// is the file it wrote before, byte for byte — filter block included. The
// digests are of the tables the previous writer built from the same input.
func TestTableBytesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wopts  WriterOptions
		digest string
	}{
		{"256B-blocks", defaultWOpts(), "b8c616d20a1bb2af70267bff2fd97881182228fc3e747e21d22f609793e3aa19"},
		{"4KiB-blocks-16bit-filter", WriterOptions{Cmp: icmp, BloomBitsPerKey: 16}, "f879fa729021a68e2148e29b432f1a49dbe4f9fa1d054a03ed3df65e449d3f44"},
	} {
		fs := vfs.Mem()
		buildTable(t, fs, "t.sst", tc.wopts, versionedKVs(5000))
		if got := fmt.Sprintf("%x", sha256.Sum256(readAll(t, fs, "t.sst"))); got != tc.digest {
			t.Errorf("%s: table digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}

// TestWriterAddAllocs: adding an entry allocates nothing of its own — the
// filter keeps four bytes of hash, not a copy of the key — and neither does
// cutting a block (the trailer is the Writer's, the index entry's handle is
// encoded on the stack), so what is left is the buffers' amortised growth:
// 0.02 per entry at four 1 KiB entries to a 4 KiB block, where a key copy per
// entry and a handle per block made it 1.5.
func TestWriterAddAllocs(t *testing.T) {
	if !exactAllocs {
		t.Skip("allocation counts are exact only without -race and -tags invariants")
	}
	const n = 4000
	ikeys := make([]keys.InternalKey, n)
	for i := range ikeys {
		ikeys[i] = keys.MakeInternalKey(nil, []byte(fmt.Sprintf("user-key-%07d", i)), 1, keys.KindSet)
	}
	value := bytes.Repeat([]byte{'v'}, 1<<10)
	fs := vfs.Mem()
	perEntry := testing.AllocsPerRun(3, func() {
		f, err := fs.Create("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(f, WriterOptions{Cmp: icmp, BloomBitsPerKey: 10})
		for _, ik := range ikeys {
			if err := w.Add(ik, value); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("%.3f allocations per entry", perEntry)
	if perEntry > 0.1 {
		t.Errorf("%.3f allocations per entry written, want <= 0.1", perEntry)
	}

	// A second table takes the buffers the first one grew from the pool, so
	// what it allocates does not grow with it: the Writer, its smallest and
	// largest keys, the filter, and the copy of the index block that a
	// writer-built Reader pins. A table ten times larger allocates the same.
	perTable := func(entries int) float64 {
		return testing.AllocsPerRun(20, func() {
			w := NewWriter(discardFile{}, WriterOptions{Cmp: icmp, BloomBitsPerKey: 10})
			for _, ik := range ikeys[:entries] {
				if err := w.Add(ik, value); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.Finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := perTable(n/10), perTable(n)
	t.Logf("a table from a warm pool: %.0f allocations at %d entries, %.0f at %d", small, n/10, large, n)
	if small > 5 || large > 5 {
		t.Errorf("a table from a warm pool allocates %.0f times at %d entries and %.0f at %d, want <= 5",
			small, n/10, large, n)
	}
}

// discardFile is a table file that keeps nothing.
type discardFile struct{}

func (discardFile) Write(p []byte) (int, error)           { return len(p), nil }
func (discardFile) ReadAt(p []byte, _ int64) (int, error) { return 0, io.EOF }
func (discardFile) Close() error                          { return nil }
func (discardFile) Sync() error                           { return nil }
func (discardFile) Size() (int64, error)                  { return 0, nil }
