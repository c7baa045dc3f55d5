package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/checksum"
	"repro/internal/compress"
	"repro/internal/encoding"
	"repro/internal/iterator"
	"repro/internal/keys"
	"repro/internal/vfs"
)

// compressibleKVs returns entries whose values repeat enough to engage
// any real codec (the incompressible bailout must NOT fire).
func compressibleKVs(n int) []kv {
	kvs := make([]kv, n)
	for i := range kvs {
		kvs[i] = kv{
			u:   fmt.Sprintf("key-%06d", i),
			seq: 1,
			val: strings.Repeat(fmt.Sprintf("payload-%03d ", i%7), 8),
		}
	}
	return kvs
}

// formatCombos is every codec — every on-disk shape a reader can meet.
func formatCombos() []WriterOptions {
	var combos []WriterOptions
	for _, comp := range []compress.Kind{compress.None, compress.LZ4} {
		o := defaultWOpts()
		o.Compression = comp
		combos = append(combos, o)
	}
	return combos
}

func comboName(o WriterOptions) string { return o.Compression.String() }

// TestFormatMatrix writes a table with every codec and reads each back
// fully: iteration order and point gets.
func TestFormatMatrix(t *testing.T) {
	kvs := compressibleKVs(800)
	for _, wopts := range formatCombos() {
		t.Run(comboName(wopts), func(t *testing.T) {
			fs := vfs.Mem()
			props := buildTable(t, fs, "/t.sst", wopts, kvs)
			if wopts.Compression != compress.None && props.CompressedBytes >= props.UncompressedBytes {
				t.Errorf("compressible input did not shrink: %d on disk for %d raw",
					props.CompressedBytes, props.UncompressedBytes)
			}
			if wopts.Compression == compress.None && props.CompressedBytes != props.UncompressedBytes {
				t.Errorf("raw table charged %d on disk for %d raw", props.CompressedBytes, props.UncompressedBytes)
			}

			r := openTable(t, fs, "/t.sst", defaultROpts())
			defer r.Close()
			it := r.NewIterator()
			i := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				want := kvs[i]
				if string(keys.InternalKey(it.Key()).UserKey()) != want.u || string(it.Value()) != want.val {
					t.Fatalf("entry %d mismatch", i)
				}
				i++
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if i != len(kvs) {
				t.Fatalf("iterated %d of %d entries", i, len(kvs))
			}
			for _, probe := range []int{0, 1, 99, 500, len(kvs) - 1} {
				v, deleted, found, err := r.Get([]byte(kvs[probe].u), keys.MaxSeq)
				if err != nil || deleted || !found || string(v) != kvs[probe].val {
					t.Fatalf("Get(%q) = %q,%v,%v,%v", kvs[probe].u, v, deleted, found, err)
				}
			}
		})
	}
}

// TestFormatMatrixThroughCache re-reads each combo through a block cache
// and checks the compression-aware accounting: the cache is charged for
// UNCOMPRESSED resident bytes, which for a compressed table must exceed
// the on-disk data size it replaced.
func TestFormatMatrixThroughCache(t *testing.T) {
	kvs := compressibleKVs(800)
	for _, wopts := range formatCombos() {
		t.Run(comboName(wopts), func(t *testing.T) {
			fs := vfs.Mem()
			buildTable(t, fs, "/t.sst", wopts, kvs)
			c := cache.New(32 << 20)
			ropts := defaultROpts()
			ropts.Cache = c
			r := openTable(t, fs, "/t.sst", ropts)
			defer r.Close()
			it := r.NewIterator()
			n := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				n++
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if n != len(kvs) {
				t.Fatalf("iterated %d of %d", n, len(kvs))
			}
			comp, uncomp := ioBytes(r)
			if uncomp < comp {
				t.Errorf("IOBytes: decoded %d < on-disk %d", uncomp, comp)
			}
			if wopts.Compression != compress.None && comp >= uncomp {
				t.Errorf("compressed table read %d on-disk bytes for %d decoded; expected savings", comp, uncomp)
			}
			if used := c.Used(); used <= 0 {
				t.Errorf("cache charged %d bytes after full scan", used)
			}
			// Second scan must come from cache: no new device block reads.
			before := r.opts.Stats.BlockReads.Load()
			it2 := r.NewIterator()
			for it2.SeekToFirst(); it2.Valid(); it2.Next() {
			}
			if err := it2.Close(); err != nil {
				t.Fatal(err)
			}
			if got := r.opts.Stats.BlockReads.Load(); got != before {
				t.Errorf("second scan fetched %d blocks from device", got-before)
			}
		})
	}
}

// TestFormatCorruptionDetected flips a byte at every position of a small
// table for each combo and requires the read path to either surface
// ErrCorrupt or return the correct data (flips in slack bytes such as
// footer padding are legitimately invisible) — never a panic, never a
// silently wrong result.
func TestFormatCorruptionDetected(t *testing.T) {
	kvs := compressibleKVs(60)
	for _, wopts := range formatCombos() {
		wopts := wopts
		t.Run(comboName(wopts), func(t *testing.T) {
			fs := vfs.Mem()
			buildTable(t, fs, "/t.sst", wopts, kvs)
			orig := readAll(t, fs, "/t.sst")
			for pos := 0; pos < len(orig); pos++ {
				mut := append([]byte(nil), orig...)
				mut[pos] ^= 0x40
				writeAll(t, fs, "/c.sst", mut)
				verifyCorruptTableIsSafe(t, fs, "/c.sst", kvs, pos)
			}
		})
	}
}

// verifyCorruptTableIsSafe opens and fully reads a possibly-corrupt table,
// requiring every failure to be a clean error and every success to return
// the exact original entries.
func verifyCorruptTableIsSafe(t *testing.T, fs vfs.FS, name string, kvs []kv, pos int) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(f, defaultROpts())
	if err != nil {
		// Structural/checksum failure at open is the expected outcome for
		// most positions; it must be typed, and the handle stays ours.
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("pos %d: open failed with untyped error: %v", pos, err)
		}
		_ = f.Close()
		return
	}
	it := r.NewIterator()
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if i >= len(kvs) {
			break
		}
		if string(keys.InternalKey(it.Key()).UserKey()) != kvs[i].u || string(it.Value()) != kvs[i].val {
			t.Fatalf("pos %d: silent corruption at entry %d", pos, i)
		}
		i++
	}
	err = it.Close()
	if err == nil && i != len(kvs) {
		t.Fatalf("pos %d: clean read returned %d of %d entries", pos, i, len(kvs))
	}
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("pos %d: iteration failed with untyped error: %v", pos, err)
	}
	_ = r.Close()
}

func readAll(t *testing.T, fs vfs.FS, name string) []byte {
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
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

func writeAll(t *testing.T, fs vfs.FS, name string, data []byte) {
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

// TestWriterRejectsUnknownKinds pins the eager validation: a writer
// configured outside the format registry fails before writing anything.
func TestWriterRejectsUnknownKinds(t *testing.T) {
	fs := vfs.Mem()
	for _, o := range []WriterOptions{
		func() WriterOptions { o := defaultWOpts(); o.Compression = compress.Kind(7); return o }(),
		func() WriterOptions { o := defaultWOpts(); o.Compression = compress.Kind(1); return o }(),
	} {
		f, err := fs.Create("/bad.sst")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(f, o)
		ik := keys.MakeInternalKey(nil, []byte("k"), 1, keys.KindSet)
		if err := w.Add(ik, []byte("v")); err == nil {
			t.Error("Add accepted a writer with unknown format kind")
		}
		if _, err := w.Finish(); err == nil {
			t.Error("Finish accepted a writer with unknown format kind")
		}
		_ = f.Close()
	}
}

// TestRemovedKindsRejected: kind 1 of both format bytes names a deleted
// function — the flate codec in a block's type byte, XXH3 in the footer's
// checksum-kind byte — and so does the v1 footer's magic. A table whose
// index block or footer carries one fails to open with ErrCorrupt naming
// what it needs, even with every checksum intact; a data block retyped to
// flate fails every read of it — a point get, a table iterator, a
// compaction pass over a view — the same way. A file too short to hold a footer is
// corrupt, whatever its last bytes say.
func TestRemovedKindsRejected(t *testing.T) {
	fs := vfs.Mem()
	buildTable(t, fs, "/t.sst", defaultWOpts(), sortedKVs(300))
	raw := readAll(t, fs, "/t.sst")
	ftr, err := decodeFooter(raw[len(raw)-footerLenV2:])
	if err != nil {
		t.Fatal(err)
	}
	// retype marks the block at h as flate and checksums it as the writer
	// would have.
	retype := func(b []byte, h blockHandle) {
		end := h.offset + h.length
		b[end] = 1
		encoding.PutFixed32(b[end+1:end+1], checksum.Sum(checksum.CRC32C, b[h.offset:end], 1))
	}
	const flateErr = "block type flate (removed)"
	for _, tc := range []struct {
		name, want string
		edit       func(b []byte)
	}{
		{"flate index block", flateErr, func(b []byte) { retype(b, ftr.indexHandle) }},
		{"xxh3 footer", "checksum kind xxh3 (removed)", func(b []byte) { b[len(b)-9] = 1 }},
		{"v1 footer", "v1 footer (removed)", func(b []byte) { encoding.PutFixed64(b[len(b)-8:len(b)-8], magicV1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := bytes.Clone(raw)
			tc.edit(data)
			writeAll(t, fs, "/x.sst", data)
			f, err := fs.Open("/x.sst")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if r, err := OpenReader(f, defaultROpts()); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				if err == nil {
					_ = r.Close()
				}
				t.Errorf("OpenReader = %v, want ErrCorrupt naming %q", err, tc.want)
			}
		})
	}

	// A v1 footer was handles, padding and its magic: one byte shorter than
	// the footer that replaced it.
	const footerLenV1 = handlesLen + 8
	t.Run("v1-sized file", func(t *testing.T) {
		data := bytes.Clone(raw[len(raw)-footerLenV1:])
		encoding.PutFixed64(data[footerLenV1-8:footerLenV1-8], magicV1)
		writeAll(t, fs, "/short.sst", data)
		f, err := fs.Open("/short.sst")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if r, err := OpenReader(f, defaultROpts()); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				_ = r.Close()
			}
			t.Errorf("OpenReader of %d bytes = %v, want ErrCorrupt", footerLenV1, err)
		}
	})

	t.Run("flate data block", func(t *testing.T) {
		r := openTable(t, fs, "/t.sst", defaultROpts())
		blocks, _ := layout(t, r)
		_ = r.Close()
		first := blocks[0]
		data := bytes.Clone(raw)
		retype(data, blockHandle{offset: uint64(first.off), length: uint64(first.size - blockTrailerLen)})
		writeAll(t, fs, "/d.sst", data)
		r = openTable(t, fs, "/d.sst", defaultROpts())
		defer r.Close()
		check := func(t *testing.T, op string, err error) {
			t.Helper()
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), flateErr) {
				t.Errorf("%s: %v, want ErrCorrupt naming %q", op, err, flateErr)
			}
		}
		t.Run("get", func(t *testing.T) {
			_, _, _, err := r.Get([]byte("key-000000"), keys.MaxSeq)
			check(t, "Get", err)
		})
		t.Run("iterator", func(t *testing.T) {
			it := r.NewIterator()
			it.SeekToFirst()
			if it.Valid() {
				t.Errorf("iterator positioned at %s inside the flate block", keys.InternalKey(it.Key()))
			}
			check(t, "SeekToFirst", it.Error())
			_ = it.Close()
		})
		t.Run("sequential", func(t *testing.T) {
			f, err := fs.Open("/d.sst")
			if err != nil {
				t.Fatal(err)
			}
			seq := viewPass(r, f, nil)
			seq.SeekToFirst()
			if seq.Valid() {
				t.Errorf("compaction pass positioned at %s inside the flate block", keys.InternalKey(seq.Key()))
			}
			check(t, "compaction pass", seq.Close())
		})
	})
}

// TestUndecodableBlockIsCorrupt: a data block whose checksum holds but whose
// restart count does not fit it fails every read of it with ErrCorrupt
// naming the block — a point probe, a scan's iterator and a compaction pass
// over a view — rather than with block.Reader's bare error.
func TestUndecodableBlockIsCorrupt(t *testing.T) {
	fs := vfs.Mem()
	buildTable(t, fs, "/t.sst", defaultWOpts(), sortedKVs(300))
	r := openTable(t, fs, "/t.sst", defaultROpts())
	blocks, _ := layout(t, r)
	_ = r.Close()
	bad := blocks[1]
	data := readAll(t, fs, "/t.sst")
	payload := data[bad.off : bad.off+bad.size-blockTrailerLen]
	encoding.PutFixed32(payload[len(payload)-4:len(payload)-4], 1<<30)
	encoding.PutFixed32(data[bad.off+bad.size-4:bad.off+bad.size-4], checksum.Sum(checksum.CRC32C, payload, byte(compress.None)))
	writeAll(t, fs, "/t.sst", data)
	ropts := defaultROpts()
	ropts.Cache, ropts.FileNum = cache.New(1<<20), 9
	r = openTable(t, fs, "/t.sst", ropts)
	defer r.Close()
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("file 000009 offset %d", bad.off)) {
			t.Errorf("%s: %v, want ErrCorrupt naming file 000009 offset %d", op, err, bad.off)
		}
	}
	walk := func(it iterator.Iterator) error {
		for it.SeekToFirst(); it.Valid(); it.Next() {
		}
		return it.Close()
	}

	var c ProbeCursor
	_, _, _, _, err := r.Probe(&c, keys.MakeSearchKey(nil, keys.InternalKey(bad.lastKey).UserKey(), keys.MaxSeq))
	check("Probe", err)
	check("scan", walk(r.NewIterator()))
	f, err := fs.Open("/t.sst")
	if err != nil {
		t.Fatal(err)
	}
	check("compaction pass", walk(viewPass(r, f, nil)))
}
