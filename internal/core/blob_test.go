package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compaction"
	"repro/internal/keys"
	"repro/internal/vfs"
	"repro/internal/vlog"
)

// blobOpts returns smallOpts with value separation enabled: values of 64
// bytes and up go to the value log, segments rotate every 2 KiB so GC has
// sealed segments to work with.
func blobOpts(policy compaction.Policy) Options {
	opts := smallOpts(policy)
	opts.BlobThreshold = 64
	opts.BlobSegmentSize = 2 << 10
	return opts
}

// blobValue builds a deterministic value of n bytes for key index i.
func blobValue(i, n int) []byte {
	v := make([]byte, n)
	seed := fmt.Sprintf("blob-%d-", i)
	for j := range v {
		v[j] = seed[j%len(seed)]
	}
	return v
}

// TestBlobSeparationRoundTrip writes a mix of inline and separated values
// and reads them back through every read path: Get, Scan, forward and
// reverse iteration — before and after flushes push the pointer entries
// into tables, and again after a full reopen.
func TestBlobSeparationRoundTrip(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			opts := blobOpts(policy)
			db := openTestDB(t, opts)

			const n = 200
			want := make(map[string][]byte, n)
			for i := 0; i < n; i++ {
				size := 16 // inline
				if i%2 == 0 {
					size = 100 + i // separated (>= 64)
				}
				v := blobValue(i, size)
				if err := db.Put(key(i), v); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
				want[string(key(i))] = v
			}

			check := func(stage string) {
				t.Helper()
				for i := 0; i < n; i++ {
					got, err := db.Get(key(i))
					if err != nil {
						t.Fatalf("%s: get %d: %v", stage, i, err)
					}
					if !bytes.Equal(got, want[string(key(i))]) {
						t.Fatalf("%s: get %d: wrong value (len %d, want %d)",
							stage, i, len(got), len(want[string(key(i))]))
					}
				}
				kvs, err := db.Scan(key(0), n)
				if err != nil {
					t.Fatalf("%s: scan: %v", stage, err)
				}
				if len(kvs) != n {
					t.Fatalf("%s: scan returned %d pairs, want %d", stage, len(kvs), n)
				}
				for _, kv := range kvs {
					if !bytes.Equal(kv.Value, want[string(kv.Key)]) {
						t.Fatalf("%s: scan %s: wrong value", stage, kv.Key)
					}
				}
				it, err := db.NewIterator(nil)
				if err != nil {
					t.Fatalf("%s: iterator: %v", stage, err)
				}
				seen := 0
				for it.SeekToFirst(); it.Valid(); it.Next() {
					if !bytes.Equal(it.Value(), want[string(it.Key())]) {
						t.Fatalf("%s: iter %s: wrong value", stage, it.Key())
					}
					seen++
				}
				if err := it.Close(); err != nil {
					t.Fatalf("%s: iter close: %v", stage, err)
				}
				if seen != n {
					t.Fatalf("%s: iter saw %d keys, want %d", stage, seen, n)
				}
			}

			check("memtable")
			if err := db.CompactRange(); err != nil {
				t.Fatalf("compact: %v", err)
			}
			check("tables")

			s := db.Stats()
			if s.BlobValuesSeparated != n/2 {
				t.Errorf("BlobValuesSeparated = %d, want %d", s.BlobValuesSeparated, n/2)
			}
			if s.VlogTotalBytes == 0 || s.VlogSegments == 0 {
				t.Errorf("vlog stats empty after separation: %+v", s)
			}
			if s.BlobResolves == 0 {
				t.Errorf("no pointer resolutions recorded")
			}

			if err := db.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			db, err := Open("/db", opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db.Close()
			check("reopened")
		})
	}
}

// TestBlobDisabledNoVlogArtifacts checks the layout-compatibility promise:
// with BlobThreshold zero the database never creates a value-log segment,
// even for huge values.
func TestBlobDisabledNoVlogArtifacts(t *testing.T) {
	opts := smallOpts(compaction.LDC)
	db := openTestDB(t, opts)
	for i := 0; i < 20; i++ {
		if err := db.Put(key(i), blobValue(i, 4096)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, dir := range []string{"/db", "/db/shard-0"} {
		names, _ := opts.FS.List(dir)
		for _, name := range names {
			if strings.Contains(name, "vlog") || strings.Contains(name, "VLOG") {
				t.Fatalf("unexpected vlog entry in %s: %v", dir, names)
			}
		}
	}
}

// TestBlobDisableReopenStillResolves turns separation off on reopen and
// verifies old pointers still resolve (the log opens read-mostly whenever
// segments exist on disk) while new writes stay inline.
func TestBlobDisableReopenStillResolves(t *testing.T) {
	opts := blobOpts(compaction.LDC)
	db := openTestDB(t, opts)
	const n = 50
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), blobValue(i, 256)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	opts2 := opts
	opts2.BlobThreshold = 0
	db, err := Open("/db", opts2)
	if err != nil {
		t.Fatalf("reopen with separation off: %v", err)
	}
	defer db.Close()
	for i := 0; i < n; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, blobValue(i, 256)) {
			t.Fatalf("get %d after disable: %v (len %d)", i, err, len(got))
		}
	}
	before := db.Stats().VlogTotalBytes
	if before == 0 {
		t.Fatalf("vlog not opened for existing segments")
	}
	// New writes must not grow the log.
	for i := n; i < n+10; i++ {
		if err := db.Put(key(i), blobValue(i, 256)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if after := db.Stats().VlogTotalBytes; after != before {
		t.Fatalf("vlog grew from %d to %d with separation disabled", before, after)
	}
}

// TestBlobGCReclaimsDeadSegments overwrites every separated value, compacts
// until the old pointer entries are dropped (feeding the dead-byte
// accounting), then runs GC and verifies segments are actually deleted
// while every key still reads its newest value.
func TestBlobGCReclaimsDeadSegments(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			opts := blobOpts(policy)
			db := openTestDB(t, opts)
			// Enough generations that flushes and real compactions happen —
			// only a compaction dropping a shadowed pointer feeds the
			// dead-byte accounting (CompactRange alone never rewrites a
			// lone L0 table).
			const n, gens = 150, 6
			for g := 0; g < gens; g++ {
				for i := 0; i < n; i++ {
					if err := db.Put(key(i), blobValue(i+g*7777, 200)); err != nil {
						t.Fatalf("gen %d put %d: %v", g, i, err)
					}
				}
			}
			// Compaction drops the shadowed pointer entries and marks their
			// records dead.
			if err := db.CompactRange(); err != nil {
				t.Fatalf("compact: %v", err)
			}
			before := db.Stats()
			if before.VlogDeadBytes == 0 {
				t.Fatalf("no dead bytes recorded after compaction: %+v", before)
			}
			if err := db.RunValueGC(); err != nil {
				t.Fatalf("gc: %v", err)
			}
			after := db.Stats()
			if after.VlogGCPasses == 0 {
				t.Fatalf("GC reclaimed nothing: before=%+v after=%+v", before, after)
			}
			if after.VlogTotalBytes >= before.VlogTotalBytes {
				t.Errorf("vlog did not shrink: %d -> %d bytes",
					before.VlogTotalBytes, after.VlogTotalBytes)
			}
			for i := 0; i < n; i++ {
				got, err := db.Get(key(i))
				if err != nil || !bytes.Equal(got, blobValue(i+(gens-1)*7777, 200)) {
					t.Fatalf("get %d after GC: %v (len %d)", i, err, len(got))
				}
			}
			// CompactValueLog drains the remainder; reopen and re-verify —
			// nothing a GC deleted may be needed again.
			if err := db.CompactValueLog(); err != nil {
				t.Fatalf("compact value log: %v", err)
			}
			// The sweep relocated every live record through the commit
			// pipeline (GC rewrites); those are not user writes.
			if s := db.Stats(); s.VlogGCBytesRewritten == 0 || s.Puts != n*gens || s.Deletes != 0 {
				t.Errorf("after GC rewrote %d bytes: Puts=%d Deletes=%d, want %d and 0",
					s.VlogGCBytesRewritten, s.Puts, s.Deletes, n*gens)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			db, err := Open("/db", opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db.Close()
			for i := 0; i < n; i++ {
				got, err := db.Get(key(i))
				if err != nil || !bytes.Equal(got, blobValue(i+(gens-1)*7777, 200)) {
					t.Fatalf("get %d after reopen: %v (len %d)", i, err, len(got))
				}
			}
		})
	}
}

// TestBlobShardedRoundTrip runs separation across a sharded database: a
// value log per shard, each collected by its own shard.
func TestBlobShardedRoundTrip(t *testing.T) {
	opts := blobOpts(compaction.LDC)
	opts.Shards = 4
	db := openTestDB(t, opts)
	defer db.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), blobValue(i, 128)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), blobValue(i+5555, 128)); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
	}
	if err := db.CompactRange(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := db.CompactValueLog(); err != nil {
		t.Fatalf("gc: %v", err)
	}
	for i := 0; i < n; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, blobValue(i+5555, 128)) {
			t.Fatalf("get %d: %v (len %d)", i, err, len(got))
		}
	}
	kvs, err := db.Scan(nil, n)
	if err != nil || len(kvs) != n {
		t.Fatalf("scan: %d pairs, err %v; want %d", len(kvs), err, n)
	}
}

// TestBlobCacheKeysArePerShard: segment numbers are per shard, so the first
// value each of two shards separates sits at segment 1, offset 0 of its own
// log. The shared block cache must keep the two apart — a cached value of
// one shard must never answer a read of the other.
func TestBlobCacheKeysArePerShard(t *testing.T) {
	opts := blobOpts(compaction.LDC)
	opts.Shards = 2
	db := openTestDB(t, opts)
	defer db.Close()
	var byShard [2][]byte
	for i := 0; byShard[0] == nil || byShard[1] == nil; i++ {
		if sh := db.shardIndex(key(i)); byShard[sh] == nil {
			byShard[sh] = key(i)
		}
	}
	for sh, k := range byShard {
		if err := db.Put(k, blobValue(sh, 200)); err != nil {
			t.Fatal(err)
		}
		if p := rawPointer(t, db.shards[sh], k); p.Segment != 1 || p.Offset != 0 {
			t.Fatalf("shard %d: pointer %s, want segment 1 at offset 0", sh, p)
		}
	}
	for round := 0; round < 2; round++ {
		for sh, k := range byShard {
			if got, err := db.Get(k); err != nil || !bytes.Equal(got, blobValue(sh, 200)) {
				t.Fatalf("round %d: Get(%s) = %.20q, %v; want shard %d's value", round, k, got, err, sh)
			}
		}
	}
	if s := db.Stats(); s.BlobResolves != 4 || s.BlobResolveCacheHits != 2 {
		t.Errorf("resolves %d, cache hits %d; want 4 and 2", s.BlobResolves, s.BlobResolveCacheHits)
	}
}

// rawPointer returns the value-log pointer st's newest entry for key holds.
func rawPointer(t *testing.T, st *store, key []byte) vlog.Pointer {
	t.Helper()
	rs := st.loadReadState()
	defer rs.unref()
	val, kind, found, err := st.entry(rs, new(readScratch), key, st.set.LastSeq())
	if err != nil || !found || kind != keys.KindBlobRef {
		t.Fatalf("entry of %s: kind %v, found %v, %v; want a pointer", key, kind, found, err)
	}
	p, ok := vlog.DecodePointer(val)
	if !ok {
		t.Fatalf("entry of %s: malformed pointer %x", key, val)
	}
	return p
}

// TestBlobTornVlogTail crashes with the value log's tail torn off (the
// classic lost-unsynced-write shape) and verifies recovery treats the WAL
// batch whose pointers dangle as torn: earlier writes survive, the torn
// batch vanishes whole, and no read ever returns a dangling pointer error.
func TestBlobTornVlogTail(t *testing.T) {
	for _, corrupt := range []string{"tear", "flip"} {
		t.Run(corrupt, func(t *testing.T) {
			mem := vfs.Mem()
			efs := vfs.NewErrFS(mem)
			opts := blobOpts(compaction.LDC)
			opts.FS = efs
			opts.BlobSegmentSize = 1 << 20 // one segment; the tail is the last record
			// Unsynced WAL frames sit in the writer's buffer and die with the
			// process; sync so the WAL survives the crash and recovery runs
			// against a vlog that is the component truncated behind it.
			opts.Sync = true

			db, err := Open("/db", opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			const n = 20
			for i := 0; i < n; i++ {
				if err := db.Put(key(i), blobValue(i, 300)); err != nil {
					t.Fatalf("put: %v", err)
				}
			}
			// Crash without Close.
			st := db.shards[0]
			st.mu.Lock()
			st.stopBackgroundLocked()
			st.mu.Unlock()

			segs := shardSegments(t, mem, 0)
			if len(segs) == 0 {
				t.Fatal("no vlog segment")
			}
			seg := segs[len(segs)-1]
			switch corrupt {
			case "tear":
				// Drop half of the final record.
				if err := efs.TearFile(seg, 150); err != nil {
					t.Fatalf("tear: %v", err)
				}
			case "flip":
				f, _ := mem.Open(seg)
				size, _ := f.Size()
				_ = f.Close()
				if err := efs.FlipBit(seg, size-10); err != nil {
					t.Fatalf("flip: %v", err)
				}
			}

			db2, err := Open("/db", Options{
				FS:                 mem,
				Policy:             opts.Policy,
				MemTableSize:       opts.MemTableSize,
				SSTableSize:        opts.SSTableSize,
				Fanout:             opts.Fanout,
				SliceLinkThreshold: opts.SliceLinkThreshold,
				BlockSize:          opts.BlockSize,
				BlockCacheSize:     opts.BlockCacheSize,
				BlobThreshold:      opts.BlobThreshold,
				BlobSegmentSize:    opts.BlobSegmentSize,
				Sync:               true,
			})
			if err != nil {
				t.Fatalf("reopen after %s: %v", corrupt, err)
			}
			defer db2.Close()
			// The corrupted record belongs to the last Put; everything before
			// the valid extent must read back, the rest must be cleanly gone.
			missing := 0
			for i := 0; i < n; i++ {
				got, err := db2.Get(key(i))
				switch {
				case err == nil:
					if !bytes.Equal(got, blobValue(i, 300)) {
						t.Fatalf("key %d: wrong value after recovery", i)
					}
					if missing > 0 {
						t.Fatalf("key %d present after key %d dropped: recovery not prefix-consistent", i, i-missing)
					}
				case errors.Is(err, ErrNotFound):
					missing++
				default:
					t.Fatalf("key %d: %v (dangling pointer leaked through recovery)", i, err)
				}
			}
			if missing == 0 {
				t.Fatalf("%s corruption dropped nothing — corruption not exercised", corrupt)
			}
			if missing > 2 {
				t.Fatalf("%s corruption dropped %d writes, want at most the torn tail's batches", corrupt, missing)
			}
		})
	}
}

// TestValueGCRatioBoundary pins the ratio RunValueGC collects at: a sealed
// segment whose dead bytes are one short of ValueGCRatio of its size stays,
// one at or above it is rewritten and deleted. Dead bytes are charged
// directly, so the records GC relocates are live and must still read back.
func TestValueGCRatioBoundary(t *testing.T) {
	cases := []struct {
		name    string
		dead    func(size int64) int64
		collect bool
	}{
		{"quarter dead", func(size int64) int64 { return size / 4 }, false},
		{"one byte under the ratio", func(size int64) int64 { return ceilRatio(size) - 1 }, false},
		{"at the ratio", ceilRatio, true},
		{"three quarters dead", func(size int64) int64 { return size * 3 / 4 }, true},
		{"all dead", func(size int64) int64 { return size }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := openTestDB(t, blobOpts(compaction.LDC))
			defer db.Close()
			const n = 40 // distinct keys: no compaction marks anything dead
			for i := 0; i < n; i++ {
				if err := db.Put(key(i), blobValue(i, 200)); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			log := db.shards[0].vlog
			sealed := log.SealedSegments()
			if len(sealed) == 0 {
				t.Fatal("no sealed segment to collect")
			}
			num := sealed[0]
			seg, err := log.OpenSegment(num)
			if err != nil {
				t.Fatal(err)
			}
			size := seg.Size()
			if err := seg.Close(); err != nil {
				t.Fatal(err)
			}
			log.MarkDead(num, tc.dead(size))
			if err := db.RunValueGC(); err != nil {
				t.Fatalf("gc: %v", err)
			}
			if kept := slices.Contains(log.SealedSegments(), num); kept == tc.collect {
				t.Fatalf("segment %d of %d bytes with %d dead: kept = %v, want %v",
					num, size, tc.dead(size), kept, !tc.collect)
			}
			for i := 0; i < n; i++ {
				got, err := db.Get(key(i))
				if err != nil || !bytes.Equal(got, blobValue(i, 200)) {
					t.Fatalf("get %d after GC: %v (len %d)", i, err, len(got))
				}
			}
		})
	}
}

// ceilRatio is the fewest dead bytes that put a segment of size bytes at
// ValueGCRatio.
func ceilRatio(size int64) int64 {
	return int64(math.Ceil(ValueGCRatio * float64(size)))
}

// TestBlobGCCrashMidPass injects an I/O failure during GC relocation, then
// reboots and verifies no acknowledged write was lost and a fresh full GC
// completes — a half-finished pass must leave both copies resolvable.
func TestBlobGCCrashMidPass(t *testing.T) {
	mem := vfs.Mem()
	efs := vfs.NewErrFS(mem)
	opts := blobOpts(compaction.LDC)
	opts.FS = efs

	db, err := Open("/db", opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const n = 120
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), blobValue(i, 200)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := 0; i < n; i += 2 {
		if err := db.Put(key(i), blobValue(i+9999, 200)); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
	}
	if err := db.CompactRange(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// Fail partway through the GC's relocation appends.
	efs.FailAfterWrites(10, errInjected)
	gcErr := db.CompactValueLog()
	efs.Disarm()
	if gcErr == nil {
		// The budget may have been consumed by background work instead;
		// either way the pass must not have corrupted anything.
		t.Log("GC completed before the injected failure fired")
	}
	// Crash without Close.
	st := db.shards[0]
	st.mu.Lock()
	st.stopBackgroundLocked()
	st.mu.Unlock()

	opts2 := opts
	opts2.FS = mem
	db2, err := Open("/db", opts2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	verify := func(stage string) {
		t.Helper()
		for i := 0; i < n; i++ {
			want := blobValue(i, 200)
			if i%2 == 0 {
				want = blobValue(i+9999, 200)
			}
			got, err := db2.Get(key(i))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: get %d: %v (len %d)", stage, i, err, len(got))
			}
		}
	}
	verify("after crash")
	if err := db2.CompactRange(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := db2.CompactValueLog(); err != nil {
		t.Fatalf("gc after reboot: %v", err)
	}
	verify("after redo GC")
}

// TestBlobGCReaderTorture races GC (relocating and deleting segments)
// against concurrent readers, writers, and iterators. Run with -race; the
// invariants build tag adds internal checks on top.
func TestBlobGCReaderTorture(t *testing.T) {
	opts := blobOpts(compaction.LDC)
	db := openTestDB(t, opts)
	defer db.Close()

	const n = 64
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), blobValue(i, 150)); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan error, 8)

	// The writer is paced by the sweeps, not only by the clock: every sweep
	// forces a flush per segment, so a writer that outruns it multiplies the
	// segment population sweep over sweep — the more so the slower the build
	// (-race, -tags invariants).
	const writesPerSweep = 250
	var sweeps atomic.Int64
	wg.Add(1)
	go func() { // writer: keeps overwriting, generating garbage
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for gen := 1; ; {
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(100 * time.Microsecond)
			if int64(gen) > (sweeps.Load()+1)*writesPerSweep {
				continue
			}
			i := rng.Intn(n)
			if err := db.Put(key(i), blobValue(i+gen*1000, 150)); err != nil {
				fail <- fmt.Errorf("writer: %w", err)
				return
			}
			gen++
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) { // readers: every value must decode consistently
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(n)
				got, err := db.Get(key(i))
				if err != nil {
					fail <- fmt.Errorf("reader: get %d: %w", i, err)
					return
				}
				if len(got) != 150 {
					fail <- fmt.Errorf("reader: get %d: %d bytes", i, len(got))
					return
				}
				// Spinning readers need not starve the sweeper at -cpu 1,
				// where it would otherwise get one 10 ms slice in five.
				runtime.Gosched()
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() { // iterator: full passes while segments churn
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			it, err := db.NewIterator(nil)
			if err != nil {
				fail <- fmt.Errorf("iter open: %w", err)
				return
			}
			count := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				k := string(it.Key())
				v := it.Value()
				if err := it.Error(); err != nil {
					fail <- fmt.Errorf("iter: %s: %w", k, err)
					it.Close()
					return
				}
				if len(v) != 150 {
					fail <- fmt.Errorf("iter: %s: %d bytes", k, len(v))
					it.Close()
					return
				}
				count++
			}
			err = it.Close()
			if err != nil {
				fail <- fmt.Errorf("iter close: %w", err)
				return
			}
			if count != n {
				fail <- fmt.Errorf("iter saw %d keys, want %d", count, n)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // GC: sweep repeatedly while everything else churns
		defer wg.Done()
		defer close(stop) // 8 sweeps survived (or a sibling failed): wind down
		for rounds := 0; rounds < 8; rounds++ {
			select {
			case <-stop:
				return
			default:
			}
			// No CompactRange here: it waits for tree convergence, which a
			// live writer can stave off forever. The full sweep relocates
			// without needing compaction's dead-byte accounting.
			if err := db.CompactValueLog(); err != nil {
				fail <- fmt.Errorf("gc sweep: %w", err)
				return
			}
			sweeps.Add(1)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	// Readers that arrive during a pass do not block it, so the racing
	// sweeps themselves must have reclaimed segments.
	if s := db.Stats(); s.VlogGCPasses == 0 {
		t.Errorf("no racing sweep reclaimed a segment: %+v", s)
	}
	if err := db.CompactRange(); err != nil {
		t.Fatalf("final compact: %v", err)
	}
	if err := db.CompactValueLog(); err != nil {
		t.Fatalf("final sweep: %v", err)
	}
	for i := 0; i < n; i++ {
		got, err := db.Get(key(i))
		if err != nil || len(got) != 150 {
			t.Fatalf("final get %d: %v (%d bytes)", i, err, len(got))
		}
	}
}

// shardSegments returns the paths of the value-log segments in the
// directory of /db's shard, by ascending segment number.
func shardSegments(t *testing.T, fs vfs.FS, shard int) []string {
	t.Helper()
	dir := fmt.Sprintf("/db/shard-%d", shard)
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var nums []uint64
	for _, name := range names {
		if sh, num, ok := vlog.ParseSegmentFileName(name); ok {
			if sh != shard {
				t.Fatalf("%s holds %s, a segment of shard %d", dir, name, sh)
			}
			nums = append(nums, num)
		}
	}
	slices.Sort(nums)
	paths := make([]string, len(nums))
	for i, num := range nums {
		paths[i] = filepath.Join(dir, vlog.SegmentFileName(shard, num))
	}
	return paths
}

// firstSegment returns the path of the lowest-numbered value-log segment
// of shard.
func firstSegment(t *testing.T, fs vfs.FS, shard int) string {
	t.Helper()
	segs := shardSegments(t, fs, shard)
	if len(segs) == 0 {
		t.Fatalf("shard %d has no value-log segment", shard)
	}
	return segs[0]
}

// TestBlobGCOnlyOlderReadersBlock pins the liveness rule for value-log
// segments: an iterator opened before a segment was proved dead keeps it on
// disk; an iterator opened afterwards does not.
func TestBlobGCOnlyOlderReadersBlock(t *testing.T) {
	opts := blobOpts(compaction.LDC)
	db := openTestDB(t, opts)
	defer db.Close()
	const n = 40
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), blobValue(i, 150)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	old := firstSegment(t, opts.FS, 0)

	// A sees generation 0; the overwrites then kill every record of the
	// first segment.
	a, err := db.NewIterator(nil)
	if err != nil {
		t.Fatalf("iterator A: %v", err)
	}
	defer a.Close() // before the store's, if a check fails
	a.SeekToFirst()
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), blobValue(i+1000, 150)); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
	}
	walk := func(name string, it *Iterator, gen int) {
		t.Helper()
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if v := it.Value(); !bytes.Equal(v, blobValue(i+gen, 150)) {
				t.Fatalf("%s: key %s: wrong value (%d bytes, err %v)", name, it.Key(), len(v), it.Error())
			}
			i++
		}
		if err := it.Error(); err != nil || i != n {
			t.Fatalf("%s: saw %d keys, err %v; want %d", name, i, err, n)
		}
	}

	if err := db.CompactValueLog(); err != nil {
		t.Fatalf("sweep with A open: %v", err)
	}
	if !opts.FS.Exists(old) {
		t.Fatalf("segment deleted under an iterator that can still reach it")
	}
	walk("A", a, 0)

	b, err := db.NewIterator(nil)
	if err != nil {
		t.Fatalf("iterator B: %v", err)
	}
	defer b.Close()
	b.SeekToFirst()
	if err := a.Close(); err != nil {
		t.Fatalf("close A: %v", err)
	}
	if err := db.CompactValueLog(); err != nil {
		t.Fatalf("sweep with B open: %v", err)
	}
	if opts.FS.Exists(old) {
		t.Fatalf("a reader that arrived after the segment died kept it on disk")
	}
	walk("B", b, 1000)
}

// pendingSegments returns how many emptied segments wait for the sweep on
// each shard.
func pendingSegments(db *DB) []int {
	n := make([]int, len(db.shards))
	for i, st := range db.shards {
		st.mu.Lock()
		n[i] = len(st.pendingSegs)
		st.mu.Unlock()
	}
	return n
}

// overwrittenBlobDB opens a store, writes generation 0 of n separated
// values, flushes, calls hold (which may pin a reader on generation 0) and
// overwrites every value with generation 1000: each shard's first segment
// then holds dead records only.
func overwrittenBlobDB(t *testing.T, opts Options, n int, hold func(*DB)) *DB {
	t.Helper()
	db := openTestDB(t, opts)
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), blobValue(i, 150)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	hold(db)
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), blobValue(i+1000, 150)); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
	}
	return db
}

// segmentCount counts the value-log segments of every shard on disk.
func segmentCount(t *testing.T, fs vfs.FS, shards int) int {
	t.Helper()
	n := 0
	for sh := 0; sh < shards; sh++ {
		n += len(shardSegments(t, fs, sh))
	}
	return n
}

// TestBlobGCHeldReaderDefersDeletion: a reader older than a segment's proof
// of death neither stalls a GC pass nor ends it. The segment waits in its
// shard's pending list, the shard relocates nothing more, the other shards
// are still collected, and the first pass after the reader is gone deletes
// it and reaches the segment count of a store that never held a reader.
func TestBlobGCHeldReaderDefersDeletion(t *testing.T) {
	const n = 100
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := blobOpts(compaction.LDC)
			opts.Shards = shards
			control := overwrittenBlobDB(t, opts, n, func(*DB) {})
			if err := control.CompactValueLog(); err != nil {
				t.Fatalf("control sweep: %v", err)
			}
			want := segmentCount(t, opts.FS, shards)
			if err := control.Close(); err != nil {
				t.Fatal(err)
			}

			opts.FS = vfs.Mem()
			var it *Iterator
			db := overwrittenBlobDB(t, opts, n, func(db *DB) {
				var err error
				if it, err = db.NewIterator(nil); err != nil {
					t.Fatalf("iterator: %v", err)
				}
				it.SeekToFirst()
			})
			defer db.Close()
			defer it.Close() // before the store's, if a check fails
			first := make([]string, shards)
			for sh := range first {
				first[sh] = firstSegment(t, opts.FS, sh)
			}
			if err := db.CompactValueLog(); err != nil {
				t.Fatalf("sweep with the iterator open: %v", err)
			}
			for sh, seg := range first {
				if !opts.FS.Exists(seg) {
					t.Fatalf("shard %d: %s deleted under an iterator that can reach it", sh, seg)
				}
			}
			if got := pendingSegments(db); slices.ContainsFunc(got, func(p int) bool { return p != 1 }) {
				t.Fatalf("pending segments per shard = %v, want one each", got)
			}
			i := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if v := it.Value(); !bytes.Equal(v, blobValue(i, 150)) {
					t.Fatalf("iterator: key %s: not generation 0 (%d bytes, err %v)", it.Key(), len(v), it.Error())
				}
				i++
			}
			if err := it.Close(); err != nil || i != n {
				t.Fatalf("iterator saw %d keys, close %v; want %d", i, err, n)
			}

			if err := db.CompactValueLog(); err != nil {
				t.Fatalf("sweep after the iterator closed: %v", err)
			}
			for sh, seg := range first {
				if opts.FS.Exists(seg) {
					t.Fatalf("shard %d: %s outlived its last reader", sh, seg)
				}
			}
			if got := segmentCount(t, opts.FS, shards); got != want {
				t.Fatalf("%d segments after the sweeps, want %d as without a reader", got, want)
			}
			if shards == 1 {
				return
			}

			// A read point pins shard 0 only: shard 1 is collected in full.
			var k int
			for db.shardIndex(key(k)) != 0 {
				k++
			}
			rp := TakeReadPoint(db, key(k))
			for i := 0; i < n; i++ {
				if err := db.Put(key(i), blobValue(i+2000, 150)); err != nil {
					t.Fatalf("overwrite: %v", err)
				}
			}
			sealed1 := shardSegments(t, opts.FS, 1)
			sealed1 = sealed1[:len(sealed1)-1] // the last is the active segment
			if err := db.CompactValueLog(); err != nil {
				t.Fatalf("sweep with a read point on shard 0: %v", err)
			}
			if got := pendingSegments(db); got[0] != 1 || got[1] != 0 {
				t.Fatalf("pending segments per shard = %v, want [1 0]", got)
			}
			for _, seg := range sealed1 {
				if opts.FS.Exists(seg) {
					t.Fatalf("shard 1 kept %s: a read point on shard 0 held it", seg)
				}
			}
			if v, err := rp.Read(key(k)); err != nil || !bytes.Equal(v, blobValue(k+1000, 150)) {
				t.Fatalf("read point: %d bytes, %v; want generation 1000", len(v), err)
			}
			if err := db.CompactValueLog(); err != nil {
				t.Fatalf("sweep after the read: %v", err)
			}
			if got := pendingSegments(db); got[0] != 0 {
				t.Fatalf("pending segments per shard = %v after the read point's release", got)
			}
		})
	}
}

// TestBlobGCSnapshotDefersDeletion: a registered snapshot keeps the segment
// its values live in, GetAt reads them until Release, and the sweep after the
// next job deletes the segment.
func TestBlobGCSnapshotDefersDeletion(t *testing.T) {
	const n = 40
	opts := blobOpts(compaction.LDC)
	var snap *Snapshot
	db := overwrittenBlobDB(t, opts, n, func(db *DB) {
		var err error
		if snap, err = db.NewSnapshot(); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
	})
	defer db.Close()
	first := firstSegment(t, opts.FS, 0)
	if err := db.CompactValueLog(); err != nil {
		t.Fatalf("sweep with the snapshot held: %v", err)
	}
	if !opts.FS.Exists(first) {
		t.Fatal("segment deleted under a registered snapshot")
	}
	for i := 0; i < n; i++ {
		if v, err := db.GetAt(key(i), snap); err != nil || !bytes.Equal(v, blobValue(i, 150)) {
			t.Fatalf("GetAt %d: %d bytes, %v; want generation 0", i, len(v), err)
		}
	}
	snap.Release()
	// Any job's cleanup sweeps: a flush is one. Flush returns once the
	// table has landed, WaitIdle once the job's cleanup has run too.
	if err := db.Put(key(0), blobValue(2000, 150)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	if opts.FS.Exists(first) {
		t.Fatal("segment outlived the snapshot's release and a job's sweep")
	}
}

// TestBlobGCCloseDeletesPendingSegment: Close sweeps after the retired read
// states drain, so a segment whose last reader closed before the store
// leaves nothing on disk.
func TestBlobGCCloseDeletesPendingSegment(t *testing.T) {
	opts := blobOpts(compaction.LDC)
	var it *Iterator
	db := overwrittenBlobDB(t, opts, 40, func(db *DB) {
		var err error
		if it, err = db.NewIterator(nil); err != nil {
			t.Fatalf("iterator: %v", err)
		}
		it.SeekToFirst()
	})
	first := firstSegment(t, opts.FS, 0)
	if err := db.CompactValueLog(); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if got := pendingSegments(db); got[0] != 1 {
		t.Fatalf("pending segments = %v, want [1]", got)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if opts.FS.Exists(first) {
		t.Fatalf("Close left %s on disk with no reader left", first)
	}
}

// TestBlobGCCrashWithPendingSegment abandons the handle while an emptied
// segment waits on a reader: the relocations and rewrites it waited for
// are durable, so the reopened store reads every key, and collects the
// segment again.
func TestBlobGCCrashWithPendingSegment(t *testing.T) {
	const n = 40
	opts := blobOpts(compaction.LDC)
	db := overwrittenBlobDB(t, opts, n, func(db *DB) {
		it, err := db.NewIterator(nil)
		if err != nil {
			t.Fatalf("iterator: %v", err)
		}
		it.SeekToFirst() // held open across the crash
	})
	first := firstSegment(t, opts.FS, 0)
	if err := db.CompactValueLog(); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if got := pendingSegments(db); got[0] != 1 {
		t.Fatalf("pending segments = %v, want [1]", got)
	}
	st := db.shards[0]
	st.mu.Lock()
	st.stopBackgroundLocked()
	st.mu.Unlock()

	db2, err := Open("/db", opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	verify := func(stage string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if v, err := db2.Get(key(i)); err != nil || !bytes.Equal(v, blobValue(i+1000, 150)) {
				t.Fatalf("%s: get %d: %d bytes, %v", stage, i, len(v), err)
			}
		}
	}
	verify("after the crash")
	if err := db2.CompactValueLog(); err != nil {
		t.Fatalf("sweep after reopen: %v", err)
	}
	if opts.FS.Exists(first) {
		t.Fatalf("%s survived a sweep with no reader", first)
	}
	verify("after the sweep")
}

// TestBlobDanglingPointerIsAnError removes a sealed segment file out from
// under an open database: every read path that touches a pointer into it
// must report vlog.ErrSegmentGone on the first touch — never an empty
// value, never a retry — and an iterator must stop being Valid.
func TestBlobDanglingPointerIsAnError(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := blobOpts(compaction.LDC)
			opts.Shards = shards
			db := openTestDB(t, opts)
			defer db.Close()
			const n = 60
			for i := 0; i < n; i++ {
				if err := db.Put(key(i), blobValue(i, 150)); err != nil {
					t.Fatalf("put: %v", err)
				}
			}
			// key(0) was its shard's first separated value, so it lives in
			// that shard's first segment (sealed long since: 2 KiB segments).
			if err := opts.FS.Remove(firstSegment(t, opts.FS, db.shardIndex(key(0)))); err != nil {
				t.Fatal(err)
			}

			if v, err := db.Get(key(0)); !errors.Is(err, vlog.ErrSegmentGone) {
				t.Fatalf("Get = %d bytes, %v; want ErrSegmentGone", len(v), err)
			}
			if kvs, err := db.Scan(key(0), 5); !errors.Is(err, vlog.ErrSegmentGone) {
				t.Fatalf("Scan = %d pairs, %v; want ErrSegmentGone", len(kvs), err)
			}
			it, err := db.NewIterator(nil)
			if err != nil {
				t.Fatal(err)
			}
			it.Seek(key(0))
			if !it.Valid() || !bytes.Equal(it.Key(), key(0)) {
				t.Fatalf("not positioned on key 0 (valid %v)", it.Valid())
			}
			if v := it.Value(); v != nil {
				t.Fatalf("Value = %d bytes from a missing segment", len(v))
			}
			if it.Valid() {
				t.Fatal("still Valid after a failed resolution")
			}
			if err := it.Error(); !errors.Is(err, vlog.ErrSegmentGone) {
				t.Fatalf("Error = %v; want ErrSegmentGone", err)
			}
			if err := it.Close(); !errors.Is(err, vlog.ErrSegmentGone) {
				t.Fatalf("Close = %v; want ErrSegmentGone", err)
			}
		})
	}
}

// TestFlushManual checks the manual Flush API the blob benchmark quiesces
// with: a non-empty memtable reaches a table (inline and separated values
// alike), an immediate second Flush is a no-op, and everything still reads.
func TestFlushManual(t *testing.T) {
	for _, sep := range []bool{false, true} {
		name := "inline"
		if sep {
			name = "separated"
		}
		t.Run(name, func(t *testing.T) {
			opts := smallOpts(compaction.LDC)
			if sep {
				opts.BlobThreshold = 64
				opts.BlobSegmentSize = 2 << 10
			}
			db := openTestDB(t, opts)
			defer db.Close()
			const n = 30
			for i := 0; i < n; i++ {
				if err := db.Put(key(i), blobValue(i, 200)); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			var tableBytes int64
			for _, l := range db.CurrentProfile().Levels {
				tableBytes += l.Bytes
			}
			if tableBytes == 0 {
				t.Fatalf("no table bytes after manual flush")
			}
			fw := db.Stats().FlushWriteBytes
			if fw == 0 {
				t.Fatalf("no flush bytes accounted")
			}
			if err := db.Flush(); err != nil {
				t.Fatalf("second flush: %v", err)
			}
			if again := db.Stats().FlushWriteBytes; again != fw {
				t.Fatalf("no-op flush wrote %d bytes", again-fw)
			}
			for i := 0; i < n; i++ {
				got, err := db.Get(key(i))
				if err != nil || !bytes.Equal(got, blobValue(i, 200)) {
					t.Fatalf("get %d after flush: %v (%d bytes)", i, err, len(got))
				}
			}
		})
	}
}
