package ldc_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/ldc"
)

// These tests exercise the public API surface exactly as a downstream user
// would, on every policy.

func openMem(t *testing.T, policy ldc.Policy) *ldc.DB {
	t.Helper()
	db, err := ldc.Open("/db", &ldc.Options{
		FS:           ldc.MemFS(),
		Policy:       policy,
		MemTableSize: 16 << 10,
		SSTableSize:  16 << 10,
		Fanout:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPIBasics(t *testing.T) {
	for _, policy := range []ldc.Policy{ldc.PolicyUDC, ldc.PolicyLDC} {
		t.Run(policy.String(), func(t *testing.T) {
			db := openMem(t, policy)
			defer db.Close()

			if err := db.Put([]byte("hello"), []byte("world")); err != nil {
				t.Fatal(err)
			}
			v, err := db.Get([]byte("hello"))
			if err != nil || string(v) != "world" {
				t.Fatalf("Get = %q, %v", v, err)
			}
			if _, err := db.Get([]byte("missing")); !errors.Is(err, ldc.ErrNotFound) {
				t.Fatalf("missing key: %v", err)
			}
			if err := db.Delete([]byte("hello")); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Get([]byte("hello")); !errors.Is(err, ldc.ErrNotFound) {
				t.Fatalf("deleted key: %v", err)
			}
		})
	}
}

func TestPublicBatchAndScan(t *testing.T) {
	db := openMem(t, ldc.PolicyLDC)
	defer db.Close()

	b := ldc.NewBatch()
	for i := 0; i < 10; i++ {
		b.Set([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	pairs, err := db.Scan([]byte("k03"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 || string(pairs[0].Key) != "k03" || string(pairs[3].Key) != "k06" {
		t.Fatalf("Scan = %v", pairs)
	}
}

func TestPublicIteratorAndSnapshot(t *testing.T) {
	db := openMem(t, ldc.PolicyLDC)
	defer db.Close()
	db.Put([]byte("a"), []byte("1"))
	snap, err := db.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	db.Put([]byte("a"), []byte("2"))
	db.Put([]byte("b"), []byte("3"))

	it, err := db.NewIterator(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	it.SeekToFirst()
	if !it.Valid() || string(it.Key()) != "a" || string(it.Value()) != "1" {
		t.Fatalf("snapshot iterator: %q=%q", it.Key(), it.Value())
	}
	it.Next()
	if it.Valid() {
		t.Fatal("snapshot iterator sees post-snapshot key")
	}
}

func TestPublicStatsAndProfile(t *testing.T) {
	db := openMem(t, ldc.PolicyLDC)
	defer db.Close()
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i%1000)), make([]byte, 64))
	}
	db.CompactRange()
	s := db.Stats()
	if s.Puts != 3000 || s.FlushCount == 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.WriteAmplification() <= 1 {
		t.Errorf("write amp = %.2f", s.WriteAmplification())
	}
	prof := db.CurrentProfile()
	if len(prof.Levels) == 0 || prof.SliceThreshold == 0 {
		t.Errorf("profile = %+v", prof)
	}
}

func TestPublicSimulatedSSD(t *testing.T) {
	p := ldc.DefaultSSDProfile()
	p.Scale = 0
	fs, dev := ldc.NewSimulatedSSD(ldc.MemFS(), p)
	db, err := ldc.Open("/db", &ldc.Options{FS: fs, MemTableSize: 8 << 10, SSTableSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, 100))
	}
	db.CompactRange()
	stats := dev.Snapshot()
	if stats.Totals().WriteBytes == 0 {
		t.Error("simulated device recorded no writes")
	}
	if stats.FlushWrite() == 0 {
		t.Error("no flush-category writes recorded")
	}
}

// TestPublicSharded exercises the sharded facade through the public API:
// routing, cross-shard scan merge, persistence across reopen, and the
// aggregated Stats view.
func TestPublicSharded(t *testing.T) {
	fs := ldc.MemFS()
	opts := &ldc.Options{
		FS:           fs,
		Policy:       ldc.PolicyLDC,
		MemTableSize: 16 << 10,
		SSTableSize:  16 << 10,
		Fanout:       4,
		Shards:       4,
	}
	db, err := ldc.Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}

	const n = 400
	b := ldc.NewBatch()
	for i := 0; i < n; i++ {
		b.Set([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	pairs, err := db.Scan(nil, n+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != n {
		t.Fatalf("Scan over 4 shards returned %d keys, want %d", len(pairs), n)
	}
	for i, kv := range pairs {
		if want := fmt.Sprintf("k%04d", i); string(kv.Key) != want {
			t.Fatalf("Scan[%d] = %q, want %q (merge order broken)", i, kv.Key, want)
		}
	}
	// The batch fanned out: every shard committed a sub-batch, and the
	// aggregated Stats fold those per-shard counters together.
	if s := db.Stats(); s.WriteBatchesTotal < 4 || s.UserWriteBytes == 0 {
		t.Errorf("aggregated Stats = batches %d, user bytes %d; want fan-out across 4 shards",
			s.WriteBatchesTotal, s.UserWriteBytes)
	}
	db.Close()

	// Shards=0 adopts the on-disk partitioning.
	reopened, err := ldc.Open("/db", &ldc.Options{FS: fs, Policy: ldc.PolicyLDC})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.NumShards(); got != 4 {
		t.Fatalf("reopen NumShards = %d, want 4", got)
	}
	v, err := reopened.Get([]byte("k0123"))
	if err != nil || string(v) != "v123" {
		t.Fatalf("after sharded reopen: %q, %v", v, err)
	}
}

func TestPublicPersistence(t *testing.T) {
	fs := ldc.MemFS()
	opts := &ldc.Options{FS: fs, Policy: ldc.PolicyLDC, MemTableSize: 8 << 10, SSTableSize: 8 << 10}
	db, err := ldc.Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Close()

	db2, err := ldc.Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, err := db2.Get([]byte("k0123"))
	if err != nil || string(v) != "v123" {
		t.Fatalf("after reopen: %q, %v", v, err)
	}
}
