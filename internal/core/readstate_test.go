package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/compaction"
)

// TestReadStateChurn hammers the lock-free read path — point gets and full
// iterators — from 8 goroutines while concurrent writers force memtable
// rotations, flushes, links, merges and the deletion of the files they make
// obsolete. Run with -race it verifies that Get/GetAt/NewIterator touch no
// mutable shared state without synchronization, and it exercises the
// loadReadState retry/unref protocol against republication. Run with -tags
// invariants as well (make invariants does, at -cpu 1,2,4) it is the proof of
// the reader-on-meta lifetime rule: a closed sstable.Reader traps any later
// probe, so a pointer cached on a version's file meta that outlived the
// file's eviction cannot go unnoticed. Every key is written as
// key-i => val-i-..., so any read that returns a torn or misrouted value
// fails loudly.
func TestReadStateChurn(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					opts := smallOpts(policy)
					opts.Shards = shards
					churnReadState(t, openTestDB(t, opts))
				})
			}
		})
	}
}

func churnReadState(t *testing.T, db *DB) {
	defer db.Close()
	const (
		keys          = 1024
		putsPerWriter = 4000
	)
	pad := strings.Repeat("x", 64)
	churnKey := func(i int) []byte { return []byte(fmt.Sprintf("churn-%06d", i)) }
	// Seed every key so readers always find something.
	for i := 0; i < keys; i++ {
		if err := db.Put(churnKey(i), []byte(fmt.Sprintf("val-%06d-seed", i))); err != nil {
			t.Fatal(err)
		}
	}

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	fail := make(chan error, 16)

	// 2 writers churn values (and the read state, via flushes and the
	// compactions they trigger).
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < putsPerWriter; round++ {
				i := rng.Intn(keys)
				val := fmt.Sprintf("val-%06d-w%d-%d-%s", i, w, round, pad)
				if err := db.Put(churnKey(i), []byte(val)); err != nil {
					fail <- err
					return
				}
			}
		}(w)
	}

	// 8 readers: 6 doing point gets, 2 scanning with iterators.
	for r := 0; r < 6; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				i := rng.Intn(keys)
				val, err := db.Get(churnKey(i))
				if err != nil {
					fail <- fmt.Errorf("Get(%d): %w", i, err)
					return
				}
				want := fmt.Sprintf("val-%06d-", i)
				if len(val) < len(want) || string(val[:len(want)]) != want {
					fail <- fmt.Errorf("Get(%d) = %q: wrong key's value", i, val)
					return
				}
			}
		}(r)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				it, err := db.NewIterator(nil)
				if err != nil {
					fail <- err
					return
				}
				n := 0
				var last []byte
				for it.SeekToFirst(); it.Valid(); it.Next() {
					if last != nil && string(it.Key()) <= string(last) {
						fail <- fmt.Errorf("iterator out of order: %q after %q", it.Key(), last)
						it.Close()
						return
					}
					last = append(last[:0], it.Key()...)
					n++
				}
				err = it.Close()
				if err != nil {
					fail <- err
					return
				}
				if n < keys {
					fail <- fmt.Errorf("iterator saw %d keys, want >= %d", n, keys)
					return
				}
			}
		}()
	}

	// The readers run until the writers have pushed their puts through the
	// tree; every reader failure is a test failure.
	writers.Wait()
	db.WaitIdle()
	close(done)
	readers.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	// The churn must have been one: tables flushed, rewritten (through link
	// and merge under LDC) and deleted under the readers, in every shard.
	for i, s := range db.ShardStats() {
		if s.ReadStatePublishes < 2 || s.FlushCount == 0 || s.ObsoleteDeleted == 0 {
			t.Errorf("shard %d: %d publishes, %d flushes, %d files deleted: no churn", i, s.ReadStatePublishes, s.FlushCount, s.ObsoleteDeleted)
		}
		if db.opts.Policy == compaction.LDC && (s.LinkCount == 0 || s.MergeCount == 0) {
			t.Errorf("shard %d: %d links, %d merges: LDC never linked and merged", i, s.LinkCount, s.MergeCount)
		}
	}
}

// TestSnapshotConsistencyAcrossCompaction is the snapshot regression test:
// reads pinned at an old sequence must stay stable while compactions rewrite
// and drop the files they were originally served from.
func TestSnapshotConsistencyAcrossCompaction(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			db := openTestDB(t, smallOpts(policy))
			defer db.Close()

			const n = 400
			snapKey := func(i int) []byte { return []byte(fmt.Sprintf("snap-%06d", i)) }
			for i := 0; i < n; i++ {
				if err := db.Put(snapKey(i), []byte(fmt.Sprintf("old-%06d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CompactRange(); err != nil {
				t.Fatal(err)
			}

			snap, err := db.NewSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			// An iterator opened at the snapshot, before the overwrites.
			it, err := db.NewIterator(snap)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()

			// Overwrite everything (and delete a band) after the snapshot,
			// then force compactions to drop the snapshot-era tables from the
			// latest version.
			for i := 0; i < n; i++ {
				if err := db.Put(snapKey(i), []byte(fmt.Sprintf("new-%06d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i += 4 {
				if err := db.Delete(snapKey(i)); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 3; round++ {
				if err := db.CompactRange(); err != nil {
					t.Fatal(err)
				}
			}

			// Point reads at the snapshot still see the old values.
			for i := 0; i < n; i += 7 {
				val, err := db.GetAt(snapKey(i), snap)
				if err != nil {
					t.Fatalf("GetAt(%d) at snapshot: %v", i, err)
				}
				if want := fmt.Sprintf("old-%06d", i); string(val) != want {
					t.Fatalf("GetAt(%d) at snapshot = %q, want %q", i, val, want)
				}
			}
			// And the latest view sees the overwrites and deletes.
			if _, err := db.Get(snapKey(0)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key visible at head: %v", err)
			}
			if val, _ := db.Get(snapKey(1)); string(val) != fmt.Sprintf("new-%06d", 1) {
				t.Fatalf("latest read = %q", val)
			}

			// The pre-compaction iterator walks the snapshot state unharmed:
			// every surviving key yields its old value.
			i := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if want := string(snapKey(i)); string(it.Key()) != want {
					t.Fatalf("iterator key %q, want %q", it.Key(), want)
				}
				if want := fmt.Sprintf("old-%06d", i); string(it.Value()) != want {
					t.Fatalf("iterator value %q, want %q", it.Value(), want)
				}
				i++
			}
			if err := it.Error(); err != nil {
				t.Fatal(err)
			}
			if i != n {
				t.Fatalf("iterator saw %d keys, want %d", i, n)
			}
		})
	}
}
