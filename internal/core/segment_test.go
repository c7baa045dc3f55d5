package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/compaction"
	"repro/internal/vfs"
)

// TestReadPointSurvivesCompaction: a read point pins its version like a
// snapshot. A newer version is written past it and both are compacted
// together; the read at the point still returns the old value, and the
// point's registration goes with the read.
func TestReadPointSurvivesCompaction(t *testing.T) {
	for _, policy := range []compaction.Policy{compaction.UDC, compaction.LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			db := openTestDB(t, smallOpts(policy))
			defer db.Close()
			k := []byte("k")
			if err := db.Put(k, []byte("old")); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			p := TakeReadPoint(db, k)
			if err := db.Put(k, []byte("new")); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if err := db.Put(key(i), value(i)); err != nil {
					t.Fatal(err)
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.CompactRange(); err != nil {
				t.Fatal(err)
			}
			if got, err := p.Read(k); err != nil || string(got) != "old" {
				t.Errorf("Read at the point = %q, %v; want \"old\"", got, err)
			}
			if n := LiveReadPoints(db); n != 0 {
				t.Errorf("%d registrations left after the read", n)
			}
		})
	}
}

// TestReadPointWaitsForPublish: a point taken while a segment is in its WAL
// fsync is past the segment's sequences; a read at it waits until the
// segment publishes and then sees it. A point on a store poisoned by that
// fsync fails with the store's error.
func TestReadPointWaitsForPublish(t *testing.T) {
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("fail=%v", fail), func(t *testing.T) {
			efs := vfs.NewErrFS(vfs.Mem())
			db := openTestDB(t, syncCommitOpts(efs))
			defer db.Close()
			var injected error
			if fail {
				injected = errors.New("injected fsync failure")
			}
			gate := newWALSyncGate(efs, injected)
			defer gate.open()

			s := NewSegment(db)
			s.Batch().Set([]byte("k"), []byte("v"))
			s.Submit() // returns with the record appended, its fsync held
			awaitSignal(t, gate.entered, "the segment's WAL fsync")
			p := TakeReadPoint(db, []byte("k"))
			read := make(chan error, 1)
			go func() {
				got, err := p.Read([]byte("k"))
				if err == nil && string(got) != "v" {
					err = fmt.Errorf("read %q, want \"v\"", got)
				}
				read <- err
			}()
			select {
			case err := <-read:
				t.Fatalf("the read returned (%v) before the segment published", err)
			case <-time.After(20 * time.Millisecond):
			}
			gate.open()
			werr := s.Wait()
			rerr := awaitSignal(t, read, "the read at the point")
			if !fail {
				if werr != nil || rerr != nil {
					t.Fatalf("Wait = %v, read = %v; want both nil", werr, rerr)
				}
			} else if !errors.Is(werr, injected) || !errors.Is(rerr, injected) {
				t.Fatalf("Wait = %v, read = %v; want both to carry the injected error", werr, rerr)
			}
			if n := LiveReadPoints(db); n != 0 {
				t.Errorf("%d registrations left after the read", n)
			}
		})
	}
}

// TestReadPointAndSegmentAfterClose: on a closed store, at one shard and at
// two, a segment's Submit returns — every shard commit is told "appended" as
// the closed pipeline turns it away — and its Wait reports ErrClosed; so does
// a multi-shard Apply, which leaves its pooled scratch reusable by the next
// segment; and a read point fails its read with ErrClosed and stays
// registered only until then.
func TestReadPointAndSegmentAfterClose(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := smallOpts(compaction.LDC)
			opts.Shards = shards
			db := openTestDB(t, opts)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			fill := func(b *batch.Batch) *batch.Batch {
				for i := 0; i < 8; i++ {
					b.Set(key(i), value(i))
				}
				return b
			}
			done := make(chan error, 1)
			go func() {
				err := db.Apply(fill(batch.New()))
				if !errors.Is(err, ErrClosed) {
					done <- fmt.Errorf("Apply = %v, want ErrClosed", err)
					return
				}
				for range 3 {
					s := NewSegment(db)
					fill(s.Batch())
					s.Submit()
					if err := s.Wait(); !errors.Is(err, ErrClosed) {
						done <- fmt.Errorf("Wait = %v, want ErrClosed", err)
						return
					}
				}
				done <- nil
			}()
			if err := awaitSignal(t, done, "Submit and Wait on the closed store"); err != nil {
				t.Fatal(err)
			}
			p := TakeReadPoint(db, key(0))
			if _, err := p.Read(key(0)); !errors.Is(err, ErrClosed) {
				t.Errorf("Read = %v, want ErrClosed", err)
			}
			if n := LiveReadPoints(db); n != 0 {
				t.Errorf("%d registrations left after the read", n)
			}
		})
	}
}

// TestSyncCommitSkipsVlogSyncWithoutValues: group A separates a value and its
// value-log fsync is held open. Group B, with no separated value, commits
// behind it: B's WAL fsync runs, B issues no value-log fsync, and B publishes
// after A.
func TestSyncCommitSkipsVlogSyncWithoutValues(t *testing.T) {
	efs := vfs.NewErrFS(vfs.Mem())
	db := openTestDB(t, syncCommitOpts(efs))
	defer db.Close()
	st := db.shards[0]
	var vlogSyncs atomic.Int32
	entered, release := make(chan struct{}, 1), make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	defer open()
	efs.SetSyncHook(func(name string) error {
		if strings.HasSuffix(name, ".vlog") && vlogSyncs.Add(1) == 1 {
			entered <- struct{}{}
			<-release
		}
		return nil
	})

	walSyncs := st.stats.WALSyncCount.Load()
	aDone, bDone := make(chan error, 1), make(chan error, 1)
	go func() { aDone <- db.Put([]byte("blob"), blobValue(1, 200)) }()
	awaitSignal(t, entered, "group A's value-log fsync")
	go func() { bDone <- db.Put([]byte("inline"), []byte("v")) }()
	eventually(t, "both groups' WAL fsyncs to return", func() bool {
		return st.stats.WALSyncCount.Load() >= walSyncs+2
	})
	if n := vlogSyncs.Load(); n != 1 {
		t.Fatalf("%d value-log fsyncs with one group holding separated values", n)
	}
	select {
	case err := <-bDone:
		t.Fatalf("B returned (%v) before A's value-log fsync did", err)
	default:
	}
	open()
	if err := awaitSignal(t, aDone, "A's Put"); err != nil {
		t.Fatal(err)
	}
	if err := awaitSignal(t, bDone, "B's Put"); err != nil {
		t.Fatal(err)
	}
	if n := vlogSyncs.Load(); n != 1 {
		t.Fatalf("%d value-log fsyncs, want 1", n)
	}
	for k, want := range map[string][]byte{"blob": blobValue(1, 200), "inline": []byte("v")} {
		if got, err := db.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get %s = %.20q, %v", k, got, err)
		}
	}
}
