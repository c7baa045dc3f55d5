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
	"repro/internal/keys"
	"repro/internal/vfs"
)

// Sync write groups are pipelined (commitGroup): a group gives the leader
// slot up once its WAL record is appended, so the next group appends and
// fsyncs while the first is still in its fsync, and groups publish in the
// order they appended. These tests hold one group's WAL fsync open and pin
// what that owes: a later group is neither visible nor acknowledged before
// the earlier one, a failed earlier group takes every later one down with
// it, and a rotation never strands a group's entries in a memtable whose WAL
// does not hold its record.

// walSyncGate makes the first WAL fsync it sees (group A's) block until the
// test releases it, and reports every WAL fsync's entry.
type walSyncGate struct {
	entered chan int      // the ordinal of each WAL fsync entered
	release chan struct{} // closed to let group A's fsync return
	result  error         // what group A's fsync returns
	n       atomic.Int32
	once    sync.Once
}

func newWALSyncGate(efs *vfs.ErrFS, result error) *walSyncGate {
	g := &walSyncGate{entered: make(chan int, 16), release: make(chan struct{}), result: result}
	efs.SetSyncHook(func(name string) error {
		if !strings.HasSuffix(name, ".log") {
			return nil
		}
		n := int(g.n.Add(1))
		g.entered <- n
		if n == 1 {
			<-g.release
			return g.result
		}
		return nil
	})
	return g
}

// open releases group A's fsync; safe to call twice, so a deferred call
// never leaves a leader parked under the test's Close.
func (g *walSyncGate) open() { g.once.Do(func() { close(g.release) }) }

// tripleBatch is a batch of three inline puts, prefix-0..2.
func tripleBatch(prefix string) *batch.Batch {
	b := batch.New()
	for i := 0; i < 3; i++ {
		b.Set([]byte(fmt.Sprintf("%s-%d", prefix, i)), []byte(prefix+"-value"))
	}
	return b
}

// TestPipelinedCommitOrder: group A's WAL fsync is held open and group B's
// returns first. B's Apply does not return, and neither LastSeq nor Get
// shows B, until A is released; then both are visible, A's range below B's.
func TestPipelinedCommitOrder(t *testing.T) {
	efs := vfs.NewErrFS(vfs.Mem())
	db := openTestDB(t, syncCommitOpts(efs))
	defer db.Close()
	st := db.shards[0]
	base := db.shards[0].set.LastSeq()

	gate := newWALSyncGate(efs, nil)
	defer gate.open()
	walSyncs := st.stats.WALSyncCount.Load()
	a, b := tripleBatch("a"), tripleBatch("b")
	aDone, bDone := make(chan error, 1), make(chan error, 1)
	go func() { aDone <- db.Apply(a) }()
	awaitSignal(t, gate.entered, "group A's WAL fsync")
	go func() { bDone <- db.Apply(b) }()
	// B forms behind A's fsync, appends, and its own fsync returns.
	awaitSignal(t, gate.entered, "group B's WAL fsync while A's is held")
	eventually(t, "group B's WAL fsync to return", func() bool {
		return st.stats.WALSyncCount.Load() > walSyncs
	})

	select {
	case err := <-bDone:
		t.Fatalf("B's Apply returned (%v) before A's fsync did", err)
	case err := <-aDone:
		t.Fatalf("A's Apply returned (%v) with its fsync held", err)
	case <-time.After(20 * time.Millisecond):
	}
	if got := db.shards[0].set.LastSeq(); got != base {
		t.Fatalf("LastSeq = %d before A published, want %d", got, base)
	}
	for _, k := range []string{"a-0", "b-0", "b-2"} {
		if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s visible before A's fsync returned (err=%v)", k, err)
		}
	}

	gate.open()
	if err := awaitSignal(t, aDone, "A's Apply"); err != nil {
		t.Fatal(err)
	}
	if err := awaitSignal(t, bDone, "B's Apply"); err != nil {
		t.Fatal(err)
	}
	if got, want := db.shards[0].set.LastSeq(), base+6; got != want {
		t.Fatalf("LastSeq = %d after both published, want %d", got, want)
	}
	for _, k := range []string{"a-0", "a-1", "a-2", "b-0", "b-1", "b-2"} {
		if _, err := db.Get([]byte(k)); err != nil {
			t.Fatalf("Get %s after both published: %v", k, err)
		}
	}
	if a.Sequence() != base+1 || b.Sequence() != base+4 {
		t.Fatalf("ranges start at A %d, B %d; want A's [%d,%d] below B's [%d,%d]",
			a.Sequence(), b.Sequence(), base+1, base+3, base+4, base+6)
	}
}

// TestPipelinedCommitFailure: group A's WAL fsync fails while group B is in
// flight behind it. Both calls return the poisoned-store error and neither
// is visible; after reopen each batch is there whole or not at all.
func TestPipelinedCommitFailure(t *testing.T) {
	errSync := errors.New("injected fsync failure")
	mem := vfs.Mem()
	efs := vfs.NewErrFS(mem)
	opts := syncCommitOpts(efs)
	db := openTestDB(t, opts)
	if err := db.Put([]byte("acked"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	gate := newWALSyncGate(efs, errSync)
	defer gate.open()
	aDone, bDone := make(chan error, 1), make(chan error, 1)
	go func() { aDone <- db.Apply(tripleBatch("a")) }()
	awaitSignal(t, gate.entered, "group A's WAL fsync")
	go func() { bDone <- db.Apply(tripleBatch("b")) }()
	awaitSignal(t, gate.entered, "group B's WAL fsync while A's is held")
	gate.open()

	aErr := awaitSignal(t, aDone, "A's Apply")
	bErr := awaitSignal(t, bDone, "B's Apply")
	if !errors.Is(aErr, errSync) || !errors.Is(bErr, errSync) {
		t.Fatalf("A = %v, B = %v; want both to carry the injected fsync error", aErr, bErr)
	}
	for _, k := range []string{"a-0", "a-2", "b-0", "b-2"} {
		if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s visible on the live handle after its group failed (err=%v)", k, err)
		}
	}
	efs.SetSyncHook(nil)
	if err := db.Put([]byte("later"), []byte("v")); !errors.Is(err, errSync) {
		t.Fatalf("write after the failure = %v, want the poisoned-store error", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	awaitSignal(t, closed, "Close of the poisoned store")

	opts.FS = mem
	db2 := openTestDB(t, opts)
	defer db2.Close()
	if v, err := db2.Get([]byte("acked")); err != nil || string(v) != "v" {
		t.Fatalf("acknowledged key after reopen: %q, %v", v, err)
	}
	for _, prefix := range []string{"a", "b"} {
		present := 0
		for i := 0; i < 3; i++ {
			switch v, err := db2.Get([]byte(fmt.Sprintf("%s-%d", prefix, i))); {
			case err == nil && string(v) == prefix+"-value":
				present++
			case !errors.Is(err, ErrNotFound):
				t.Fatalf("%s-%d after reopen: %q, %v", prefix, i, v, err)
			}
		}
		if present != 0 && present != 3 {
			t.Errorf("after reopen: %d of batch %s's 3 entries; want all or none", present, prefix)
		}
	}
}

// TestPipelinedCommitRotation: sync writers keep groups in flight (every WAL
// fsync takes a little while) while memtables fill and rotate and a forced
// rotation runs over and over. Every group must land in the memtable whose
// WAL holds its record: otherwise a flush retires that WAL while the entries
// sit in a later memtable, and a reopen loses acknowledged writes.
func TestPipelinedCommitRotation(t *testing.T) {
	mem := vfs.Mem()
	efs := vfs.NewErrFS(mem)
	opts := syncCommitOpts(efs)
	opts.MemTableSize = 4 << 10
	db := openTestDB(t, opts)
	efs.SetSyncHook(func(name string) error {
		if strings.HasSuffix(name, ".log") {
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	})

	const writers, per = 4, 150
	var wg sync.WaitGroup
	stop := make(chan struct{})
	rotations := make(chan int, 1)
	go func() {
		n := 0
		defer func() { rotations <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.shards[0].forceRotate(); err != nil {
				t.Errorf("forceRotate: %v", err)
				return
			}
			n++
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := db.Put(key(w*per+i), value(w*per+i)); err != nil {
					t.Errorf("Put %d: %v", w*per+i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if n := <-rotations; n == 0 {
		t.Fatal("no forced rotation ran")
	}
	if db.Stats().FlushCount == 0 {
		t.Fatal("no memtable was flushed: the test retired no WAL")
	}
	efs.SetSyncHook(nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	opts.FS = mem
	db2 := openTestDB(t, opts)
	defer db2.Close()
	for i := 0; i < writers*per; i++ {
		if v, err := db2.Get(key(i)); err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("acknowledged key %d after reopen: %q, %v", i, v, err)
		}
	}
	if got, want := db2.shards[0].set.LastSeq(), keys.Seq(writers*per); got < want {
		t.Fatalf("LastSeq after reopen = %d, want at least %d", got, want)
	}
}
