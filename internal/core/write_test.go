package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/compaction"
	"repro/internal/vfs"
)

// TestReadsProceedDuringSlowWALSync pins the decoupled sync stage: with
// Options.Sync set, the group leader's fsync runs outside db.mu, so reads of
// existing data must return while the WAL sync is still blocked.
func TestReadsProceedDuringSlowWALSync(t *testing.T) {
	mem := vfs.Mem()
	efs := vfs.NewErrFS(mem)
	opts := smallOpts(compaction.LDC)
	opts.FS = efs
	opts.Sync = true
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("stable"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	efs.SetSyncHook(func(name string) error {
		if !strings.HasSuffix(name, ".log") {
			return nil
		}
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return nil
	})

	writeDone := make(chan error, 1)
	go func() { writeDone <- db.Put([]byte("slow"), []byte("v")) }()
	<-entered // the write group's leader is now blocked inside fsync

	readDone := make(chan error, 1)
	go func() {
		_, err := db.Get([]byte("stable"))
		readDone <- err
	}()
	select {
	case err := <-readDone:
		if err != nil {
			t.Fatalf("read during blocked sync: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get blocked behind an in-flight WAL fsync")
	}

	close(gate)
	efs.SetSyncHook(nil)
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get([]byte("slow")); err != nil || string(v) != "v" {
		t.Fatalf("synced write not readable: %q, %v", v, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryDropsTornFinalWriteGroup tears the WAL inside the final write
// group's record and verifies recovery keeps every earlier synced group
// while dropping the torn group atomically — no member batch of it may
// survive, since its sequence range was never acknowledged as durable.
func TestRecoveryDropsTornFinalWriteGroup(t *testing.T) {
	mem := vfs.Mem()
	efs := vfs.NewErrFS(mem)
	opts := smallOpts(compaction.LDC)
	opts.FS = efs
	opts.Sync = true
	opts.MemTableSize = 1 << 20 // keep everything in the WAL
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Commit one multi-batch group directly — the same record shape the
	// pipeline forms from concurrent writers: three members, one WAL record.
	var g batch.Group
	for _, k := range []string{"g-0", "g-1", "g-2"} {
		b := batch.New()
		b.Set([]byte(k), []byte("grouped"))
		g.Add(b)
	}
	if err := db.shards[0].commitGroup(&g, true, func() {}); err != nil {
		t.Fatal(err)
	}
	db.shards[0].mu.Lock()
	logNum := db.shards[0].logNum
	db.shards[0].stopBackgroundLocked() // crash: abandon the handle without a clean Close
	db.shards[0].mu.Unlock()

	// Tear into the final group's record (well short of its full length).
	if err := efs.TearFile(db.shards[0].logFileName(logNum), 5); err != nil {
		t.Fatal(err)
	}

	opts2 := opts
	opts2.FS = mem
	db2, err := Open("/db", opts2)
	if err != nil {
		t.Fatalf("reopen after torn group: %v", err)
	}
	defer db2.Close()
	for i := 0; i < 10; i++ {
		if v, err := db2.Get(key(i)); err != nil || !bytes.Equal(v, value(i)) {
			t.Fatalf("synced group lost: key %d = %q, %v", i, v, err)
		}
	}
	for _, k := range []string{"g-0", "g-1", "g-2"} {
		if _, err := db2.Get([]byte(k)); err != ErrNotFound {
			t.Fatalf("member %s of the torn group survived (err=%v)", k, err)
		}
	}
}

// TestGroupCommitStatsSurface checks the pipeline counters reach Stats().
func TestGroupCommitStatsSurface(t *testing.T) {
	db := openTestDB(t, smallOpts(compaction.LDC))
	defer db.Close()
	for i := 0; i < 20; i++ {
		if err := db.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := db.Stats()
	if s.WriteGroupsTotal == 0 || s.WriteBatchesTotal != 20 {
		t.Fatalf("groups=%d batches=%d, want >0 groups and 20 batches",
			s.WriteGroupsTotal, s.WriteBatchesTotal)
	}
	if s.AvgGroupSize < 1 {
		t.Fatalf("avg group size = %v, want ≥ 1", s.AvgGroupSize)
	}
	if s.WriteState != "ok" {
		t.Fatalf("write state = %q, want ok at rest", s.WriteState)
	}
}

// TestPutAllocsSteadyState: a Put keeps nothing on the heap but its memtable
// bytes. With a memtable too large to rotate (so no flush, no table build and
// no version edit run behind the loop) a 1 KiB Put costs the amortised share
// of a 64 KiB record chunk, of the skiplist's slabs and of the log file's
// growth — a few hundredths of an allocation, against the batch, its grown
// payload, a writer, a group, a record, a node and a tower before. The bar
// leaves room for what the in-memory filesystem under the log does.
func TestPutAllocsSteadyState(t *testing.T) {
	if !exactAllocs {
		t.Skip("the race detector empties sync.Pool at random and the invariants build allocates in its checks")
	}
	opts := smallOpts(compaction.LDC)
	opts.MemTableSize = 256 << 20
	for _, tc := range []struct {
		name   string
		shards int
		sync   bool
	}{{"one shard", 1, false}, {"two shards, sync", 2, true}} {
		opts.FS, opts.Shards, opts.Sync = vfs.Mem(), tc.shards, tc.sync
		db := openTestDB(t, opts)
		const n = 4000
		ks := make([][]byte, n)
		for i := range ks {
			ks[i] = key(i)
		}
		v := bytes.Repeat([]byte{'v'}, 1<<10)
		put := func() {
			for _, k := range ks {
				if err := db.Put(k, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		put() // grow the pooled batch, the queue and the log writer's buffer
		perPut := testing.AllocsPerRun(3, put) / n
		t.Logf("%s: %.3f allocations per Put", tc.name, perPut)
		if perPut > 0.5 {
			t.Errorf("%s: %.3f allocations per steady-state Put, want <= 0.5", tc.name, perPut)
		}
		if got, err := db.Get(ks[n-1]); err != nil || !bytes.Equal(got, v) {
			t.Errorf("%s: Get after the Puts = %d bytes, %v", tc.name, len(got), err)
		}
		db.Close()
	}
}

// TestSeparateValuesAllocs: a warm sync commit that separates its value into
// the value log allocates no more than one that keeps it inline, so the
// separation itself allocates nothing — its rewritten batch comes from
// sepBatches and goes back once the commit returns.
func TestSeparateValuesAllocs(t *testing.T) {
	if !exactAllocs {
		t.Skip("the race detector empties sync.Pool at random and the invariants build allocates in its checks")
	}
	v := bytes.Repeat([]byte{'v'}, 1<<10)
	perPut := func(blobThreshold int64) (float64, Stats) {
		opts := smallOpts(compaction.LDC)
		opts.MemTableSize, opts.BlobSegmentSize = 256<<20, 256<<20
		opts.BlobThreshold, opts.Sync = blobThreshold, true
		db := openTestDB(t, opts)
		defer db.Close()
		i := 0
		put := func() {
			i++
			if err := db.Put(key(i%100), v); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 100; j++ { // grow the pooled batches and the log writers' buffers
			put()
		}
		return testing.AllocsPerRun(1000, put), db.Stats()
	}
	inline, _ := perPut(0)
	separated, st := perPut(64)
	if st.BlobValuesSeparated < 1000 {
		t.Fatalf("%d values separated, want every Put's", st.BlobValuesSeparated)
	}
	if separated > inline {
		t.Errorf("a sync Put that separates its value allocates %.0f times, one that does not %.0f", separated, inline)
	}
}
