package tracefs_test

import (
	"fmt"
	"testing"
	"time"

	"repro/bench/span"
	"repro/bench/tracefs"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/ssdsim"
	"repro/internal/vfs"
)

// The engine tags its I/O by type-asserting Options.FS to *ssdsim.FS, so the
// tracing filesystem must sit below the simulator. With it there, the device
// still sees every category and the wrapper sees every file class.
func TestDeviceCategoriesSurviveTheWrapper(t *testing.T) {
	tfs := tracefs.New(vfs.Mem())
	rec := span.New()
	tfs.Trace(rec, 4)
	prof := ssdsim.DefaultProfile()
	prof.Scale = 0 // accounting only
	dev := ssdsim.NewDevice(prof)
	db, err := core.Open("db", core.Options{
		FS: ssdsim.Wrap(tfs, dev), Policy: compaction.LDC,
		MemTableSize: 16 << 10, SSTableSize: 16 << 10, Fanout: 4, SliceLinkThreshold: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 256)
	for i := 0; i < 4000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i*7919%4000)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	for i := 0; i < 4000; i += 37 {
		if _, err := db.Get([]byte(fmt.Sprintf("k%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	ds := dev.Snapshot()
	for _, c := range []ssdsim.Category{ssdsim.CatWAL, ssdsim.CatFlush, ssdsim.CatCompactionWrite, ssdsim.CatOther} {
		if ds.ByCategory[c].WriteBytes == 0 {
			t.Errorf("device category %v wrote 0 bytes: the engine no longer sees *ssdsim.FS", c)
		}
	}
	for _, c := range []ssdsim.Category{ssdsim.CatCompactionRead, ssdsim.CatUserRead} {
		if ds.ByCategory[c].ReadBytes == 0 {
			t.Errorf("device category %v read 0 bytes", c)
		}
	}

	fc := tfs.Snapshot()
	var written int64
	for _, c := range []tracefs.Class{tracefs.WAL, tracefs.SST, tracefs.Manifest} {
		if fc[c].WriteBytes == 0 || fc[c].Creates == 0 {
			t.Errorf("class %v: %+v, want writes and creates", c, fc[c])
		}
	}
	for _, c := range fc {
		written += c.WriteBytes
	}
	if got := ds.Totals().WriteBytes; got != written {
		t.Errorf("device saw %d bytes written, tracing FS %d: they wrap the same calls", got, written)
	}
	if fc[tracefs.SST].ReadOps == 0 || fc[tracefs.SST].Removes == 0 {
		t.Errorf("sst class: %+v, want reads and removes", fc[tracefs.SST])
	}
	if fc[tracefs.Vlog] != (tracefs.ClassCounters{}) {
		t.Errorf("vlog class: %+v, want nothing without value separation", fc[tracefs.Vlog])
	}
	if total, ok := vfs.TotalBytes(tfs); !ok || total == 0 {
		t.Errorf("vfs.TotalBytes through the wrapper = %d, %v", total, ok)
	}
	if rec.Len() == 0 {
		t.Error("no spans recorded")
	}
}

func TestClassifyAndSyncCost(t *testing.T) {
	for name, want := range map[string]tracefs.Class{
		"db/000012.log": tracefs.WAL, "db/wal/SHARD-1-000003.log": tracefs.WAL,
		"db/shard-0/000007.sst": tracefs.SST, "db/vlog/VLOG-0-000001.vlog": tracefs.Vlog,
		"db/MANIFEST-000002": tracefs.Manifest, "db/CURRENT": tracefs.Manifest, "db/000004.tmp": tracefs.Manifest,
		"db/LDC_SHARDS": tracefs.Other,
	} {
		if got := tracefs.Classify(name); got != want {
			t.Errorf("Classify(%q) = %v, want %v", name, got, want)
		}
	}

	tfs := tracefs.New(vfs.Mem())
	tfs.SetSyncCost(2 * time.Millisecond)
	for name, charged := range map[string]bool{"a.log": true, "b.vlog": true, "c.sst": false, "MANIFEST-000001": false} {
		f, err := tfs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); charged != (d >= 2*time.Millisecond) {
			t.Errorf("Sync(%s) took %v, charged want %v", name, d, charged)
		}
	}
	if got := tfs.Snapshot()[tracefs.WAL]; got.Syncs != 1 || got.SyncNanos < int64(2*time.Millisecond) {
		t.Errorf("wal sync tally %+v", got)
	}
}
