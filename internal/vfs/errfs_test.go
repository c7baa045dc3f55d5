package vfs

import (
	"errors"
	"io"
	"testing"
)

var errBoom = errors.New("boom")

func TestErrFSPassthroughWhenDisarmed(t *testing.T) {
	fs := NewErrFS(Mem())
	f, err := fs.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if !fs.Exists("/x") {
		t.Error("file missing")
	}
	if fs.WriteOps() == 0 {
		t.Error("write ops not counted")
	}
}

func TestErrFSFailsAfterCountdown(t *testing.T) {
	fs := NewErrFS(Mem())
	fs.FailAfterWrites(2, errBoom)

	f, err := fs.Create("/x") // 1st write op
	if err != nil {
		t.Fatalf("create within budget failed: %v", err)
	}
	if _, err := f.Write([]byte("ok")); err != nil { // 2nd
		t.Fatalf("write within budget failed: %v", err)
	}
	if _, err := f.Write([]byte("fails")); !errors.Is(err, errBoom) { // 3rd
		t.Fatalf("write past budget err = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, errBoom) {
		t.Fatalf("sync past budget err = %v", err)
	}
	if _, err := fs.Create("/y"); !errors.Is(err, errBoom) {
		t.Fatalf("create past budget err = %v", err)
	}
	if err := fs.Rename("/x", "/z"); !errors.Is(err, errBoom) {
		t.Fatalf("rename past budget err = %v", err)
	}
	if err := fs.Remove("/x"); !errors.Is(err, errBoom) {
		t.Fatalf("remove past budget err = %v", err)
	}

	// Reads still work for recovery.
	r, err := fs.Open("/x")
	if err != nil {
		t.Fatalf("read after failure: %v", err)
	}
	buf := make([]byte, 2)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt after failure: %v", err)
	}

	fs.Disarm()
	if _, err := fs.Create("/y"); err != nil {
		t.Fatalf("create after disarm: %v", err)
	}
}

func TestErrFSUnwraps(t *testing.T) {
	inner := Mem()
	fs := NewErrFS(inner)
	f, _ := fs.Create("/x")
	f.Write(make([]byte, 10))
	_ = f.Close()
	got, ok := TotalBytes(fs)
	if !ok || got != 10 {
		t.Errorf("TotalBytes through ErrFS = %d, %v", got, ok)
	}
}

func TestSyncHookObservesSyncs(t *testing.T) {
	efs := NewErrFS(Mem())
	var synced []string
	efs.SetSyncHook(func(name string) error { synced = append(synced, name); return nil })
	f, err := efs.Create("/dir/a.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("x"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != "/dir/a.log" {
		t.Fatalf("hook saw %v, want [/dir/a.log]", synced)
	}
	// An error from the hook fails the sync of the file it names, and only
	// that file's; the failed sync is not a counted write operation.
	boom := errors.New("injected sync failure")
	efs.SetSyncHook(func(name string) error {
		if name == "/dir/a.log" {
			return boom
		}
		return nil
	})
	g, err := efs.Create("/dir/b.log")
	if err != nil {
		t.Fatal(err)
	}
	ops := efs.WriteOps()
	if err := f.Sync(); err != boom {
		t.Fatalf("sync of the named file = %v, want the injected error", err)
	}
	if got := efs.WriteOps(); got != ops {
		t.Fatalf("failed sync counted as a write op: %d -> %d", ops, got)
	}
	if err := g.Sync(); err != nil {
		t.Fatalf("sync of another file = %v, want nil", err)
	}
	efs.SetSyncHook(nil)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 {
		t.Fatalf("hook fired after removal: %v", synced)
	}
}

func TestTearFileTruncatesTail(t *testing.T) {
	efs := NewErrFS(Mem())
	f, err := efs.Create("/t")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("0123456789"))
	_ = f.Close()
	if err := efs.TearFile("/t", 4); err != nil {
		t.Fatal(err)
	}
	g, err := efs.Open("/t")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	size, _ := g.Size()
	if size != 6 {
		t.Fatalf("size after tear = %d, want 6", size)
	}
	buf := make([]byte, 6)
	g.ReadAt(buf, 0)
	if string(buf) != "012345" {
		t.Fatalf("content after tear = %q", buf)
	}
	// Tearing more than the file holds empties it rather than erroring.
	if err := efs.TearFile("/t", 100); err != nil {
		t.Fatal(err)
	}
	g2, _ := efs.Open("/t")
	if size, _ := g2.Size(); size != 0 {
		t.Fatalf("size after over-tear = %d, want 0", size)
	}
	_ = g2.Close()
}

func TestErrFSReadHookFailsAndShortens(t *testing.T) {
	fs := NewErrFS(Mem())
	f, _ := fs.Create("/x")
	_, _ = f.Write([]byte("0123456789"))
	_ = f.Close()
	r, err := fs.Open("/x")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 4)

	fs.SetReadHook(func(name string, off int64, n int) (int, error) {
		if name != "/x" {
			t.Errorf("hook saw %q", name)
		}
		switch off {
		case 2:
			return n / 2, nil // shorten
		case 4:
			return 0, errBoom // fail
		}
		return n, nil
	})
	if n, err := r.ReadAt(buf, 0); n != 4 || err != nil || string(buf) != "0123" {
		t.Fatalf("untouched read = %d %v %q", n, err, buf)
	}
	if n, err := r.ReadAt(buf, 2); n != 2 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("shortened read = %d %v, want 2 bytes and io.ErrUnexpectedEOF", n, err)
	}
	if n, err := r.ReadAt(buf, 4); n != 0 || !errors.Is(err, errBoom) {
		t.Fatalf("failed read = %d %v", n, err)
	}
	fs.SetReadHook(nil)
	if n, err := r.ReadAt(buf, 4); n != 4 || err != nil {
		t.Fatalf("read after the hook is removed = %d %v", n, err)
	}
}

func TestRemoveHookFailsRemove(t *testing.T) {
	efs := NewErrFS(Mem())
	for _, name := range []string{"/dir/a.log", "/dir/b.log"} {
		f, err := efs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	boom := errors.New("injected remove failure")
	efs.SetRemoveHook(func(name string) error {
		if name == "/dir/a.log" {
			return boom
		}
		return nil
	})
	if err := efs.Remove("/dir/a.log"); err != boom {
		t.Fatalf("Remove of the named file = %v, want the injected error", err)
	}
	if !efs.Exists("/dir/a.log") {
		t.Fatal("a failed Remove deleted the file")
	}
	if err := efs.Remove("/dir/b.log"); err != nil || efs.Exists("/dir/b.log") {
		t.Fatalf("Remove of another file = %v, exists %v", err, efs.Exists("/dir/b.log"))
	}
	efs.SetRemoveHook(nil)
	if err := efs.Remove("/dir/a.log"); err != nil || efs.Exists("/dir/a.log") {
		t.Fatalf("Remove after the hook is gone = %v", err)
	}
}
