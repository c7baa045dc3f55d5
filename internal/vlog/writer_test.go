package vlog

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vfs"
)

// heldSync makes the first segment fsync on efs block until release is
// called; entered is closed when it starts.
type heldSync struct {
	entered chan struct{}
	gate    chan struct{}
	first   sync.Once
	open    sync.Once
}

func holdFirstSync(efs *vfs.ErrFS) *heldSync {
	h := &heldSync{entered: make(chan struct{}), gate: make(chan struct{})}
	efs.SetSyncHook(func(name string) error {
		if !strings.HasSuffix(name, ".vlog") {
			return nil
		}
		held := false
		h.first.Do(func() { held = true })
		if held {
			close(h.entered)
			<-h.gate
		}
		return nil
	})
	return h
}

func (h *heldSync) release() { h.open.Do(func() { close(h.gate) }) }

// returnsWithin reports whether done delivers within d.
func returnsWithin[T any](done <-chan T, d time.Duration) bool {
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

func await[T any](t *testing.T, done <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-done:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// dirty reports whether a Sync issued now would reach the device: records
// were appended since the last one.
func dirty(w *Writer) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f != nil && w.dirty
}

// TestAppendDuringSyncKeepsDirty: the fsync runs outside the writer's lock,
// so an Append issued while a Sync is in its fsync returns at once; the Sync
// then leaves Dirty set, because the new record is not covered by it, and
// the next Sync clears it.
func TestAppendDuringSyncKeepsDirty(t *testing.T) {
	efs := vfs.NewErrFS(vfs.Mem())
	l, err := Open(efs, "vl", Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := l.NewWriter(0)
	if _, err := w.Append([]byte("a"), []byte("first")); err != nil {
		t.Fatal(err)
	}
	h := holdFirstSync(efs)
	defer h.release()
	synced := make(chan error, 1)
	go func() { synced <- w.Sync() }()
	await(t, h.entered, "the fsync to start")

	appended := make(chan error, 1)
	go func() {
		_, err := w.Append([]byte("b"), []byte("second"))
		appended <- err
	}()
	if !returnsWithin(appended, 10*time.Second) {
		t.Fatal("Append blocked behind an in-flight Sync")
	}
	if !dirty(w) {
		t.Fatal("Dirty false with a record appended during the fsync")
	}
	h.release()
	if err := await(t, synced, "Sync"); err != nil {
		t.Fatal(err)
	}
	if !dirty(w) {
		t.Fatal("a Sync cleared Dirty although a record landed during its fsync")
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if dirty(w) {
		t.Fatal("Dirty still set after a Sync that covered every append")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRotationAndCloseWaitForSync: sealing a segment closes the file a
// running Sync holds, so a rotating Append and Close both wait until that
// Sync has returned; every record stays readable.
func TestRotationAndCloseWaitForSync(t *testing.T) {
	for _, step := range []string{"rotate", "close"} {
		t.Run(step, func(t *testing.T) {
			efs := vfs.NewErrFS(vfs.Mem())
			l, err := Open(efs, "vl", Options{SegmentSize: 256})
			if err != nil {
				t.Fatal(err)
			}
			w := l.NewWriter(0)
			val := bytes.Repeat([]byte{7}, 200)
			// Two records take the segment past its size, so the next
			// append rotates.
			var ptrs []Pointer
			for _, k := range []string{"k0", "k1"} {
				p, err := w.Append([]byte(k), val)
				if err != nil {
					t.Fatal(err)
				}
				ptrs = append(ptrs, p)
			}
			h := holdFirstSync(efs)
			defer h.release()
			synced := make(chan error, 1)
			go func() { synced <- w.Sync() }()
			await(t, h.entered, "the fsync to start")

			done := make(chan error, 1)
			var p2 Pointer
			go func() {
				if step == "close" {
					done <- w.Close()
					return
				}
				var err error
				p2, err = w.Append([]byte("k2"), val) // the segment is full: rotates
				done <- err
			}()
			if returnsWithin(done, 20*time.Millisecond) {
				t.Fatalf("%s finished while a Sync was still in its fsync", step)
			}
			h.release()
			if err := await(t, synced, "Sync"); err != nil {
				t.Fatal(err)
			}
			if err := await(t, done, step); err != nil {
				t.Fatal(err)
			}
			r := l.GetReader()
			defer r.Release()
			if step == "rotate" {
				if p2.Segment == ptrs[0].Segment {
					t.Fatal("the append past the segment size did not rotate")
				}
				ptrs = append(ptrs, p2)
			}
			for i, p := range ptrs {
				if _, v, err := r.Read(p); err != nil || !bytes.Equal(v, val) {
					t.Fatalf("record %d: %v", i, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
