package vfs

import (
	"errors"
	"io"
	"sync/atomic"

	"repro/internal/invariants"
)

// errOutOfRange reports a FlipBit offset outside the file.
var errOutOfRange = errors.New("vfs: flip offset out of range")

// ErrFS wraps a filesystem with fault injection for crash and error-path
// testing: operations can be made to fail after a countdown, and writes can
// be "torn" (silently truncated) to emulate a crash mid-write.
type ErrFS struct {
	inner FS

	// failAfter counts down on every write-class operation; when it
	// reaches zero, every subsequent mutating operation returns FailErr.
	failAfter atomic.Int64
	armed     atomic.Bool

	// FailErr is the injected error (required when arming).
	FailErr error

	mu        invariants.Mutex
	writeOps  int64
	syncHook  func(name string) error // consulted at the top of every File.Sync
	rmHook    func(name string) error // consulted at the top of every Remove
	readHook  func(name string, off int64, n int) (int, error)
	tornFiles map[string]int // name -> bytes to drop from the tail at Close
}

// NewErrFS wraps inner. The returned filesystem behaves identically until
// a fault is armed.
func NewErrFS(inner FS) *ErrFS {
	e := &ErrFS{inner: inner, tornFiles: map[string]int{}}
	e.mu.Rank("vfs.errfs.mu", 78)
	return e
}

// Inner returns the wrapped filesystem.
func (e *ErrFS) Inner() FS { return e.inner }

// FailAfterWrites arms the fault: after n more successful write-class
// operations (Create, Write, Sync, Rename, Remove), every further one
// fails with err.
func (e *ErrFS) FailAfterWrites(n int64, err error) {
	e.FailErr = err
	e.failAfter.Store(n)
	e.armed.Store(true)
}

// Disarm cancels fault injection.
func (e *ErrFS) Disarm() { e.armed.Store(false) }

// SetSyncHook installs fn, called with the file's name at the start of every
// File.Sync before fault accounting or delegation. Tests use it to delay or
// block fsyncs (e.g. to pin that reads proceed while a WAL sync is slow) and,
// by returning an error, to fail the sync of one named file: the sync then
// returns that error without reaching the file below. nil removes the hook.
func (e *ErrFS) SetSyncHook(fn func(name string) error) {
	e.mu.Lock()
	e.syncHook = fn
	e.mu.Unlock()
}

// SetRemoveHook installs fn, called with the name at the start of every
// Remove before fault accounting or delegation; an error it returns fails
// that Remove, and the file stays. nil removes the hook.
func (e *ErrFS) SetRemoveHook(fn func(name string) error) {
	e.mu.Lock()
	e.rmHook = fn
	e.mu.Unlock()
}

// SetReadHook installs fn, consulted at the top of every ReadAt of n bytes at
// off on a file opened through this filesystem. It returns how many of the n
// bytes the read may deliver and the error to fail it with: (n, nil) lets the
// read through, fewer bytes shorten it (with io.ErrUnexpectedEOF when fn gives
// no error of its own), and an error fails it after that many bytes. nil
// removes the hook.
func (e *ErrFS) SetReadHook(fn func(name string, off int64, n int) (int, error)) {
	e.mu.Lock()
	e.readHook = fn
	e.mu.Unlock()
}

// TearFile truncates drop bytes off the tail of the named file through the
// inner filesystem (no fault accounting), emulating a crash that tore the
// file mid-write. The handle that wrote the file must be closed or synced
// first so the bytes to be torn are visible below.
func (e *ErrFS) TearFile(name string, drop int) error {
	f, err := e.inner.Open(name)
	if err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		_ = f.Close()
		return err
	}
	keep := size - int64(drop)
	if keep < 0 {
		keep = 0
	}
	data := make([]byte, keep)
	if keep > 0 {
		if _, err := f.ReadAt(data, 0); err != nil {
			_ = f.Close()
			return err
		}
	}
	_ = f.Close()
	out, err := e.inner.Create(name)
	if err != nil {
		return err
	}
	if _, err := out.Write(data); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}

// FlipBit XORs one bit at byte offset off of the named file through the
// inner filesystem (no fault accounting), emulating silent media corruption
// — the fault block checksums exist to catch. Like TearFile, the handle
// that wrote the file must be closed or synced first.
func (e *ErrFS) FlipBit(name string, off int64) error {
	f, err := e.inner.Open(name)
	if err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		_ = f.Close()
		return err
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(data, 0); err != nil {
			_ = f.Close()
			return err
		}
	}
	_ = f.Close()
	if off < 0 || off >= size {
		return errOutOfRange
	}
	data[off] ^= 0x04
	out, err := e.inner.Create(name)
	if err != nil {
		return err
	}
	if _, err := out.Write(data); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}

// WriteOps reports the number of write-class operations observed.
func (e *ErrFS) WriteOps() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.writeOps
}

// step consumes one write credit, reporting whether the operation must fail.
func (e *ErrFS) step() bool {
	e.mu.Lock()
	e.writeOps++
	e.mu.Unlock()
	if !e.armed.Load() {
		return false
	}
	return e.failAfter.Add(-1) < 0
}

// Create implements FS.
func (e *ErrFS) Create(name string) (File, error) {
	if e.step() {
		return nil, e.FailErr
	}
	f, err := e.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &errFile{fs: e, f: f, name: name}, nil
}

// Open implements FS. Reads fail only through SetReadHook, never through the
// write countdown: recovery reads should see whatever survived.
func (e *ErrFS) Open(name string) (File, error) {
	f, err := e.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &errFile{fs: e, f: f, name: name}, nil
}

// Remove implements FS.
func (e *ErrFS) Remove(name string) error {
	e.mu.Lock()
	hook := e.rmHook
	e.mu.Unlock()
	if hook != nil {
		if err := hook(name); err != nil {
			return err
		}
	}
	if e.step() {
		return e.FailErr
	}
	return e.inner.Remove(name)
}

// Rename implements FS.
func (e *ErrFS) Rename(o, n string) error {
	if e.step() {
		return e.FailErr
	}
	return e.inner.Rename(o, n)
}

// Exists implements FS.
func (e *ErrFS) Exists(name string) bool { return e.inner.Exists(name) }

// List implements FS.
func (e *ErrFS) List(dir string) ([]string, error) { return e.inner.List(dir) }

// MkdirAll implements FS.
func (e *ErrFS) MkdirAll(dir string) error { return e.inner.MkdirAll(dir) }

type errFile struct {
	fs   *ErrFS
	f    File
	name string
}

func (f *errFile) Write(p []byte) (int, error) {
	if f.fs.step() {
		return 0, f.fs.FailErr
	}
	return f.f.Write(p)
}

func (f *errFile) Sync() error {
	f.fs.mu.Lock()
	hook := f.fs.syncHook
	f.fs.mu.Unlock()
	if hook != nil {
		if err := hook(f.name); err != nil {
			return err
		}
	}
	if f.fs.step() {
		return f.fs.FailErr
	}
	return f.f.Sync()
}

func (f *errFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	hook := f.fs.readHook
	f.fs.mu.Unlock()
	if hook != nil {
		if keep, err := hook(f.name, off, len(p)); err != nil || keep < len(p) {
			n, _ := f.f.ReadAt(p[:keep], off)
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return n, err
		}
	}
	return f.f.ReadAt(p, off)
}

func (f *errFile) Close() error         { return f.f.Close() }
func (f *errFile) Size() (int64, error) { return f.f.Size() }
