// Package vfs abstracts the filesystem beneath the store. Three
// implementations exist: an OS-backed filesystem for real deployments, an
// in-memory filesystem for tests, and (in package ssdsim) a simulated SSD
// that wraps either and charges device latency and I/O accounting.
//
// The interface is deliberately narrow — exactly the operations an LSM-tree
// engine performs: sequential-write file creation (SSTables, WAL, MANIFEST),
// random-access reads (SSTables), plus directory listing, rename, and remove
// for recovery and garbage collection.
package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/invariants"
)

// ErrNotExist reports an operation on a missing file.
var ErrNotExist = errors.New("vfs: file does not exist")

// File is an open file handle. Writable handles support Write/Sync;
// readable handles support ReadAt. The store never mixes modes on one
// handle.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync flushes buffered data to stable storage.
	Sync() error
	// Size reports the current file size in bytes.
	Size() (int64, error)
}

// FS is the filesystem interface.
type FS interface {
	// Create creates (truncating if present) a file for sequential writing.
	Create(name string) (File, error)
	// Open opens an existing file for random-access reads.
	Open(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically renames a file (used for MANIFEST swaps).
	Rename(oldname, newname string) error
	// Exists reports whether the named file exists.
	Exists(name string) bool
	// List returns the names (not paths) of files under dir, sorted.
	List(dir string) ([]string, error)
	// MkdirAll creates dir and parents.
	MkdirAll(dir string) error
}

// ---------------------------------------------------------------------------
// OS filesystem

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotExist
		}
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Remove(name string) error {
	if err := os.Remove(name); err != nil {
		if os.IsNotExist(err) {
			return ErrNotExist
		}
		return err
	}
	return nil
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Exists(name string) bool {
	_, err := os.Stat(name)
	return err == nil
}

func (osFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// ---------------------------------------------------------------------------
// In-memory filesystem

// Mem returns an empty in-memory filesystem. It is safe for concurrent use.
func Mem() FS {
	fs := &memFS{files: map[string]*memData{}}
	fs.mu.Rank("vfs.memfs.mu", 80)
	return fs
}

type memFS struct {
	mu    invariants.Mutex
	files map[string]*memData
	dirs  sync.Map // set of created directories
}

type memData struct {
	mu   invariants.RWMutex
	data []byte
}

func clean(name string) string { return filepath.Clean(name) }

func (fs *memFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d := &memData{}
	d.mu.Rank("vfs.memdata.mu", 82)
	fs.files[clean(name)] = d
	return &memFile{fs: fs, d: d}, nil
}

func (fs *memFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[clean(name)]
	if !ok {
		return nil, ErrNotExist
	}
	return &memFile{fs: fs, d: d}, nil
}

func (fs *memFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[clean(name)]; !ok {
		return ErrNotExist
	}
	delete(fs.files, clean(name))
	return nil
}

func (fs *memFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[clean(oldname)]
	if !ok {
		return ErrNotExist
	}
	delete(fs.files, clean(oldname))
	fs.files[clean(newname)] = d
	return nil
}

func (fs *memFS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[clean(name)]
	return ok
}

func (fs *memFS) List(dir string) ([]string, error) {
	dir = clean(dir)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var names []string
	for p := range fs.files {
		if filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *memFS) MkdirAll(dir string) error {
	fs.dirs.Store(clean(dir), struct{}{})
	return nil
}

type memFile struct {
	fs *memFS
	d  *memData
}

func (f *memFile) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	f.d.data = append(f.d.data, p...)
	f.d.mu.Unlock()
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.d.mu.RLock()
	defer f.d.mu.RUnlock()
	if off >= int64(len(f.d.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Sync() error  { return nil }

func (f *memFile) Size() (int64, error) {
	f.d.mu.RLock()
	defer f.d.mu.RUnlock()
	return int64(len(f.d.data)), nil
}

// Unwrapper is implemented by wrapping filesystems (e.g. the SSD simulator)
// to expose the filesystem they delegate to.
type Unwrapper interface {
	Inner() FS
}

// TotalBytes reports the sum of file sizes, used by space-efficiency
// experiments (Fig 15). It unwraps wrapper filesystems and is specific to
// the in-memory implementation.
func TotalBytes(fs FS) (int64, bool) {
	for {
		u, ok := fs.(Unwrapper)
		if !ok {
			break
		}
		fs = u.Inner()
	}
	m, ok := fs.(*memFS)
	if !ok {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, d := range m.files {
		d.mu.RLock()
		total += int64(len(d.data))
		d.mu.RUnlock()
	}
	return total, true
}
