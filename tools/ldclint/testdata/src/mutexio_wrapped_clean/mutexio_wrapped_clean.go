// Package mutexio_wrapped_clean releases the invariants wrapper before any
// I/O — the sanctioned shape. mutexio must stay silent.
package mutexio_wrapped_clean

import (
	"invariants"
	"vfs"
)

type store struct {
	mu invariants.Mutex
	f  *vfs.File
}

func (s *store) snapshotThenSync() error {
	s.mu.Lock()
	size := s.stateLocked()
	s.mu.Unlock()
	_ = size
	return s.f.Sync()
}

func (s *store) stateLocked() int { return 0 }
