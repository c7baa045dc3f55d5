// Package mutexio_wrapped_fire holds I/O under invariants.Mutex wrappers.
// Converting a field from sync.Mutex to the ranked wrapper must not silence
// mutexio — the wrapper is the same lock with bookkeeping attached.
package mutexio_wrapped_fire

import (
	"invariants"
	"vfs"
)

type store struct {
	mu invariants.Mutex
	rw invariants.RWMutex
	f  *vfs.File
	fs *vfs.FS
}

func (s *store) syncUnderWrappedLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync() // want `call to \(vfs.File\).Sync while "s.mu" is held`
}

func (s *store) removeUnderWrappedRLock() {
	s.rw.RLock()
	_ = s.fs.Remove("x") // want `call to \(vfs.FS\).Remove while "s.rw" is held`
	s.rw.RUnlock()
}
