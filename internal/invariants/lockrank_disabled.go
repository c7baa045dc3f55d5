//go:build !invariants

package invariants

import "sync"

// Mutex is a sync.Mutex that participates in the lock-rank validator when
// built with -tags invariants. Without the tag it is exactly a sync.Mutex:
// the embedded methods are promoted untouched, Rank is an empty method the
// compiler deletes, and the struct adds no fields, so ranked call sites
// cost nothing in production builds.
//
// Lock order has no static checker: the Rank call in a lock's constructor is
// its one declaration, and the -tags invariants build checks every
// acquisition against it. TestLockCatalogIsTracked holds every struct lock
// under internal/ to a wrapper with a Rank call, no two of which share a name
// or a rank.
type Mutex struct {
	sync.Mutex
}

// Rank declares the lock's name and rank for the runtime validator. No-op
// without -tags invariants. Both must be unique across the engine, and the
// rank is the one DESIGN.md's lock-order catalog lists.
func (m *Mutex) Rank(name string, rank int) {}

// RWMutex is the read-write counterpart of Mutex.
type RWMutex struct {
	sync.RWMutex
}

// Rank declares the lock's name and rank for the runtime validator. No-op
// without -tags invariants.
func (m *RWMutex) Rank(name string, rank int) {}

// LockAcquired records that the calling goroutine acquired the named lock.
// No-op without -tags invariants. Ranked Mutex/RWMutex call it themselves;
// it is exported for locks that cannot use the wrapper types.
func LockAcquired(name string, rank int) {}

// LockReleased records that the calling goroutine released the named lock.
// No-op without -tags invariants.
func LockReleased(name string) {}

// HeldLocks reports the calling goroutine's held ranked locks, outermost
// first. Always nil without -tags invariants.
func HeldLocks() []string { return nil }
