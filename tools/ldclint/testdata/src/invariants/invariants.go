// Package invariants is a fixture stand-in for repro/internal/invariants:
// the ranked mutex wrappers, shaped like the real !invariants build. mutexio
// must treat these exactly like sync mutexes — converting a field to the
// wrapper must not silence it.
package invariants

import "sync"

type Mutex struct {
	sync.Mutex
}

func (m *Mutex) Rank(name string, rank int) {}

type RWMutex struct {
	sync.RWMutex
}

func (m *RWMutex) Rank(name string, rank int) {}
