//go:build invariants

package invariants

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// The runtime lock-rank validator: every ranked mutex acquisition is pushed
// onto a per-goroutine stack, and acquiring a lock whose rank is not
// strictly greater than the innermost held lock's rank panics with both
// acquisition contexts. It is the lock-order discipline's only checker: a
// static one cannot follow calls through an interface such as vfs.FS, which
// is how the engine reaches the filesystem's and the device's locks. Ranks
// must strictly increase inward so that the global acquisition graph stays
// acyclic; see DESIGN.md's "Lock order" catalog for the ranked inventory.

// Mutex is a sync.Mutex that validates the declared lock ranking on every
// acquisition. Zero-value Mutexes (Rank never called) are usable but
// untracked, so test fixtures that construct structs directly keep working.
type Mutex struct {
	sync.Mutex
	name string
	rank int
	g    uint64 // the holder's goroutine, so Unlock need not look it up again
}

// Rank declares the lock's name and rank for the runtime validator. Call
// once, at construction, before the mutex is shared.
func (m *Mutex) Rank(name string, rank int) { m.name, m.rank = name, rank }

// Lock acquires the mutex and records it on the goroutine's held stack.
func (m *Mutex) Lock() {
	m.Mutex.Lock()
	m.g = lockAcquired(m.name, m.rank)
}

// Unlock removes the mutex from the held stack and releases it.
func (m *Mutex) Unlock() {
	lockReleased(m.g, m.name)
	m.Mutex.Unlock()
}

// RWMutex is the read-write counterpart of Mutex. Read and write
// acquisitions share the lock's single rank: a read lock nests exactly
// where a write lock may, because a queued writer makes even read-read
// cycles deadlock.
type RWMutex struct {
	sync.RWMutex
	name string
	rank int
	g    uint64 // the writer's goroutine, as Mutex.g; readers look theirs up
}

// Rank declares the lock's name and rank for the runtime validator.
func (m *RWMutex) Rank(name string, rank int) { m.name, m.rank = name, rank }

func (m *RWMutex) Lock() {
	m.RWMutex.Lock()
	m.g = lockAcquired(m.name, m.rank)
}

func (m *RWMutex) Unlock() {
	lockReleased(m.g, m.name)
	m.RWMutex.Unlock()
}

func (m *RWMutex) RLock() {
	m.RWMutex.RLock()
	LockAcquired(m.name, m.rank)
}

func (m *RWMutex) RUnlock() {
	LockReleased(m.name)
	m.RWMutex.RUnlock()
}

// heldLock is one entry on a goroutine's held stack.
type heldLock struct {
	name string
	rank int
}

// lockState is the global held-stack table. Its own mutex is a plain
// sync.Mutex, deliberately outside the ranked universe: it is acquired
// inside every tracked acquisition and held across no other lock.
var lockState struct {
	sync.Mutex
	held map[uint64][]heldLock
}

// LockAcquired records that the calling goroutine acquired the named lock,
// panicking if the acquisition inverts the declared ranking: a newly
// acquired lock's rank must be strictly greater than the innermost held
// lock's. Empty names (zero-value wrappers) are ignored.
func LockAcquired(name string, rank int) { lockAcquired(name, rank) }

// lockAcquired is LockAcquired, returning the calling goroutine's id (0 for
// an untracked lock): goid walks the whole stack, so a lock that knows its
// holder hands the id back to lockReleased instead of paying for it twice.
func lockAcquired(name string, rank int) uint64 {
	if name == "" {
		return 0
	}
	g := goid()
	lockState.Lock()
	defer lockState.Unlock()
	if lockState.held == nil {
		lockState.held = map[uint64][]heldLock{}
	}
	stack := lockState.held[g]
	if n := len(stack); n > 0 {
		top := stack[n-1]
		if rank <= top.rank {
			panic(fmt.Sprintf(
				"invariant violated: lock-rank inversion: acquiring %s (rank %d) while holding %s (rank %d); held stack: %s",
				name, rank, top.name, top.rank, describeStack(stack)))
		}
	}
	lockState.held[g] = append(stack, heldLock{name, rank})
	return g
}

// LockReleased records that the calling goroutine released the named lock.
// Unlock order need not be LIFO (releasing an outer lock first is legal and
// common), so the matching entry is removed wherever it sits. Releasing a
// lock that was never tracked is ignored: the acquisition may predate the
// Rank call during construction.
func LockReleased(name string) {
	if name != "" {
		lockReleased(goid(), name)
	}
}

// lockReleased is LockReleased for goroutine g.
func lockReleased(g uint64, name string) {
	if name == "" {
		return
	}
	lockState.Lock()
	defer lockState.Unlock()
	stack := lockState.held[g]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].name == name {
			stack = append(stack[:i], stack[i+1:]...)
			if len(stack) == 0 {
				delete(lockState.held, g)
			} else {
				lockState.held[g] = stack
			}
			return
		}
	}
}

// HeldLocks reports the calling goroutine's held ranked locks, outermost
// first.
func HeldLocks() []string {
	g := goid()
	lockState.Lock()
	defer lockState.Unlock()
	stack := lockState.held[g]
	out := make([]string, len(stack))
	for i, h := range stack {
		out[i] = h.name
	}
	return out
}

func describeStack(stack []heldLock) string {
	var b strings.Builder
	for i, h := range stack {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s(%d)", h.name, h.rank)
	}
	return b.String()
}

// goid parses the current goroutine's id from the first line of its stack
// header ("goroutine N [..."). Slow, but this whole file only exists under
// -tags invariants.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	const prefix = "goroutine "
	if len(s) < len(prefix) {
		return 0
	}
	s = s[len(prefix):]
	var id uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
