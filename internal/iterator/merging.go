package iterator

import (
	"container/heap"
	"sync"

	"repro/internal/invariants"
)

// CompareFunc orders internal keys (see keys.InternalComparer).
type CompareFunc func(a, b []byte) int

var mergingPool = sync.Pool{New: func() interface{} { return new(mergingIter) }}

// NewMerging returns an iterator yielding the union of the children in
// sorted order. Children with equal keys are yielded in child order, so
// callers should list newer sources first (the store never produces equal
// internal keys across sources, but the tie rule keeps behaviour defined).
// Closing the merging iterator closes every child and recycles the iterator
// (they are pooled), so it must not be used after Close.
func NewMerging(cmp CompareFunc, children ...Iterator) Iterator {
	switch len(children) {
	case 0:
		return Empty(nil)
	case 1:
		return children[0]
	}
	m := mergingPool.Get().(*mergingIter)
	m.cmp = cmp
	m.children = append(m.children[:0], children...)
	m.lazy, m.anyLazy = m.lazy[:0], false
	for _, c := range children {
		l, _ := c.(Lazy)
		m.lazy = append(m.lazy, l)
		m.anyLazy = m.anyLazy || l != nil
	}
	m.heap.m = m
	m.heap.idx = m.heap.idx[:0]
	m.err = nil
	m.closed = false
	return m
}

// Lazy is a child that can stand in a merge on a lower bound of the entries
// it has not reached yet instead of on an entry. While Pending it is Valid and
// Key returns the bound, so the merge orders it like any other child; only
// when the bound comes to the top — no other child has anything before it —
// does the merge call Open, which moves the child off the bound: onto its next
// entry, onto its next bound, or to its end. What a scan never reaches is
// never opened; a bound is a lower one because iterators move forward only. A
// Lazy child only makes sense inside a merge; alone it would show its bounds
// as entries.
type Lazy interface {
	Iterator
	Pending() bool
	Open()
}

type mergingIter struct {
	cmp      CompareFunc
	children []Iterator
	// lazy[i] is children[i] when that child is Lazy, nil otherwise. A merge
	// without one (every compaction's) pays a single untaken branch per step.
	lazy    []Lazy
	anyLazy bool
	// heap holds the indexes of valid children, a min-heap on current key.
	heap   mergeHeap
	err    error
	closed bool
}

type mergeHeap struct {
	m   *mergingIter
	idx []int
}

func (h *mergeHeap) Len() int { return len(h.idx) }
func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.m.children[h.idx[i]], h.m.children[h.idx[j]]
	if r := h.m.cmp(a.Key(), b.Key()); r != 0 {
		return r < 0
	}
	return h.idx[i] < h.idx[j] // stable tie-break on child position
}
func (h *mergeHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *mergeHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int)) }
func (h *mergeHeap) Pop() interface{} {
	x := h.idx[len(h.idx)-1]
	h.idx = h.idx[:len(h.idx)-1]
	return x
}

func (m *mergingIter) rebuild() {
	m.heap.idx = m.heap.idx[:0]
	for i, c := range m.children {
		if c.Valid() {
			m.heap.idx = append(m.heap.idx, i)
		} else if err := c.Error(); err != nil && m.err == nil {
			m.err = err
		}
	}
	heap.Init(&m.heap)
	if m.anyLazy {
		m.openPending()
	}
}

// fixTop restores the heap after the top child moved.
func (m *mergingIter) fixTop() {
	if m.top().Valid() {
		heap.Fix(&m.heap, 0)
		return
	}
	if err := m.top().Error(); err != nil && m.err == nil {
		m.err = err
	}
	heap.Pop(&m.heap)
}

// openPending opens lazy children for as long as one's bound is on top, so
// that the merge always rests on an entry.
func (m *mergingIter) openPending() {
	for len(m.heap.idx) > 0 {
		l := m.lazy[m.heap.idx[0]]
		if l == nil || !l.Pending() {
			return
		}
		l.Open()
		m.fixTop()
	}
}

func (m *mergingIter) Valid() bool { return m.err == nil && len(m.heap.idx) > 0 }

func (m *mergingIter) SeekGE(target []byte) {
	for _, c := range m.children {
		c.SeekGE(target)
	}
	m.rebuild()
}

func (m *mergingIter) SeekToFirst() {
	for _, c := range m.children {
		c.SeekToFirst()
	}
	m.rebuild()
}

func (m *mergingIter) top() Iterator { return m.children[m.heap.idx[0]] }

func (m *mergingIter) Next() {
	if !m.Valid() {
		return
	}
	m.top().Next()
	m.fixTop()
	if m.anyLazy {
		m.openPending()
	}
}

func (m *mergingIter) Key() []byte   { return m.top().Key() }
func (m *mergingIter) Value() []byte { return m.top().Value() }

func (m *mergingIter) Error() error {
	if m.err != nil {
		return m.err
	}
	for _, c := range m.children {
		if err := c.Error(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every child and returns the iterator to the pool. A second
// Close is a no-op only until the pool hands the iterator to a new owner, so
// an owner that may be closed twice closes its merge once itself; any other
// use after Close is invalid. Under -tags invariants the closed iterator
// stays out of the pool, as the core's pooled iterators do.
func (m *mergingIter) Close() error {
	err := m.Error()
	if m.closed {
		return err
	}
	m.closed = true
	for _, c := range m.children {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	m.children = m.children[:0]
	m.heap.idx = m.heap.idx[:0]
	m.err = nil
	if !invariants.Enabled {
		mergingPool.Put(m)
	}
	return err
}
