// Package skiplist implements the concurrent skip list backing the
// MemTable. It follows LevelDB's concurrency contract: a single writer
// (serialized by the caller) inserts while any number of readers traverse
// concurrently without locks, relying on atomic pointer publication.
//
// Keys are opaque byte slices ordered by a caller-supplied comparison
// function; the list stores keys only (the MemTable packs key and value into
// one buffer), keeps them in ascending order, and never deletes.
package skiplist

import (
	"sync/atomic"
)

const (
	maxHeight = 12
	// branching gives each node a 1/branching chance per extra level,
	// matching LevelDB's kBranching = 4.
	branching = 4
	// Nodes and their towers are carved from slabs of these lengths: one
	// allocation per nodeSlab inserts plus one per towerSlab links (a node
	// has 4/3 links on average) instead of two per insert.
	nodeSlab  = 128
	towerSlab = 256
)

// CompareFunc orders keys; it must be a strict weak ordering. Inserting two
// keys that compare equal is a caller bug (the MemTable disambiguates with
// sequence numbers, so duplicates never reach the list).
type CompareFunc func(a, b []byte) int

type node struct {
	key []byte
	// next[i] is the successor at level i. Accessed atomically.
	next []atomic.Pointer[node]
}

// List is the skip list. The zero value is not usable; call New.
type List struct {
	cmp    CompareFunc
	head   *node
	height atomic.Int32
	rnd    uint64 // xorshift state; mutated only by the single writer
	len    atomic.Int64
	bytes  atomic.Int64

	// nodes and towers are the unused tails of the current slabs. They belong
	// to the list, only its single writer touches them (so no lock), and a
	// slab lives until the list does: every node carved from it points into
	// it.
	nodes  []node
	towers []atomic.Pointer[node]
}

// New returns an empty list ordered by cmp.
func New(cmp CompareFunc) *List {
	l := &List{
		cmp:  cmp,
		head: &node{next: make([]atomic.Pointer[node], maxHeight)},
		rnd:  0x9e3779b97f4a7c15,
	}
	l.height.Store(1)
	return l
}

// Len reports the number of inserted keys.
func (l *List) Len() int { return int(l.len.Load()) }

// Bytes reports the total size of inserted keys, used by the MemTable to
// decide when it is full.
func (l *List) Bytes() int64 { return l.bytes.Load() }

func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight {
		// xorshift64*
		l.rnd ^= l.rnd >> 12
		l.rnd ^= l.rnd << 25
		l.rnd ^= l.rnd >> 27
		if (l.rnd*0x2545f4914f6cdd1d)%branching != 0 {
			break
		}
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= k, filling prev with
// the rightmost node before the result at each level when prev is non-nil.
func (l *List) findGreaterOrEqual(k []byte, prev []*node) *node {
	x := l.head
	level := int(l.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && l.cmp(next.key, k) < 0 {
			x = next
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// newNode carves a node of height h from the slabs, starting a fresh slab
// when the current one cannot hold it whole.
func (l *List) newNode(key []byte, h int) *node {
	if len(l.nodes) == 0 {
		l.nodes = make([]node, nodeSlab)
	}
	if len(l.towers) < h {
		l.towers = make([]atomic.Pointer[node], towerSlab)
	}
	n := &l.nodes[0]
	n.key, n.next = key, l.towers[:h:h]
	l.nodes, l.towers = l.nodes[1:], l.towers[h:]
	return n
}

// Insert adds key to the list. The caller must serialize Insert calls and
// must not insert a key equal to an existing one. The key is stored by
// reference and must not be mutated afterwards.
func (l *List) Insert(key []byte) {
	var prev [maxHeight]*node
	l.findGreaterOrEqual(key, prev[:])

	h := l.randomHeight()
	if cur := int(l.height.Load()); h > cur {
		for i := cur; i < h; i++ {
			prev[i] = l.head
		}
		// Publication order: readers seeing the new height before the new
		// node's links just fall through from head, which is harmless.
		l.height.Store(int32(h))
	}

	n := l.newNode(key, h)
	for i := 0; i < h; i++ {
		n.next[i].Store(prev[i].next[i].Load())
		prev[i].next[i].Store(n) // publish
	}
	l.len.Add(1)
	l.bytes.Add(int64(len(key)))
}

// Contains reports whether a key equal to k is present.
func (l *List) Contains(k []byte) bool {
	n := l.findGreaterOrEqual(k, nil)
	return n != nil && l.cmp(n.key, k) == 0
}

// Iterator traverses the list. It is valid to create and use iterators
// concurrently with a writer; an iterator observes all keys inserted before
// its positioning call, and possibly some inserted after. It holds no buffer,
// so an owner may keep one by value and rebind it with Init.
type Iterator struct {
	list *List
	node *node
}

// NewIterator returns an unpositioned iterator.
func (l *List) NewIterator() *Iterator { return &Iterator{list: l} }

// Init binds it, unpositioned, to l; a nil l leaves it bound to nothing, so
// that it keeps no list alive.
func (it *Iterator) Init(l *List) { *it = Iterator{list: l} }

// Valid reports whether the iterator is positioned on a key.
func (it *Iterator) Valid() bool { return it.node != nil }

// Key returns the current key. Only valid while Valid() is true.
func (it *Iterator) Key() []byte { return it.node.key }

// Next advances to the following key.
func (it *Iterator) Next() { it.node = it.node.next[0].Load() }

// SeekGE positions at the first key >= k.
func (it *Iterator) SeekGE(k []byte) { it.node = it.list.findGreaterOrEqual(k, nil) }

// SeekToFirst positions at the smallest key.
func (it *Iterator) SeekToFirst() { it.node = it.list.head.next[0].Load() }
