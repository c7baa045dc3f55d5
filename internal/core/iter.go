package core

import (
	"sort"
	"sync"

	"repro/internal/invariants"
	"repro/internal/iterator"
	"repro/internal/keys"
	"repro/internal/memtable"
	"repro/internal/version"
)

// levelIter lazily concatenates the table iterators of one sorted level.
// Files' own ranges are disjoint and sorted, so walking files in order
// yields internal-key order. (Slice windows are merged separately as their
// own children of the top-level merging iterator.) levelIters are pooled;
// Close recycles them, so use after Close is invalid.
type levelIter struct {
	db     *store
	files  []*version.FileMeta
	idx    int
	cur    iterator.Iterator
	err    error
	closed bool
}

var levelIterPool = sync.Pool{New: func() interface{} { return new(levelIter) }}

func (db *store) newLevelIter(files []*version.FileMeta) iterator.Iterator {
	if len(files) == 0 {
		return iterator.Empty(nil)
	}
	l := levelIterPool.Get().(*levelIter)
	l.db, l.files, l.idx, l.cur, l.err, l.closed = db, files, -1, nil, nil, false
	return l
}

// open positions the iterator at file idx with no cursor placement. The
// previous cursor, if any, is closed (returning pooled table iterators for
// reuse).
func (l *levelIter) open(idx int) bool {
	if l.cur != nil {
		if err := l.cur.Close(); err != nil && l.err == nil {
			l.err = err
		}
		l.cur = nil
	}
	l.idx = idx
	if l.err != nil || idx < 0 || idx >= len(l.files) {
		return false
	}
	r, err := l.db.tables.get(l.files[idx].Num)
	if err != nil {
		l.err = err
		return false
	}
	l.cur = r.NewIterator()
	return true
}

// assertOpen catches use-after-Close under -tags invariants. A closed
// levelIter may already be recycled by another goroutine, so a stale use is
// silent cross-iterator corruption in production; with invariants on, Close
// keeps the carcass out of the pool (poisoning it) and every entry point
// trips here instead.
func (l *levelIter) assertOpen() {
	if invariants.Enabled && l.closed {
		panic("invariant violated: levelIter used after Close")
	}
}

func (l *levelIter) Valid() bool {
	l.assertOpen()
	return l.err == nil && l.cur != nil && l.cur.Valid()
}

func (l *levelIter) SeekGE(target []byte) {
	l.assertOpen()
	if l.err != nil {
		return
	}
	idx := sort.Search(len(l.files), func(i int) bool {
		return l.db.icmp.Compare(l.files[i].Largest, target) >= 0
	})
	if !l.open(idx) {
		return
	}
	l.cur.SeekGE(target)
	l.skipForward()
}

func (l *levelIter) SeekToFirst() {
	l.assertOpen()
	if l.err != nil {
		return
	}
	if !l.open(0) {
		return
	}
	l.cur.SeekToFirst()
	l.skipForward()
}

func (l *levelIter) Next() {
	if !l.Valid() {
		return
	}
	l.cur.Next()
	l.skipForward()
}

func (l *levelIter) skipForward() {
	for l.err == nil && l.cur != nil && !l.cur.Valid() {
		if err := l.cur.Error(); err != nil {
			l.err = err
			return
		}
		if !l.open(l.idx + 1) {
			return
		}
		l.cur.SeekToFirst()
	}
}

func (l *levelIter) Key() []byte   { l.assertOpen(); return l.cur.Key() }
func (l *levelIter) Value() []byte { l.assertOpen(); return l.cur.Value() }

func (l *levelIter) Error() error {
	if l.err != nil {
		return l.err
	}
	if l.cur != nil {
		return l.cur.Error()
	}
	return nil
}

// Close releases the current table iterator and recycles the levelIter.
// Double-Close is tolerated; any other use after Close is invalid.
func (l *levelIter) Close() error {
	err := l.Error()
	if l.closed {
		return err
	}
	l.closed = true
	if l.cur != nil {
		if cerr := l.cur.Close(); cerr != nil && err == nil {
			err = cerr
		}
		l.cur = nil
	}
	l.db, l.files, l.err = nil, nil, nil
	if invariants.Enabled {
		// Keep the closed iterator out of the pool: recycling would reset
		// closed and let a stale caller silently corrupt the next user. The
		// poisoned carcass makes any late call trip assertOpen instead.
		return err
	}
	levelIterPool.Put(l)
	return err
}

// sliceIter is the LDC read-path modification for scans: every slice window
// linked to a file of one level, as a single child of the merged view. Windows
// overlap each other and the level's files, so their entries are merged, not
// concatenated — but only the windows the position is inside are open
// (a table-cache lookup, a clamped table iterator, a block load each). The
// rest cost nothing: windows that end before the position are skipped by key
// range alone, and the ones still ahead stand in the merge as one bound
// (iterator.Lazy), entered one at a time as the merge reaches them.
//
// The windows are taken in Range.Lo order (version.Windows): the ones not yet
// reached are ByLo[next:], and the search key of ByLo[next].Range.Lo is a
// lower bound of everything in them, since every key of a window is at or
// above its Lo and the Los only grow.
//
// sliceIters are pooled like levelIters; Close recycles them.
type sliceIter struct {
	db *store
	w  *version.Windows

	next  int
	bound []byte // the bound the unreached windows stand on, if any are left
	// open holds the windows the position is inside, by value so that their
	// bound keys are rebuilt into kept buffers. There are only a handful (a
	// lower file carries at most T_s links), so the one on the smallest key is
	// found by comparing them all.
	open    []iterator.Clamped
	cur     int  // index in open of that window, -1 if none is open
	pending bool // the bound comes before open[cur]: the iterator rests on it

	err    error
	closed bool
}

var sliceIterPool = sync.Pool{New: func() interface{} { return new(sliceIter) }}

func (db *store) newSliceIter(w *version.Windows) iterator.Iterator {
	l := sliceIterPool.Get().(*sliceIter)
	l.db, l.w, l.cur, l.pending, l.err, l.closed = db, w, -1, false, nil, false
	return l
}

// assertOpen is levelIter.assertOpen for the slice iterator.
func (l *sliceIter) assertOpen() {
	if invariants.Enabled && l.closed {
		panic("invariant violated: sliceIter used after Close")
	}
}

// enter opens window i for the caller to position (settle drops it again if
// that leaves it invalid). A table that cannot be opened fails the iterator.
func (l *sliceIter) enter(i int) *iterator.Clamped {
	s := l.w.ByLo[i]
	r, err := l.db.tables.get(s.FrozenNum)
	if err != nil {
		l.err = err
		return nil
	}
	if n := len(l.open); n < cap(l.open) {
		l.open = l.open[:n+1] // with the buffers of a window closed earlier
	} else {
		l.open = append(l.open, iterator.Clamped{})
	}
	c := &l.open[len(l.open)-1]
	c.Init(l.db.icmp.User, s.Range)
	c.Child = r.NewIteratorUpTo(c.Hi())
	return c
}

// leave closes open[i], a window the position has left (or never was in), and
// keeps its error.
func (l *sliceIter) leave(i int) {
	if err := l.open[i].Close(); err != nil && l.err == nil {
		l.err = err
	}
	last := len(l.open) - 1
	l.open[i], l.open[last] = l.open[last], l.open[i]
	l.open[last].Child = nil
	l.open = l.open[:last]
}

// restart closes every open window ahead of a seek.
func (l *sliceIter) restart() bool {
	l.assertOpen()
	for len(l.open) > 0 {
		l.leave(len(l.open) - 1)
	}
	l.cur, l.pending = -1, false
	return l.err == nil
}

// settle, after windows were entered or open[cur] stepped, drops the windows
// that ran out and finds what the iterator now rests on: the open window on
// the nearest key, or the bound if that comes first.
func (l *sliceIter) settle() {
	cmp := l.db.icmp.Compare
	for i := len(l.open) - 1; i >= 0; i-- {
		if !l.open[i].Valid() {
			l.leave(i)
		}
	}
	l.cur = -1
	for i := range l.open {
		if l.cur < 0 {
			l.cur = i
		} else if cmp(l.open[i].Key(), l.open[l.cur].Key()) < 0 {
			l.cur = i
		}
	}
	l.pending = l.next < len(l.w.ByLo) && (l.cur < 0 || cmp(l.bound, l.open[l.cur].Key()) <= 0)
}

// reach records that the unreached windows now begin at next, and builds the
// bound they stand on.
func (l *sliceIter) reach(next int) {
	l.next = next
	if next < len(l.w.ByLo) {
		l.bound = keys.MakeSearchKey(l.bound[:0], l.w.ByLo[next].Range.Lo, keys.MaxSeq)
	}
}

func (l *sliceIter) Valid() bool {
	l.assertOpen()
	return l.err == nil && (l.pending || l.cur >= 0)
}

// Pending implements iterator.Lazy.
func (l *sliceIter) Pending() bool { return l.err == nil && l.pending }

// Open implements iterator.Lazy: it enters the nearest unreached window.
func (l *sliceIter) Open() {
	l.assertOpen()
	if c := l.enter(l.next); c != nil {
		c.SeekToFirst()
	}
	l.reach(l.next + 1)
	l.settle()
}

func (l *sliceIter) SeekGE(target []byte) {
	if !l.restart() {
		return
	}
	ucmp, uk := l.db.icmp.User, keys.InternalKey(target).UserKey()
	// The windows that start at or below the target are ByLo[:n]; the ones
	// among them that reach it are entered, and MaxHi says how far down the
	// list one can still be found. The rest of ByLo[:n] lies below the target.
	n := l.w.StartingAtOrBelow(ucmp, uk)
	for i := n - 1; i >= 0 && ucmp.Compare(l.w.MaxHi[i], uk) >= 0; i-- {
		if ucmp.Compare(l.w.ByLo[i].Range.Hi, uk) >= 0 {
			if c := l.enter(i); c != nil {
				c.SeekGE(target)
			}
		}
	}
	l.reach(n)
	l.settle()
}

func (l *sliceIter) SeekToFirst() {
	if l.restart() {
		l.reach(0)
		l.settle()
	}
}

// Next steps forward; the merge only asks that of an iterator resting on an
// entry.
func (l *sliceIter) Next() {
	if !l.Valid() || l.pending {
		return
	}
	l.open[l.cur].Next()
	l.settle()
}

func (l *sliceIter) Key() []byte {
	l.assertOpen()
	if l.pending {
		return l.bound
	}
	return l.open[l.cur].Key()
}

func (l *sliceIter) Value() []byte {
	l.assertOpen()
	if l.pending {
		return nil
	}
	return l.open[l.cur].Value()
}

func (l *sliceIter) Error() error { return l.err }

// Close releases the open windows and recycles the iterator. Double-Close is
// tolerated; any other use after Close is invalid.
func (l *sliceIter) Close() error {
	if l.closed {
		return l.err
	}
	l.restart()
	l.closed = true
	err := l.err
	l.db, l.w = nil, nil
	if invariants.Enabled {
		return err // the carcass stays out of the pool: see levelIter.Close
	}
	sliceIterPool.Put(l)
	return err
}

// ---------------------------------------------------------------------------
// User-facing iterator

// storeIter walks one shard's user keys in order, exposing the newest
// visible version of each and skipping tombstones. It is an
// iterator.Iterator over user keys: a scan over several shards merges one
// per shard.
//
// storeIters are pooled per shard (store.iters), and each keeps, from one
// read to the next, everything it builds: the memtables' iterators, the
// merge's child list and its key buffers. The rest of the stack comes from
// the pools of its parts, so once warm, opening and seeking one allocates
// nothing. Its owner — a scan, a public Iterator, or the merge of either —
// is the only holder of it and closes it once; Close returns it to the pool.
type storeIter struct {
	db *store
	// rs is the read state pinned for the iterator's life; nil once closed,
	// which is what makes a second Close a no-op until the pool hands the
	// iterator out again.
	rs  *readState
	seq keys.Seq
	it  iterator.Iterator    // the merge over children
	cmp iterator.CompareFunc // db.icmp.Compare, bound once: a method value allocates

	mems     [2]memtable.Iter    // the mutable and the immutable memtable's
	children []iterator.Iterator // the merge's children, rebuilt on every open

	seekKey  []byte // the search key of the last seek, built into kept capacity
	valid    bool
	savedKey []byte // the user key Next skips the older versions of
	err      error
}

// newIter returns a pooled iterator over the pinned sequence (nil = latest
// state). Close it when done.
func (db *store) newIter(snapSeq *keys.Seq) (*storeIter, error) {
	// Lock-free acquisition: the read state pins (mem, imm, version) with a
	// single atomic load + ref, held until Close.
	rs := db.loadReadState()
	if rs == nil {
		return nil, ErrClosed
	}
	i := db.iters.Get().(*storeIter)
	if err := i.open(rs); err != nil {
		rs.unref()
		i.release()
		return nil, err
	}
	// The sequence is read after the read state is pinned, like every other
	// read: the pinned state then bounds it from below (readState.seq), which
	// is what lets value-log GC wait only for states older than its proof.
	i.seq = db.set.LastSeq()
	if snapSeq != nil {
		i.seq = *snapSeq
	}
	i.rs, i.valid, i.err = rs, false, nil
	return i, nil
}

// open assembles the full merged view of rs: memtables, L0 tables (as
// independent children), and per sorted level one levelIter over its files
// plus one sliceIter over the slices linked to them.
func (i *storeIter) open(rs *readState) error {
	db, v := i.db, rs.v
	i.mems[0].Init(rs.mem)
	children := append(i.children[:0], &i.mems[0])
	if rs.imm != nil {
		i.mems[1].Init(rs.imm)
		children = append(children, &i.mems[1])
	}
	for j := len(v.Levels[0]) - 1; j >= 0; j-- {
		r, err := db.tables.get(v.Levels[0][j].Num)
		if err != nil {
			for _, c := range children {
				c.Close()
			}
			i.children = children
			return err
		}
		children = append(children, r.NewIterator())
	}
	for level := 1; level < version.NumLevels; level++ {
		if len(v.Levels[level]) == 0 {
			continue
		}
		children = append(children, db.newLevelIter(v.Levels[level]))
		if w := &v.Windows[level]; len(w.ByLo) > 0 {
			children = append(children, db.newSliceIter(w))
		}
	}
	i.children = children
	i.it = iterator.NewMerging(i.cmp, children...)
	return nil
}

// assertOpen is levelIter.assertOpen for the store iterator.
func (i *storeIter) assertOpen() {
	if invariants.Enabled && i.rs == nil {
		panic("invariant violated: storeIter used after Close")
	}
}

// Valid reports whether the iterator is positioned on an entry. An iterator
// that failed to resolve a value stays invalid.
func (i *storeIter) Valid() bool { return i.valid && i.err == nil }

// Error returns the first error encountered.
func (i *storeIter) Error() error {
	if i.err != nil || i.rs == nil {
		return i.err
	}
	return i.it.Error()
}

// Close releases the iterator and returns it to its shard's pool. Only the
// first call closes the merge, whose parts are pooled and may belong to
// another scan by the second, and unpins the read state; a later call
// returns the first call's result, until the pool hands the iterator to its
// next owner. Under -tags invariants the closed iterator stays out of the
// pool, and any use of it trips assertOpen.
func (i *storeIter) Close() error {
	if i.rs == nil {
		return i.err
	}
	err := i.Error()
	i.it.Close()
	i.rs.unref()
	i.rs, i.it, i.valid, i.err = nil, nil, false, err
	i.release() // the pool's now: nothing below may touch i
	return err
}

// release drops what the iterator refers to — its closed children — and
// gives it back to the pool.
func (i *storeIter) release() {
	clear(i.children)
	i.children = i.children[:0]
	if !invariants.Enabled {
		i.db.iters.Put(i)
	}
}

// Key returns the current user key, valid until the next positioning call
// and read-only.
func (i *storeIter) Key() []byte { return keys.InternalKey(i.it.Key()).UserKey() }

// Value returns the current value, valid until the next positioning call
// and read-only: a memtable record, a data block, or the block cache's copy
// of a separated value (resolveBlob). Pointer entries resolve through the
// value log here, on demand, so scans that only look at keys never touch
// the log. A resolution failure returns
// nil and invalidates the iterator (Valid false, Error set): a value is
// either right or the iterator has stopped.
func (i *storeIter) Value() []byte {
	if keys.InternalKey(i.it.Key()).Kind() == keys.KindBlobRef {
		return i.resolve(i.it.Value())
	}
	return i.it.Value()
}

// resolve materializes a pointer entry's value; a failure invalidates the
// iterator.
func (i *storeIter) resolve(ptr []byte) []byte {
	val, err := i.db.resolveBlob(ptr)
	if err != nil {
		i.err, i.valid = err, false
		return nil
	}
	return val
}

// SeekToFirst positions at the smallest key.
func (i *storeIter) SeekToFirst() {
	i.assertOpen()
	i.it.SeekToFirst()
	i.findNextUserEntry(false)
}

// SeekGE positions at the first key >= target.
func (i *storeIter) SeekGE(target []byte) {
	i.assertOpen()
	i.seekKey = keys.MakeSearchKey(i.seekKey[:0], target, i.seq)
	i.it.SeekGE(i.seekKey)
	i.findNextUserEntry(false)
}

// Next advances to the following user key.
func (i *storeIter) Next() {
	if !i.valid {
		return
	}
	i.savedKey = append(i.savedKey[:0], keys.InternalKey(i.it.Key()).UserKey()...)
	i.it.Next()
	i.findNextUserEntry(true)
}

// findNextUserEntry advances to the newest visible, non-deleted version of
// the next user key; when skipping, entries for savedKey are passed over.
func (i *storeIter) findNextUserEntry(skipping bool) {
	ucmp := i.db.icmp.User
	for ; i.it.Valid(); i.it.Next() {
		ik := keys.InternalKey(i.it.Key())
		if ik.Seq() > i.seq {
			continue // invisible at this snapshot
		}
		switch ik.Kind() {
		case keys.KindDelete:
			i.savedKey = append(i.savedKey[:0], ik.UserKey()...)
			skipping = true
		case keys.KindSet, keys.KindBlobRef:
			if skipping && ucmp.Compare(ik.UserKey(), i.savedKey) <= 0 {
				continue // older version or deleted key
			}
			i.valid = true
			return
		}
	}
	i.valid = false
}

// KV is a returned key/value pair; both slices are private copies. Scan may
// carve several pairs out of one buffer, but each slice's capacity ends
// where it does, so appending to one never writes into another.
type KV struct {
	Key, Value []byte
}
