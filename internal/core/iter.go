package core

import (
	"sort"
	"sync"

	"repro/internal/invariants"
	"repro/internal/iterator"
	"repro/internal/keys"
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

func (l *levelIter) SeekToLast() {
	l.assertOpen()
	if l.err != nil {
		return
	}
	if !l.open(len(l.files) - 1) {
		return
	}
	l.cur.SeekToLast()
	l.skipBackward()
}

func (l *levelIter) Next() {
	if !l.Valid() {
		return
	}
	l.cur.Next()
	l.skipForward()
}

func (l *levelIter) Prev() {
	if !l.Valid() {
		return
	}
	l.cur.Prev()
	l.skipBackward()
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

func (l *levelIter) skipBackward() {
	for l.err == nil && l.cur != nil && !l.cur.Valid() {
		if err := l.cur.Error(); err != nil {
			l.err = err
			return
		}
		if !l.open(l.idx - 1) {
			return
		}
		l.cur.SeekToLast()
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

// newInternalIterator assembles the full merged view: memtables, L0 tables
// (as independent children), one levelIter per sorted level, plus — the LDC
// read-path modification — one clamped frozen-table iterator per slice.
// The returned cleanup must be called when the iterator is closed.
func (db *store) newInternalIterator() (iterator.Iterator, func(), error) {
	// Lock-free acquisition: the read state pins (mem, imm, version) with a
	// single atomic load + ref; the ref is held until cleanup runs.
	rs := db.loadReadState()
	if rs == nil {
		return nil, nil, ErrClosed
	}
	v := rs.v

	var children []iterator.Iterator
	children = append(children, rs.mem.NewIterator())
	if rs.imm != nil {
		children = append(children, rs.imm.NewIterator())
	}
	fail := func(err error) (iterator.Iterator, func(), error) {
		for _, c := range children {
			c.Close()
		}
		rs.unref()
		return nil, nil, err
	}
	for i := len(v.Levels[0]) - 1; i >= 0; i-- {
		r, err := db.tables.get(v.Levels[0][i].Num)
		if err != nil {
			return fail(err)
		}
		children = append(children, r.NewIterator())
	}
	for level := 1; level < version.NumLevels; level++ {
		files := v.Levels[level]
		if len(files) == 0 {
			continue
		}
		children = append(children, db.newLevelIter(files))
		for _, f := range v.Sliced[level] {
			for i := range f.Slices {
				s := &f.Slices[i]
				r, err := db.tables.get(s.FrozenNum)
				if err != nil {
					return fail(err)
				}
				children = append(children,
					iterator.NewClamped(db.icmp.User, r.NewIterator(), s.Range))
			}
		}
	}
	merged := iterator.NewMerging(db.icmp.Compare, children...)
	return merged, rs.unref, nil
}

// ---------------------------------------------------------------------------
// User-facing iterator

// storeIter walks one shard's user keys in order, exposing the newest
// visible version of each and skipping tombstones. The public Iterator
// (router_iter.go) is either one of these (Shards=1) or an ordered k-way
// merge of them.
type storeIter struct {
	db      *store
	it      iterator.Iterator
	cleanup func()
	seq     keys.Seq

	valid      bool
	dir        int8 // 0 forward, 1 reverse
	savedKey   []byte
	savedValue []byte
	savedKind  keys.Kind // kind of the entry savedValue came from (reverse)
	err        error
}

// newIter returns an iterator over the pinned sequence (nil = latest
// state). Close it when done.
func (db *store) newIter(snapSeq *keys.Seq) (*storeIter, error) {
	db.stats.scans.Add(1)
	if db.adaptive != nil {
		db.adaptive.observeReads(1)
	}
	it, cleanup, err := db.newInternalIterator()
	if err != nil {
		return nil, err
	}
	// The sequence is read after the read state is pinned, like every other
	// read: the pinned state then bounds it from below (readState.seq), which
	// is what lets value-log GC wait only for states older than its proof.
	seq := db.set.LastSeq()
	if snapSeq != nil {
		seq = *snapSeq
	}
	return &storeIter{db: db, it: it, cleanup: cleanup, seq: seq}, nil
}

// Valid reports whether the iterator is positioned on an entry. An iterator
// that failed to resolve a value stays invalid.
func (i *storeIter) Valid() bool { return i.valid && i.err == nil }

// Error returns the first error encountered.
func (i *storeIter) Error() error {
	if i.err != nil {
		return i.err
	}
	return i.it.Error()
}

// Close releases the iterator. Idempotent (cleanup doubles as the
// first-close marker).
func (i *storeIter) Close() error {
	err := i.Error()
	i.it.Close()
	if i.cleanup != nil {
		i.cleanup()
		i.cleanup = nil
	}
	i.valid = false
	return err
}

// Key returns the current user key, valid until the next positioning call.
func (i *storeIter) Key() []byte {
	if i.dir == 0 {
		return keys.InternalKey(i.it.Key()).UserKey()
	}
	return i.savedKey
}

// Value returns the current value, valid until the next positioning call.
// Pointer entries resolve through the value log here, on demand, so scans
// that only look at keys never touch the log. A resolution failure returns
// nil and invalidates the iterator (Valid false, Error set): a value is
// either right or the iterator has stopped.
func (i *storeIter) Value() []byte {
	if i.dir == 0 {
		if keys.InternalKey(i.it.Key()).Kind() == keys.KindBlobRef {
			return i.resolve(i.it.Value())
		}
		return i.it.Value()
	}
	if i.savedKind == keys.KindBlobRef {
		return i.resolve(i.savedValue)
	}
	return i.savedValue
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
	i.dir = 0
	i.it.SeekToFirst()
	i.findNextUserEntry(false)
}

// Seek positions at the first key >= target.
func (i *storeIter) Seek(target []byte) {
	i.dir = 0
	i.it.SeekGE(keys.MakeSearchKey(nil, target, i.seq))
	i.findNextUserEntry(false)
}

// SeekToLast positions at the largest key.
func (i *storeIter) SeekToLast() {
	i.dir = 1
	i.it.SeekToLast()
	i.findPrevUserEntry()
}

// Next advances to the following user key.
func (i *storeIter) Next() {
	if !i.valid {
		return
	}
	if i.dir == 1 {
		// Switch reverse→forward: position the internal iterator at the
		// first entry past savedKey.
		i.dir = 0
		i.it.SeekGE(keys.MakeSearchKey(nil, i.savedKey, keys.MaxSeq))
		for i.it.Valid() &&
			i.db.icmp.User.Compare(keys.InternalKey(i.it.Key()).UserKey(), i.savedKey) == 0 {
			i.it.Next()
		}
		i.findNextUserEntry(false)
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

// Prev retreats to the preceding user key.
func (i *storeIter) Prev() {
	if !i.valid {
		return
	}
	if i.dir == 0 {
		// Switch forward→reverse: walk back before every version of the
		// current user key.
		cur := append([]byte(nil), keys.InternalKey(i.it.Key()).UserKey()...)
		i.savedKey = cur
		for {
			i.it.Prev()
			if !i.it.Valid() {
				i.valid = false
				i.dir = 1
				return
			}
			if i.db.icmp.User.Compare(keys.InternalKey(i.it.Key()).UserKey(), cur) < 0 {
				break
			}
		}
		i.dir = 1
	}
	i.findPrevUserEntry()
}

// findPrevUserEntry scans backwards and leaves savedKey/savedValue holding
// the newest visible version of the nearest preceding non-deleted user key
// (ports LevelDB's DBIter::FindPrevUserEntry).
func (i *storeIter) findPrevUserEntry() {
	ucmp := i.db.icmp.User
	deleted := true
	i.savedKey = i.savedKey[:0]
	for i.it.Valid() {
		ik := keys.InternalKey(i.it.Key())
		if ik.Seq() <= i.seq {
			if !deleted && ucmp.Compare(ik.UserKey(), i.savedKey) < 0 {
				break // savedKey holds the answer
			}
			if ik.Kind() == keys.KindDelete {
				deleted = true
				i.savedKey = i.savedKey[:0]
				i.savedValue = i.savedValue[:0]
			} else {
				deleted = false
				i.savedKind = ik.Kind()
				i.savedKey = append(i.savedKey[:0], ik.UserKey()...)
				i.savedValue = append(i.savedValue[:0], i.it.Value()...)
			}
		}
		i.it.Prev()
	}
	i.valid = !deleted
}

// KV is a returned key/value pair; both slices are private copies.
type KV struct {
	Key, Value []byte
}
