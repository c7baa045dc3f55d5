package core

import (
	"bytes"

	"repro/internal/iterator"
)

// Iterator is the public ordered cursor over the whole database: an ordered
// k-way merge of the per-shard iterators through the pooled merging iterator
// (which, over one shard, is that shard's iterator itself). Hash routing
// makes every user key live in exactly one shard, so the per-shard
// iterators — which already collapse versions and tombstones down to live
// user entries and yield user keys — never produce duplicate keys, and
// merging by user key alone is exact: per-shard sequence numbers are never
// compared. It moves forward only, as every range read of the store does.
// Not safe for concurrent use.
type Iterator struct {
	merged iterator.Iterator // k-way merge over one storeIter per shard
	err    error
	closed bool
}

// NewIterator returns an iterator over the database at snap (nil = the
// latest state, capturing each shard as it is first touched by the merge's
// initial positioning pass). The iterator starts unpositioned; call Seek or
// SeekToFirst. The handle is the one allocation: the iterators under it are
// pooled.
func (db *DB) NewIterator(snap *Snapshot) (*Iterator, error) {
	merged, err := db.openMerged(snap)
	if err != nil {
		return nil, err
	}
	return &Iterator{merged: merged}, nil
}

// openMerged opens one storeIter per shard at snap and returns their merge:
// over one shard the shard's iterator itself, else a pooled merging iterator
// whose Close closes them all. The caller owns the result and closes it once.
// It counts one Scan, on shard 0, for the whole database.
func (db *DB) openMerged(snap *Snapshot) (iterator.Iterator, error) {
	db.shards[0].stats.Scans.Add(1)
	var stack [16]iterator.Iterator // lists up to 16 shards without a heap allocation
	children := stack[:0]
	for i, st := range db.shards {
		si, err := st.newIter(snap.seq(i))
		if err != nil {
			for _, c := range children {
				_ = c.Close() // unwind the partial build; the open error wins
			}
			return nil, err
		}
		children = append(children, si)
	}
	return iterator.NewMerging(bytes.Compare, children...), nil
}

// Seek positions at the first key >= target.
func (i *Iterator) Seek(target []byte) { i.merged.SeekGE(target) }

// SeekToFirst positions at the smallest key.
func (i *Iterator) SeekToFirst() { i.merged.SeekToFirst() }

// Next advances; no-op when invalid.
func (i *Iterator) Next() {
	if i.Valid() {
		i.merged.Next()
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (i *Iterator) Valid() bool { return i.err == nil && i.merged.Valid() }

// Key returns the current key; valid until the next move, and read-only:
// copy it to keep or change it.
func (i *Iterator) Key() []byte { return i.merged.Key() }

// Value returns the current value; valid until the next move, and read-only
// like Key: it may be the store's own bytes (Scan returns copies). A value
// that cannot be read (a dangling value-log pointer) returns nil and
// invalidates the iterator: Valid turns false and Error reports the cause.
func (i *Iterator) Value() []byte {
	v := i.merged.Value()
	if v == nil {
		// The merge caches which shards are positioned; notice here a shard
		// iterator that invalidated itself inside Value.
		i.err = i.merged.Error()
	}
	return v
}

// Error reports the first error the iterator encountered.
func (i *Iterator) Error() error {
	if i.err != nil {
		return i.err
	}
	return i.merged.Error()
}

// Close releases the iterator's pinned resources on every shard. Only the
// first call closes the merge, which is pooled and may serve another
// iterator by the second; later calls return the first call's result.
func (i *Iterator) Close() error {
	if i.closed {
		return i.err
	}
	i.closed = true
	i.err = i.Error()
	if err := i.merged.Close(); err != nil && i.err == nil {
		i.err = err
	}
	return i.err
}
