// Package iterator defines the iterator contract shared by memtables,
// SSTables, and the merged read path, plus the combinators the store is
// assembled from: a merging (n-way) iterator, a clamping iterator used to
// expose LDC slices as bounded views of frozen SSTables, and small utility
// iterators.
//
// All iterators in the store traverse *internal* keys (see package keys) in
// the internal ordering: user key ascending, sequence descending.
package iterator

// Iterator is the uniform cursor interface. Positioning methods leave the
// iterator either on a valid entry or invalid (past the end). Key and Value
// may only be called while Valid, and the returned slices are only guaranteed
// until the next positioning call.
//
// Iterators move forward only. Every reader of a key range in the store — a
// scan, a compaction's merge — walks it ascending, as the paper's and YCSB's
// SCAN do, so there is no Prev or SeekToLast and no layer keeps a backward
// path: a seek, then Next until the caller has enough.
type Iterator interface {
	// Valid reports whether the iterator is positioned on an entry.
	Valid() bool
	// SeekGE positions at the first entry with key >= target.
	SeekGE(target []byte)
	// SeekToFirst positions at the first entry.
	SeekToFirst()
	// Next advances; calling it on an invalid iterator is a no-op.
	Next()
	// Key returns the current internal key.
	Key() []byte
	// Value returns the current value.
	Value() []byte
	// Error returns the first error encountered, if any. Iterators with a
	// pending error report Valid() == false.
	Error() error
	// Close releases resources. The iterator must not be used afterwards.
	Close() error
}

// Empty returns an iterator over nothing, optionally carrying err.
func Empty(err error) Iterator { return &emptyIter{err: err} }

type emptyIter struct{ err error }

func (e *emptyIter) Valid() bool   { return false }
func (e *emptyIter) SeekGE([]byte) {}
func (e *emptyIter) SeekToFirst()  {}
func (e *emptyIter) Next()         {}
func (e *emptyIter) Key() []byte   { return nil }
func (e *emptyIter) Value() []byte { return nil }
func (e *emptyIter) Error() error  { return e.err }
func (e *emptyIter) Close() error  { return e.err }
