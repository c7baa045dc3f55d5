package iterator

import "sort"

// KV is an in-memory key/value pair for slice-backed iterators.
type KV struct {
	K, V []byte
}

// NewSlice returns an iterator over pairs, which must already be sorted by
// cmp. It is used in tests and by small in-memory merge steps.
func NewSlice(cmp CompareFunc, pairs []KV) Iterator {
	return &sliceIter{cmp: cmp, pairs: pairs, pos: -1}
}

type sliceIter struct {
	cmp   CompareFunc
	pairs []KV
	pos   int
}

func (s *sliceIter) Valid() bool { return s.pos >= 0 && s.pos < len(s.pairs) }

func (s *sliceIter) SeekGE(target []byte) {
	s.pos = sort.Search(len(s.pairs), func(i int) bool {
		return s.cmp(s.pairs[i].K, target) >= 0
	})
}

func (s *sliceIter) SeekToFirst() { s.pos = 0 }

func (s *sliceIter) Next() {
	if s.pos < len(s.pairs) {
		s.pos++
	}
}

func (s *sliceIter) Key() []byte   { return s.pairs[s.pos].K }
func (s *sliceIter) Value() []byte { return s.pairs[s.pos].V }
func (s *sliceIter) Error() error  { return nil }
func (s *sliceIter) Close() error  { return nil }
