// Package block implements the SSTable block format, following LevelDB:
// entries store keys with shared-prefix compression relative to the previous
// entry, a restart point (full key) is emitted every Interval entries, and
// the block ends with the array of restart offsets plus its count:
//
//	entry:   varint(shared) varint(unshared) varint(valueLen)
//	         unshared-key-bytes value-bytes
//	trailer: fixed32 × numRestarts, fixed32 numRestarts
//
// Iterators binary-search the restart array, then scan forward. Blocks are
// the unit of reading, caching, and filter granularity for the store.
package block

import (
	"fmt"

	"repro/internal/encoding"
	"repro/internal/iterator"
)

// DefaultInterval is the restart interval used by Writer when none is set.
const DefaultInterval = 16

// Writer accumulates sorted key/value entries into an encoded block.
// Keys must be appended in strictly increasing order.
type Writer struct {
	// Interval is the number of entries between restart points.
	Interval int

	buf      []byte
	restarts []uint32
	counter  int
	lastKey  []byte
	n        int
}

func (w *Writer) interval() int {
	if w.Interval <= 0 {
		return DefaultInterval
	}
	return w.Interval
}

// Add appends an entry. key must be greater than every previously added key.
func (w *Writer) Add(key, value []byte) {
	shared := 0
	if w.counter < w.interval() && len(w.restarts) > 0 {
		n := len(w.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && key[shared] == w.lastKey[shared] {
			shared++
		}
	} else {
		w.restarts = append(w.restarts, uint32(len(w.buf)))
		w.counter = 0
	}
	w.buf = encoding.PutUvarint(w.buf, uint64(shared))
	w.buf = encoding.PutUvarint(w.buf, uint64(len(key)-shared))
	w.buf = encoding.PutUvarint(w.buf, uint64(len(value)))
	w.buf = append(w.buf, key[shared:]...)
	w.buf = append(w.buf, value...)
	w.lastKey = append(w.lastKey[:0], key...)
	w.counter++
	w.n++
}

// Count reports the number of entries added.
func (w *Writer) Count() int { return w.n }

// EstimatedSize reports the encoded size if Finish were called now.
func (w *Writer) EstimatedSize() int {
	return len(w.buf) + 4*len(w.restarts) + 4
}

// Empty reports whether no entries were added.
func (w *Writer) Empty() bool { return w.n == 0 }

// Finish seals and returns the encoded block. The Writer can be reused after
// Reset.
func (w *Writer) Finish() []byte {
	if len(w.restarts) == 0 {
		w.restarts = append(w.restarts, 0)
	}
	for _, r := range w.restarts {
		w.buf = encoding.PutFixed32(w.buf, r)
	}
	w.buf = encoding.PutFixed32(w.buf, uint32(len(w.restarts)))
	return w.buf
}

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.restarts = w.restarts[:0]
	w.counter = 0
	w.lastKey = w.lastKey[:0]
	w.n = 0
}

// ---------------------------------------------------------------------------
// Reading

// Reader decodes an encoded block. The data slice is retained.
type Reader struct {
	cmp         iterator.CompareFunc
	data        []byte // entry region only
	restarts    []byte // restart array region
	numRestarts int
}

// NewReader validates the trailer and returns a reader.
func NewReader(cmp iterator.CompareFunc, data []byte) (*Reader, error) {
	r := new(Reader)
	if err := r.Init(cmp, data); err != nil {
		return nil, err
	}
	return r, nil
}

// Init rebinds r to another encoded block, so a caller that walks many
// blocks one at a time (a compaction input, a table iterator, a point probe)
// allocates no Reader per block.
// Iterators bound to r must be re-Init'ed afterwards.
func (r *Reader) Init(cmp iterator.CompareFunc, data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("block: too short (%d bytes)", len(data))
	}
	n := int(encoding.Fixed32(data[len(data)-4:]))
	end := len(data) - 4 - 4*n
	if n < 1 || end < 0 {
		return fmt.Errorf("block: bad restart count %d", n)
	}
	*r = Reader{
		cmp:         cmp,
		data:        data[:end],
		restarts:    data[end : len(data)-4],
		numRestarts: n,
	}
	return nil
}

func (r *Reader) restartOffset(i int) int {
	return int(encoding.Fixed32(r.restarts[4*i:]))
}

// NumRestarts reports the number of restart points: the number of entries of
// a non-empty block that restarts at every entry (see EachRestart).
func (r *Reader) NumRestarts() int { return r.numRestarts }

// EachRestart calls fn with the key and value of every entry of a block that
// restarts at every entry, as an index block does, in order and where they lie
// in the block, and with keyAt, the offset of the key in the block: key is
// block[keyAt:keyAt+len(key)]. It fails any other block — one whose entries do
// not each start at the next restart point and end where the one after
// begins — with the corrupt-entry error, and stops at the first error fn
// returns, returning it. An empty block has no entries.
func (r *Reader) EachRestart(fn func(keyAt int, key, value []byte) error) error {
	if len(r.data) == 0 {
		return nil
	}
	at := 0
	for i := 0; i < r.numRestarts; i++ {
		if r.restartOffset(i) != at {
			return corruptAt(at)
		}
		key, value, next, ok := r.restartEntry(at)
		if !ok {
			return corruptAt(at)
		}
		if err := fn(next-len(value)-len(key), key, value); err != nil {
			return err
		}
		at = next
	}
	if at != len(r.data) {
		return corruptAt(at)
	}
	return nil
}

// Iter returns an iterator over the block.
func (r *Reader) Iter() iterator.Iterator {
	it := &Iter{}
	it.Init(r)
	return it
}

// Iter is the concrete block iterator. The zero value is unpositioned and
// unusable until Init binds it to a Reader; Init may be called repeatedly to
// re-bind the same Iter to different blocks, reusing its internal key buffer.
// Point-read paths exploit this to seek index and data blocks without
// allocating a fresh iterator per probe.
type Iter struct {
	r      *Reader
	offset int // offset of current entry in r.data; -1 = invalid
	next   int // offset just past current entry
	key    []byte
	value  []byte
	err    error
}

// Init binds the iterator to r, resetting position and error state but
// keeping the key buffer's capacity for reuse.
func (it *Iter) Init(r *Reader) {
	it.r = r
	it.offset = -1
	it.next = 0
	it.key = it.key[:0]
	it.value = nil
	it.err = nil
}

// decodeAt decodes the entry at off, using it.key as the prefix carrier.
// Returns the offset past the entry, or -1 on corruption (which includes an
// offset outside the block: restart offsets are read from the block itself).
func (it *Iter) decodeAt(off int) int {
	if off > len(it.r.data) {
		it.corrupt(off)
		return -1
	}
	d := it.r.data[off:]
	shared, n1 := encoding.Uvarint(d)
	if n1 == 0 {
		it.corrupt(off)
		return -1
	}
	unshared, n2 := encoding.Uvarint(d[n1:])
	if n2 == 0 {
		it.corrupt(off)
		return -1
	}
	vlen, n3 := encoding.Uvarint(d[n1+n2:])
	if n3 == 0 {
		it.corrupt(off)
		return -1
	}
	h := n1 + n2 + n3
	if rest := uint64(len(d) - h); unshared > rest || vlen > rest-unshared || uint64(len(it.key)) < shared {
		it.corrupt(off)
		return -1
	}
	it.key = append(it.key[:shared], d[h:h+int(unshared)]...)
	it.value = d[h+int(unshared) : h+int(unshared)+int(vlen)]
	return off + h + int(unshared) + int(vlen)
}

// restartEntry returns the key and value of the entry at off, a restart
// point, where they lie in the block — a restart entry shares nothing with its
// predecessor, so its whole key is contiguous — and the offset past it. ok is
// false where decodeAt would report corruption, shared != 0 included
// (seekRestart decodes against an empty key).
func (r *Reader) restartEntry(off int) (key, value []byte, next int, ok bool) {
	if off > len(r.data) {
		return nil, nil, 0, false
	}
	d := r.data[off:]
	if len(d) >= 3 && d[0] == 0 && d[1] < 0x80 && d[2] < 0x80 {
		// Every length in one byte: any entry with a short key and a value
		// under 128 bytes.
		klen, vlen := int(d[1]), int(d[2])
		if klen+vlen > len(d)-3 {
			return nil, nil, 0, false
		}
		return d[3 : 3+klen], d[3+klen : 3+klen+vlen], off + 3 + klen + vlen, true
	}
	shared, n1 := encoding.Uvarint(d)
	if n1 == 0 || shared != 0 {
		return nil, nil, 0, false
	}
	unshared, n2 := encoding.Uvarint(d[n1:])
	if n2 == 0 {
		return nil, nil, 0, false
	}
	vlen, n3 := encoding.Uvarint(d[n1+n2:])
	if n3 == 0 {
		return nil, nil, 0, false
	}
	h := n1 + n2 + n3
	if rest := uint64(len(d) - h); unshared > rest || vlen > rest-unshared {
		return nil, nil, 0, false
	}
	end := h + int(unshared) + int(vlen)
	return d[h : h+int(unshared)], d[h+int(unshared) : end], off + end, true
}

func corruptAt(off int) error { return fmt.Errorf("block: corrupt entry at offset %d", off) }

func (it *Iter) corrupt(off int) {
	it.err = corruptAt(off)
	it.offset = -1
}

func (it *Iter) Valid() bool { return it.err == nil && it.offset >= 0 }

// seekRestart positions at restart point i.
func (it *Iter) seekRestart(i int) {
	it.key = it.key[:0]
	it.offset = it.r.restartOffset(i)
	it.next = it.decodeAt(it.offset)
}

// SeekGE positions at the first entry whose key is at or after target. The
// binary search compares target with each restart key in place (restartEntry);
// only the restart it settles on is decoded into it.key, for the scan
// forward.
func (it *Iter) SeekGE(target []byte) {
	if it.err != nil {
		return
	}
	// Binary search: last restart whose key <= target.
	r := it.r
	lo, hi := 0, r.numRestarts-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		off := r.restartOffset(mid)
		key, _, _, ok := r.restartEntry(off)
		if !ok {
			it.corrupt(off)
			return
		}
		if r.cmp(key, target) <= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.seekRestart(lo)
	for it.Valid() && r.cmp(it.key, target) < 0 {
		it.Next()
	}
}

func (it *Iter) SeekToFirst() {
	if it.err != nil {
		return
	}
	if len(it.r.data) == 0 {
		it.offset = -1
		return
	}
	it.seekRestart(0)
}

func (it *Iter) Next() {
	if !it.Valid() {
		return
	}
	if it.next >= len(it.r.data) {
		it.offset = -1
		return
	}
	it.offset = it.next
	it.next = it.decodeAt(it.next)
}

func (it *Iter) Key() []byte   { return it.key }
func (it *Iter) Value() []byte { return it.value }
func (it *Iter) Error() error  { return it.err }
func (it *Iter) Close() error  { return it.err }
