// Package memtable implements C0 of the LSM-tree: an in-memory, sorted,
// append-only table over the skiplist, holding writes until they are flushed
// to a level-0 SSTable.
//
// Each entry is packed into a single buffer as
//
//	varint(len(internal key)) | internal key | varint(len(value)) | value
//
// and the skiplist stores the whole record; its comparison function decodes
// the leading internal key. Tombstones are entries with kind=KindDelete and
// an empty value.
package memtable

import (
	"sync/atomic"

	"repro/internal/encoding"
	"repro/internal/iterator"
	"repro/internal/keys"
	"repro/internal/skiplist"
)

// chunkSize is the size of the byte chunks records are carved from. A record
// larger than a quarter of it gets an allocation of its own, so a chunk's
// unused tail stays under a quarter of its size.
const chunkSize = 64 << 10

// MemTable is safe for a single writer with concurrent readers, matching the
// skiplist contract; the DB serializes writers.
type MemTable struct {
	icmp keys.InternalComparer
	list *skiplist.List
	// approximateBytes includes per-entry encoding overhead.
	approximateBytes atomic.Int64
	// chunk is the current record chunk: len is what records have taken, cap
	// what is left. Only the single writer touches it; records carved from it
	// are never moved, and the chunk lives as long as any of them.
	chunk []byte
}

// New returns an empty memtable ordered by icmp.
func New(icmp keys.InternalComparer) *MemTable {
	m := &MemTable{icmp: icmp}
	m.list = skiplist.New(func(a, b []byte) int {
		ak, _ := decodeKey(a)
		bk, _ := decodeKey(b)
		return icmp.Compare(ak, bk)
	})
	return m
}

// decodeKey splits a packed record into its internal key and the remainder
// (the length-prefixed value).
func decodeKey(rec []byte) (ikey, rest []byte) {
	k, n := encoding.GetLengthPrefixed(rec)
	return k, rec[n:]
}

func decodeValue(rest []byte) []byte {
	v, _ := encoding.GetLengthPrefixed(rest)
	return v
}

// alloc returns an empty slice with room for exactly n bytes.
func (m *MemTable) alloc(n int) []byte {
	if n > chunkSize/4 {
		return make([]byte, 0, n)
	}
	if cap(m.chunk)-len(m.chunk) < n {
		m.chunk = make([]byte, 0, chunkSize)
	}
	off := len(m.chunk)
	m.chunk = m.chunk[:off+n]
	return m.chunk[off : off : off+n]
}

// Add inserts a (ukey, value) entry with the given sequence and kind.
// For KindDelete, value is ignored and stored empty.
func (m *MemTable) Add(seq keys.Seq, kind keys.Kind, ukey, value []byte) {
	if kind == keys.KindDelete {
		value = nil
	}
	ikeyLen := len(ukey) + keys.TrailerLen
	rec := m.alloc(encoding.UvarintLen(uint64(ikeyLen)) + ikeyLen +
		encoding.UvarintLen(uint64(len(value))) + len(value))
	rec = encoding.PutUvarint(rec, uint64(ikeyLen))
	rec = keys.MakeInternalKey(rec, ukey, seq, kind)
	rec = encoding.PutLengthPrefixed(rec, value)
	m.list.Insert(rec)
	m.approximateBytes.Add(int64(len(rec)))
}

// SearchRecord builds, into buf's capacity, the record a lookup of ukey at
// snapshot seq seeks a memtable with, and returns it with its suffix sk — the
// search key keys.MakeSearchKey builds, which is what tables are searched
// with. A read therefore builds one record and probes every memtable and
// table with it. The skiplist compares full records; one holding just the
// prefixed internal key (no value) decodes the same way because
// GetLengthPrefixed reads only the prefix.
func SearchRecord(buf, ukey []byte, seq keys.Seq) (rec []byte, sk keys.InternalKey) {
	ikeyLen := len(ukey) + keys.TrailerLen
	prefix := encoding.UvarintLen(uint64(ikeyLen))
	if cap(buf) < prefix+ikeyLen {
		buf = make([]byte, 0, prefix+ikeyLen)
	}
	rec = keys.MakeSearchKey(encoding.PutUvarint(buf[:0], uint64(ikeyLen)), ukey, seq)
	return rec, keys.InternalKey(rec[prefix:])
}

// Get looks up ukey at snapshot seq. It reports (value, true, nil) for a live
// entry, (nil, true, ErrDeleted-equivalent) semantics are avoided: instead it
// returns (nil, false, true) for "found a tombstone" via the deleted flag.
// found==false means the memtable has no visible version of ukey.
func (m *MemTable) Get(ukey []byte, seq keys.Seq) (value []byte, deleted, found bool) {
	rec, _ := SearchRecord(nil, ukey, seq)
	value, kind, found := m.GetEntry(rec)
	return value, found && kind == keys.KindDelete, found
}

// GetEntry looks up the newest version of a user key visible at a snapshot,
// both named by rec (see SearchRecord), with the entry kind exposed: under
// value separation the newest version may be a pointer entry
// (keys.KindBlobRef) whose payload the caller must resolve through the value
// log rather than return verbatim.
func (m *MemTable) GetEntry(rec []byte) (value []byte, kind keys.Kind, found bool) {
	it := m.list.NewIterator()
	it.SeekGE(rec)
	if !it.Valid() {
		return nil, 0, false
	}
	sk, _ := decodeKey(rec)
	ikey, rest := decodeKey(it.Key())
	if m.icmp.User.Compare(keys.InternalKey(ikey).UserKey(), keys.InternalKey(sk).UserKey()) != 0 {
		return nil, 0, false
	}
	k := keys.InternalKey(ikey).Kind()
	if k == keys.KindDelete {
		return nil, k, true
	}
	return decodeValue(rest), k, true
}

// LatestSeq reports the newest sequence number stored for ukey, of any kind.
// The value-log GC's commit-time rewrite guard uses it to detect writes that
// landed between its liveness read and the rewrite's application.
func (m *MemTable) LatestSeq(ukey []byte) (keys.Seq, bool) {
	it := m.list.NewIterator()
	rec, _ := SearchRecord(nil, ukey, keys.MaxSeq)
	it.SeekGE(rec)
	if !it.Valid() {
		return 0, false
	}
	ikey, _ := decodeKey(it.Key())
	if m.icmp.User.Compare(keys.InternalKey(ikey).UserKey(), ukey) != 0 {
		return 0, false
	}
	return keys.InternalKey(ikey).Seq(), true
}

// ApproximateBytes reports the memory consumed by entries, used for the
// flush trigger.
func (m *MemTable) ApproximateBytes() int64 { return m.approximateBytes.Load() }

// Len reports the number of entries.
func (m *MemTable) Len() int { return m.list.Len() }

// Empty reports whether the table has no entries.
func (m *MemTable) Empty() bool { return m.list.Len() == 0 }

// NewIterator returns an iterator over internal keys, satisfying the store's
// iterator contract.
func (m *MemTable) NewIterator() iterator.Iterator {
	it := new(Iter)
	it.Init(m)
	return it
}

// Iter is an iterator over a memtable's internal keys. An owner that opens
// one per read keeps it by value and rebinds it with Init, which keeps the
// buffer its seeks build their record in: once warm, binding and seeking one
// allocates nothing.
type Iter struct {
	cur  skiplist.Iterator
	seek []byte // the length-prefixed record of the last seek target
}

// Init binds it, unpositioned, to m.
func (it *Iter) Init(m *MemTable) { it.cur.Init(m.list) }

func (it *Iter) Valid() bool { return it.cur.Valid() }

func (it *Iter) SeekGE(target []byte) {
	it.seek = encoding.PutLengthPrefixed(it.seek[:0], target)
	it.cur.SeekGE(it.seek)
}

func (it *Iter) SeekToFirst() { it.cur.SeekToFirst() }
func (it *Iter) Next()        { it.cur.Next() }

func (it *Iter) Key() []byte {
	k, _ := decodeKey(it.cur.Key())
	return k
}

func (it *Iter) Value() []byte {
	_, rest := decodeKey(it.cur.Key())
	return decodeValue(rest)
}

func (it *Iter) Error() error { return nil }

// Close unbinds the iterator, so that an owner keeping it for a later read
// keeps no memtable alive; Init binds it again.
func (it *Iter) Close() error {
	it.cur.Init(nil)
	return nil
}
