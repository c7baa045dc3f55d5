// Package keys defines the internal key representation of the LSM-tree.
//
// Every user key is stored internally with an 8-byte trailer holding a
// monotonically increasing sequence number (56 bits) and a kind byte
// (set or delete). Internal keys order by user key ascending, then by
// sequence number *descending*, so that for a given user key the newest
// version sorts first. This single ordering rule is what lets merge-sorted
// runs from different ages of the tree (including LDC's frozen slices)
// interleave correctly.
package keys

import (
	"bytes"
	"fmt"

	"repro/internal/encoding"
)

// Kind discriminates the operation an internal key records.
type Kind uint8

const (
	// KindDelete marks a tombstone.
	KindDelete Kind = 0
	// KindSet marks a normal key/value insertion.
	KindSet Kind = 1
	// KindBlobRef marks an entry whose value is a fixed-size pointer into
	// the value log (segment, offset, length) rather than the user value
	// itself. Readers resolve the pointer through vlog.
	KindBlobRef Kind = 2

	// KindBlobRewrite exists only in the batch/WAL wire format: a vlog GC
	// pointer rewrite guarded by the sequence it read under. It is applied
	// as a KindBlobRef (or dropped) at commit time and is never stored in a
	// memtable or SSTable, so kindMax excludes it and Valid rejects it.
	KindBlobRewrite Kind = 3

	// kindMax is used when constructing seek keys: for equal user key and
	// sequence, higher kinds sort first, so the largest storable kind works
	// as the upper bound.
	kindMax = KindBlobRef
)

// Seq is a global write sequence number. 56 usable bits.
type Seq uint64

// MaxSeq is the largest representable sequence number.
const MaxSeq Seq = (1 << 56) - 1

// TrailerLen is the length of the internal key trailer.
const TrailerLen = 8

// InternalKey is a user key plus the (seq, kind) trailer, as stored in
// memtables and SSTables.
type InternalKey []byte

// MakeInternalKey appends the encoding of (ukey, seq, kind) to dst.
func MakeInternalKey(dst []byte, ukey []byte, seq Seq, kind Kind) InternalKey {
	dst = append(dst, ukey...)
	return encoding.PutFixed64(dst, uint64(seq)<<8|uint64(kind))
}

// MakeSearchKey builds the smallest internal key that positions an iterator
// at or after every version of ukey visible at snapshot seq.
func MakeSearchKey(dst []byte, ukey []byte, seq Seq) InternalKey {
	return MakeInternalKey(dst, ukey, seq, kindMax)
}

// Valid reports whether ik is long enough to carry a trailer and has a
// recognized kind byte.
func (ik InternalKey) Valid() bool {
	if len(ik) < TrailerLen {
		return false
	}
	return Kind(ik[len(ik)-8]) <= kindMax
}

// UserKey returns the user-key prefix of ik. It aliases ik.
func (ik InternalKey) UserKey() []byte {
	return ik[:len(ik)-TrailerLen]
}

// Seq extracts the sequence number from the trailer.
func (ik InternalKey) Seq() Seq {
	return Seq(encoding.Fixed64(ik[len(ik)-TrailerLen:]) >> 8)
}

// Kind extracts the kind byte from the trailer.
func (ik InternalKey) Kind() Kind {
	return Kind(ik[len(ik)-TrailerLen])
}

// Clone returns a copy of ik that does not alias its backing array.
func (ik InternalKey) Clone() InternalKey {
	return append(InternalKey(nil), ik...)
}

// String formats ik for debugging.
func (ik InternalKey) String() string {
	if !ik.Valid() {
		return fmt.Sprintf("<invalid %x>", []byte(ik))
	}
	k := "SET"
	switch ik.Kind() {
	case KindDelete:
		k = "DEL"
	case KindBlobRef:
		k = "BLOBREF"
	}
	return fmt.Sprintf("%q/%d/%s", ik.UserKey(), ik.Seq(), k)
}

// Comparer compares keys. The store orders user keys bytewise only — LDC's
// slice windows take bytewise successors — and names that order in the
// MANIFEST; the interface lets the internal comparer and the tools that
// read tables directly name it too.
type Comparer interface {
	// Compare returns -1, 0, +1 per bytes.Compare semantics.
	Compare(a, b []byte) int
	// Name identifies the comparer; persisted in the MANIFEST so a database
	// cannot be reopened with an incompatible ordering.
	Name() string
}

// BytewiseComparer orders user keys lexicographically, like LevelDB's
// default comparator.
type BytewiseComparer struct{}

// Compare implements Comparer.
func (BytewiseComparer) Compare(a, b []byte) int { return bytes.Compare(a, b) }

// Name implements Comparer.
func (BytewiseComparer) Name() string { return "ldc.BytewiseComparator" }

// InternalComparer orders InternalKeys: user key ascending per the wrapped
// user comparer, then sequence descending, then kind descending.
type InternalComparer struct {
	User Comparer
}

// Compare implements Comparer over internal keys.
func (c InternalComparer) Compare(a, b []byte) int {
	ak, bk := InternalKey(a), InternalKey(b)
	if r := c.User.Compare(ak.UserKey(), bk.UserKey()); r != 0 {
		return r
	}
	at := encoding.Fixed64(a[len(a)-TrailerLen:])
	bt := encoding.Fixed64(b[len(b)-TrailerLen:])
	switch {
	case at > bt: // larger (seq,kind) sorts first
		return -1
	case at < bt:
		return +1
	}
	return 0
}

// Name implements Comparer.
func (c InternalComparer) Name() string { return "ldc.InternalKeyComparator:" + c.User.Name() }

// ParseInternalKey splits an encoded internal key, reporting ok=false if it
// is malformed.
func ParseInternalKey(b []byte) (ukey []byte, seq Seq, kind Kind, ok bool) {
	ik := InternalKey(b)
	if !ik.Valid() {
		return nil, 0, 0, false
	}
	return ik.UserKey(), ik.Seq(), ik.Kind(), true
}

// KeyRange is an inclusive range of user keys, as tracked per SSTable and per
// LDC slice. An empty Lo means "from the smallest possible key"; an empty Hi
// never occurs for file ranges (files always have a largest key) but is
// treated as "to the largest possible key" where ranges are clamped.
type KeyRange struct {
	Lo, Hi []byte // user keys, inclusive
}

// Contains reports whether k falls inside r under cmp.
func (r KeyRange) Contains(cmp Comparer, k []byte) bool {
	return cmp.Compare(k, r.Lo) >= 0 && cmp.Compare(k, r.Hi) <= 0
}

// Overlaps reports whether two inclusive ranges intersect.
func (r KeyRange) Overlaps(cmp Comparer, o KeyRange) bool {
	return cmp.Compare(r.Lo, o.Hi) <= 0 && cmp.Compare(o.Lo, r.Hi) <= 0
}

// Intersect clamps r to o; ok is false when they do not overlap.
func (r KeyRange) Intersect(cmp Comparer, o KeyRange) (KeyRange, bool) {
	if !r.Overlaps(cmp, o) {
		return KeyRange{}, false
	}
	out := r
	if cmp.Compare(o.Lo, out.Lo) > 0 {
		out.Lo = o.Lo
	}
	if cmp.Compare(o.Hi, out.Hi) < 0 {
		out.Hi = o.Hi
	}
	return out, true
}
