// Package vlog implements the value log: an append-only, segmented store
// for large values kept out of the LSM-tree (WiscKey/BlobDB-style value
// separation). The tree stores fixed-size pointer entries (KindBlobRef);
// the bytes themselves live in checksummed records here, so compactions
// move 20-byte pointers instead of kilobyte values.
//
// Each shard owns one Log in its own directory and appends through one
// Writer, so segment numbers and offsets are per shard and the group-commit
// leaders of different shards never contend on an offset.
// Segments are never appended to after reopen: recovery seals what it
// finds (scanning from the front and logically truncating a torn tail)
// and writers always start fresh segments.
//
// Record wire format, in segment-file order:
//
//	fixed32 crc32c   over everything after this field
//	uvarint keyLen
//	uvarint valLen
//	key bytes        (kept so GC can test liveness without a reverse index)
//	value bytes
//
// A Pointer names a record as (segment, offset, length) and is what the
// LSM stores as a KindBlobRef entry's value.
package vlog

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/encoding"
)

// ErrCorrupt reports a record that fails structural or checksum
// validation. The decoder is bounds-checked end to end: arbitrary input
// yields ErrCorrupt, never a panic (same contract as the LZ4 decoder).
var ErrCorrupt = errors.New("vlog: corrupt record")

// ErrSegmentGone reports a pointer into a segment the log does not have: a
// dangling pointer. It is never a race to retry — GC unlinks a segment only
// once no reader can still hold a pointer into it — except for GC itself,
// which may find a listed segment already reclaimed.
var ErrSegmentGone = errors.New("vlog: segment gone")

// PointerLen is the encoded size of a Pointer: fixed64 segment,
// fixed64 offset, fixed32 record length.
const PointerLen = 20

// recordHeaderLen is the fixed prefix before the varint lengths.
const recordHeaderLen = 4

// maxRecordLen bounds a single record. It exists so a corrupt length
// field cannot drive a giant allocation during recovery scans.
const maxRecordLen = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Pointer locates one record in the log.
type Pointer struct {
	Segment uint64
	Offset  uint64
	Length  uint32 // full on-disk record length, including the crc header
}

// Encode appends the fixed 20-byte encoding of p to dst.
func (p Pointer) Encode(dst []byte) []byte {
	dst = encoding.PutFixed64(dst, p.Segment)
	dst = encoding.PutFixed64(dst, p.Offset)
	return encoding.PutFixed32(dst, p.Length)
}

// String formats p for debugging and errors.
func (p Pointer) String() string {
	return fmt.Sprintf("vlog(%d@%d+%d)", p.Segment, p.Offset, p.Length)
}

// DecodePointer parses the fixed encoding produced by Encode. ok is false
// when b is not exactly PointerLen bytes.
func DecodePointer(b []byte) (Pointer, bool) {
	if len(b) != PointerLen {
		return Pointer{}, false
	}
	return Pointer{
		Segment: encoding.Fixed64(b),
		Offset:  encoding.Fixed64(b[8:]),
		Length:  encoding.Fixed32(b[16:]),
	}, true
}

// AppendRecord appends the encoding of (key, value) to dst and returns the
// extended slice.
func AppendRecord(dst, key, value []byte) []byte {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	dst = encoding.PutUvarint(dst, uint64(len(key)))
	dst = encoding.PutUvarint(dst, uint64(len(value)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	crc := crc32.Checksum(dst[base+recordHeaderLen:], crcTable)
	encoding.PutFixed32(dst[base:base], crc)
	return dst
}

// DecodeRecord parses one record from the front of b. key and value alias
// b. n is the total record length consumed. Any structural violation —
// truncation, oversized lengths, checksum mismatch — returns ErrCorrupt.
func DecodeRecord(b []byte) (key, value []byte, n int, err error) {
	if len(b) < recordHeaderLen {
		return nil, nil, 0, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(b))
	}
	crc := encoding.Fixed32(b)
	p := b[recordHeaderLen:]
	keyLen, kn := encoding.Uvarint(p)
	if kn <= 0 {
		return nil, nil, 0, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	p = p[kn:]
	valLen, vn := encoding.Uvarint(p)
	if vn <= 0 {
		return nil, nil, 0, fmt.Errorf("%w: bad value length", ErrCorrupt)
	}
	p = p[vn:]
	if keyLen > maxRecordLen || valLen > maxRecordLen ||
		uint64(len(p)) < keyLen+valLen {
		return nil, nil, 0, fmt.Errorf("%w: lengths exceed input", ErrCorrupt)
	}
	n = recordHeaderLen + kn + vn + int(keyLen) + int(valLen)
	if crc32.Checksum(b[recordHeaderLen:n], crcTable) != crc {
		return nil, nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	key = p[:keyLen]
	value = p[keyLen : keyLen+valLen]
	return key, value, n, nil
}
