// Package encoding provides the low-level binary encoding helpers shared by
// every on-disk format in the store: little-endian fixed-width integers,
// LevelDB-style varints, and length-prefixed byte slices.
//
// All encoders append to a destination slice and return the extended slice;
// all decoders return the decoded value together with the number of bytes
// consumed (0 on failure), so callers can advance through a buffer without
// extra bookkeeping.
package encoding

import "errors"

// ErrCorrupt reports a malformed or truncated encoding.
var ErrCorrupt = errors.New("encoding: corrupt data")

// MaxVarintLen64 is the maximum number of bytes a 64-bit varint occupies.
const MaxVarintLen64 = 10

// PutFixed32 appends v in little-endian order.
func PutFixed32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// PutFixed64 appends v in little-endian order.
func PutFixed64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Fixed32 decodes a little-endian uint32 from the first 4 bytes of b.
// The caller must guarantee len(b) >= 4.
func Fixed32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Fixed64 decodes a little-endian uint64 from the first 8 bytes of b.
// The caller must guarantee len(b) >= 8.
func Fixed64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// PutUvarint appends v using the base-128 varint encoding.
func PutUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// Uvarint decodes a varint from b, returning the value and the number of
// bytes consumed. It returns (0, 0) if b is truncated or malformed.
func Uvarint(b []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		if shift >= 64 || (shift == 63 && c > 1) {
			return 0, 0 // overflow
		}
		if c < 0x80 {
			return v | uint64(c)<<shift, i + 1
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0
}

// UvarintLen reports how many bytes PutUvarint(nil, v) would produce.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// PutLengthPrefixed appends a varint length followed by the bytes of s.
func PutLengthPrefixed(dst []byte, s []byte) []byte {
	dst = PutUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// GetLengthPrefixed decodes a length-prefixed slice from b. The returned
// slice aliases b. It returns (nil, 0) on truncated or malformed input; note
// that an encoded empty slice returns a non-nil empty result.
func GetLengthPrefixed(b []byte) ([]byte, int) {
	n, c := Uvarint(b)
	if c == 0 || uint64(len(b)-c) < n {
		return nil, 0
	}
	return b[c : c+int(n) : c+int(n)], c + int(n)
}
