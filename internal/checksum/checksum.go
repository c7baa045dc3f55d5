// Package checksum provides the pluggable per-block checksums of the table
// format. Every block trailer carries a 32-bit checksum over the on-disk
// block payload plus the trailer's type byte; which function produced it is
// a per-table choice recorded in the table footer.
//
// Two kinds exist:
//
//   - CRC32C (Castagnoli), the LevelDB-lineage default. Hardware-assisted
//     on amd64/arm64 via hash/crc32, byte-at-a-time elsewhere.
//   - XXH3, a from-scratch XXH-family non-cryptographic hash: an XXH64-style
//     4-lane stripe loop for long inputs with an XXH3-style multiply-fold
//     short-input path, finalized by a 64→32-bit avalanche fold. On machines
//     without a CRC instruction this is the faster verify.
//
// Kind values are part of the on-disk format (the footer's checksum-kind
// byte) and must never be renumbered.
package checksum

import (
	"fmt"
	"hash/crc32"
	"math/bits"

	"repro/internal/encoding"
)

// Kind identifies a checksum function. The zero value is CRC32C, keeping
// the zero Options and every pre-existing table valid.
type Kind uint8

const (
	// CRC32C is crc32 with the Castagnoli polynomial (the default).
	CRC32C Kind = 0
	// XXH3 is the repo's from-scratch XXH-family 64-bit hash truncated to
	// 32 bits.
	XXH3 Kind = 1

	numKinds = 2
)

// Valid reports whether k names a known checksum function.
func (k Kind) Valid() bool { return k < numKinds }

// String names the kind for options, stats, and errors.
func (k Kind) String() string {
	switch k {
	case CRC32C:
		return "crc32c"
	case XXH3:
		return "xxh3"
	default:
		return fmt.Sprintf("checksum(%d)", uint8(k))
	}
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// trailers holds every one-byte slice Sum can need: a fresh []byte{b} per call
// escapes into crc32 and allocates, once per block read or written.
var trailers = func() (t [256][1]byte) {
	for i := range t {
		t[i][0] = byte(i)
	}
	return t
}()

// Sum computes the 32-bit checksum of kind k over data followed by the
// single trailing byte (the block trailer's type byte, which must be
// covered so a bit flip in it is detected).
func Sum(k Kind, data []byte, trailing byte) uint32 {
	switch k {
	case XXH3:
		return fold32(xxhash64(data, uint64(trailing)))
	default:
		crc := crc32.Update(0, crcTable, data)
		return crc32.Update(crc, crcTable, trailers[trailing][:])
	}
}

// fold32 reduces a 64-bit hash to 32 bits without discarding the high
// half's entropy (XXH3's canonical truncation xors the halves).
func fold32(h uint64) uint32 { return uint32(h) ^ uint32(h>>32) }

// XXH64-style primes. The values are the published XXH constants; the
// implementation below is written from scratch against the algorithm
// description.
const (
	prime1 = 0x9E3779B185EBCA87
	prime2 = 0xC2B2AE3D27D4EB4F
	prime3 = 0x165667B19E3779F9
	prime4 = 0x85EBCA77C2B2AE63
	prime5 = 0x27D4EB2F165667C5
)

// xxhash64 hashes data with the given seed. Inputs of at most 32 bytes
// (every block trailer checksum's tail, and short test vectors) take the
// fold-only path; longer inputs run the 4-accumulator stripe loop.
func xxhash64(data []byte, seed uint64) uint64 {
	n := len(data)
	var h uint64
	if n >= 32 {
		v1 := seed + prime1 + prime2
		v2 := seed + prime2
		v3 := seed
		v4 := seed - prime1
		for len(data) >= 32 {
			v1 = round(v1, encoding.Fixed64(data[0:8]))
			v2 = round(v2, encoding.Fixed64(data[8:16]))
			v3 = round(v3, encoding.Fixed64(data[16:24]))
			v4 = round(v4, encoding.Fixed64(data[24:32]))
			data = data[32:]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = mergeRound(h, v1)
		h = mergeRound(h, v2)
		h = mergeRound(h, v3)
		h = mergeRound(h, v4)
	} else {
		h = seed + prime5
	}
	h += uint64(n)
	for len(data) >= 8 {
		h ^= round(0, encoding.Fixed64(data[:8]))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
		data = data[8:]
	}
	if len(data) >= 4 {
		h ^= uint64(encoding.Fixed32(data[:4])) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		data = data[4:]
	}
	for _, b := range data {
		h ^= uint64(b) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

func round(acc, input uint64) uint64 {
	acc += input * prime2
	return bits.RotateLeft64(acc, 31) * prime1
}

func mergeRound(acc, val uint64) uint64 {
	acc ^= round(0, val)
	return acc*prime1 + prime4
}
