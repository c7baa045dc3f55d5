// Package checksum provides the per-block checksum of the table format.
// Every block trailer carries a 32-bit checksum over the on-disk block
// payload plus the trailer's type byte; the table footer records which
// function produced it.
//
// One kind exists: CRC32C (Castagnoli), the LevelDB-lineage checksum,
// hardware-assisted on amd64/arm64 via hash/crc32. Kind 1 was XXH3, a
// from-scratch XXH-family hash, deleted because CRC32C verifies a 4 KiB
// block in less than half its time; a footer naming it fails to open.
//
// Kind values are part of the on-disk format (the footer's checksum-kind
// byte) and must never be renumbered or reused.
package checksum

import (
	"fmt"
	"hash/crc32"
)

// Kind identifies a checksum function. The zero value is CRC32C, keeping
// the zero Options and every pre-existing table valid.
type Kind uint8

const (
	// CRC32C is crc32 with the Castagnoli polynomial.
	CRC32C Kind = 0
	// removedXXH3 is reserved: tables written with XXH3 no longer open.
	removedXXH3 Kind = 1
)

// String names the kind for errors.
func (k Kind) String() string {
	switch k {
	case CRC32C:
		return "crc32c"
	case removedXXH3:
		return "xxh3 (removed)"
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
// covered so a bit flip in it is detected). CRC32C is the only kind.
func Sum(k Kind, data []byte, trailing byte) uint32 {
	crc := crc32.Update(0, crcTable, data)
	return crc32.Update(crc, crcTable, trailers[trailing][:])
}
