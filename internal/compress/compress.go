// Package compress provides the per-block codecs of the table format. A
// block is compressed independently (the block is the unit of reading and
// caching), and the codec that produced it is recorded in the block
// trailer's type byte, so one table may legitimately mix codecs: every
// block that fails to earn its keep is stored raw.
//
// One real codec exists behind the Kind byte: LZ4, a from-scratch LZ4-class
// byte-oriented codec (greedy hash-table match finder, literal/match token
// stream). Kind 1 was stdlib DEFLATE, deleted because it compressed less and
// filled slower than LZ4 in the format exhibit; a block that names it fails
// to decode.
//
// Compress applies the incompressible-block bailout: unless the
// encoded form saves at least 1/8th (12.5%) of the input, the block is
// stored raw, so high-entropy data (Bloom filters, already-compressed
// values) never pays a decompression tax on read.
//
// Kind values are part of the on-disk format (the block trailer type byte)
// and must never be renumbered or reused.
package compress

import (
	"errors"
	"fmt"

	"repro/internal/encoding"
)

// Kind identifies a block codec. The zero value is None (raw), keeping the
// zero Options and every pre-existing table valid.
type Kind uint8

const (
	// None stores blocks raw (the default, and the fallback when a block is
	// incompressible).
	None Kind = 0
	// removedFlate is reserved: blocks written with DEFLATE no longer decode.
	removedFlate Kind = 1
	// LZ4 is the from-scratch LZ4-class codec in this package.
	LZ4 Kind = 2
)

// Valid reports whether k names a codec this build can decode.
func (k Kind) Valid() bool { return k == None || k == LZ4 }

// String names the codec for options, stats, and errors.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case removedFlate:
		return "flate (removed)"
	case LZ4:
		return "lz4"
	default:
		return fmt.Sprintf("compression(%d)", uint8(k))
	}
}

// ErrCorrupt reports an undecodable compressed payload: truncated stream,
// impossible match reference, or a length header that disagrees with the
// stream. The sstable reader wraps it into its own corruption error.
var ErrCorrupt = errors.New("compress: corrupt payload")

// maxDecodedLen caps the decompressed size a payload may claim, so a
// corrupt length header cannot demand an arbitrarily large allocation
// before decoding proves it wrong. Far above any real block (blocks are
// cut at Options.BlockSize, typically 4 KiB).
const maxDecodedLen = 1 << 28

// Compress encodes src with codec k into a payload for a block of the
// returned kind. When k is not LZ4, or the encoded form does not save at
// least 1/8th of src, src itself is returned with kind None — the caller
// stores the block raw. An LZ4 payload is uvarint(len(src)) || stream, so
// Decompress can size its output exactly.
// scratch, if non-nil, may be used as the output buffer (the table writer
// reuses one across blocks); the returned slice aliases either scratch or
// src and is only valid until the next call with the same scratch.
func Compress(k Kind, scratch, src []byte) ([]byte, Kind) {
	if k != LZ4 || len(src) == 0 {
		return src, None
	}
	// Bail out unless the encoding saves >= 1/8th of the input. The encoder
	// is handed a budget-capped destination so it can abandon an
	// incompressible block early instead of finishing a too-big encoding.
	budget := len(src) - len(src)/8
	dst, ok := lz4Compress(encoding.PutUvarint(scratch[:0], uint64(len(src))), src, budget)
	if !ok || len(dst) > budget {
		return src, None
	}
	return dst, k
}

// Decompress decodes a payload produced by Compress with codec k. For
// None the payload is returned as-is. The result is always freshly
// allocated for compressed kinds (it outlives the read buffer in the block
// cache). Corrupt or truncated payloads return ErrCorrupt — never a panic
// or an over-read.
func Decompress(k Kind, payload []byte) ([]byte, error) {
	if k == None {
		return payload, nil
	}
	if !k.Valid() {
		return nil, fmt.Errorf("%w: unsupported codec %v", ErrCorrupt, k)
	}
	rawLen, n := encoding.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad length header", ErrCorrupt)
	}
	if rawLen == 0 {
		// Compress never emits an empty compressed block (empty input stays
		// raw), so a zero length header is corruption, not an empty result.
		return nil, fmt.Errorf("%w: zero length header", ErrCorrupt)
	}
	if rawLen > maxDecodedLen {
		return nil, fmt.Errorf("%w: claimed length %d exceeds limit", ErrCorrupt, rawLen)
	}
	dst := make([]byte, rawLen)
	return dst, lz4Decompress(dst, payload[n:])
}
