package compress

import (
	"fmt"
	"math"
	"sync"
)

// The LZ4-class codec: a byte-oriented LZ77 with a greedy hash-table match
// finder and a token-per-sequence stream, written from scratch for this
// repository. The stream is a run of sequences:
//
//	token     1 byte: high nibble = literal count, low nibble = match
//	          length - minMatch; nibble value 15 means "extended below"
//	litExt    0+ bytes: while a byte is 255, keep adding; the first
//	          byte < 255 terminates (only when literal nibble == 15)
//	literals  literal bytes, copied verbatim
//	offset    2 bytes little-endian, 1..65535, distance back into the
//	          already-decoded output
//	matchExt  0+ bytes, same scheme as litExt (only when match nibble == 15)
//
// The final sequence of a stream ends after its literals: when the input
// is exhausted immediately after a literal run, there is no offset and no
// match. Matches are at least minMatch (4) bytes, so every offset/length
// pair earns back more than the 3 bytes it costs to encode.
const (
	lz4MinMatch  = 4
	lz4MaxOffset = 1 << 16
	// lz4HashBits sizes the match-finder table: 1<<14 entries covers a
	// 4 KiB..64 KiB block with few collisions while the table (64 KiB)
	// stays cache-resident.
	lz4HashBits = 14
	lz4HashLen  = 1 << lz4HashBits
)

// lz4Hash maps the 4 bytes at p[i:] to a table slot (multiplicative
// hashing on the little-endian load; the constant is 2654435761, Knuth's
// golden-ratio multiplier, as LZ4 itself uses).
func lz4Hash(v uint32) uint32 { return (v * 2654435761) >> (32 - lz4HashBits) }

func load32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

// lz4Table is a match finder's hash table, recycled through lz4TablePool
// WITHOUT clearing it between blocks: zeroing 64 KiB per 4 KiB block would
// cost more than the compression. What makes the stale slots harmless is
// base, LZ4's own scheme: a call stores position i as base+i and trusts only
// slots at or above its base, then moves base past every position it stored.
// Whatever earlier blocks left in the table reads as empty, so the output is a
// function of the input alone. The table is cleared only when base would
// overflow, once every 2 GiB of input.
type lz4Table struct {
	slots [lz4HashLen]int32
	base  int32 // > every slot written so far; 0 slots read as empty
}

var lz4TablePool = sync.Pool{New: func() interface{} { return &lz4Table{base: 1} }}

// lz4Compress appends the encoding of src to dst, reporting false once the
// output would exceed budget bytes (the incompressible bailout; the caller
// then stores the block raw).
func lz4Compress(dst, src []byte, budget int) ([]byte, bool) {
	t := lz4TablePool.Get().(*lz4Table)
	defer lz4TablePool.Put(t)
	return t.compress(dst, src, budget)
}

func (t *lz4Table) compress(dst, src []byte, budget int) ([]byte, bool) {
	if int64(t.base)+int64(len(src)) > math.MaxInt32 {
		*t = lz4Table{base: 1}
	}
	base := int(t.base)
	t.base += int32(len(src))
	table := &t.slots
	litStart := 0 // start of the pending literal run
	i := 0
	// Matches must leave minMatch bytes of tail so the last-literals rule
	// of the decoder holds (and load32 stays in bounds).
	limit := len(src) - lz4MinMatch

	emit := func(litEnd, matchLen, offset int) bool {
		litLen := litEnd - litStart
		// Worst case bytes: token + extended lengths + literals + offset.
		need := 1 + litLen/255 + 1 + litLen + 2 + matchLen/255 + 1
		if len(dst)+need > budget {
			return false
		}
		tok := byte(0)
		if litLen >= 15 {
			tok = 15 << 4
		} else {
			tok = byte(litLen) << 4
		}
		m := 0
		if matchLen > 0 {
			m = matchLen - lz4MinMatch
			if m >= 15 {
				tok |= 15
			} else {
				tok |= byte(m)
			}
		}
		dst = append(dst, tok)
		if litLen >= 15 {
			for v := litLen - 15; ; v -= 255 {
				if v >= 255 {
					dst = append(dst, 255)
					continue
				}
				dst = append(dst, byte(v))
				break
			}
		}
		dst = append(dst, src[litStart:litEnd]...)
		if matchLen == 0 {
			return true // final literals: no offset, no match length
		}
		dst = append(dst, byte(offset), byte(offset>>8))
		if m >= 15 {
			for v := m - 15; ; v -= 255 {
				if v >= 255 {
					dst = append(dst, 255)
					continue
				}
				dst = append(dst, byte(v))
				break
			}
		}
		return true
	}

	// step grows as matches keep failing (LZ4's acceleration), so runs of
	// incompressible data are skipped over instead of probed byte by byte.
	misses := 0
	for i < limit {
		v := load32(src, i)
		slot := &table[lz4Hash(v)]
		cand := int(*slot) - base // negative: empty, or left by an earlier block
		*slot = int32(base + i)
		if cand >= 0 && cand < i && i-cand < lz4MaxOffset && load32(src, cand) == v {
			// Extend the match forward; the greedy finder takes the first
			// hit rather than searching a chain.
			matchLen := lz4MinMatch
			for i+matchLen < len(src) && src[cand+matchLen] == src[i+matchLen] {
				matchLen++
			}
			if !emit(i, matchLen, i-cand) {
				return dst, false
			}
			// Seed the table inside the match so the next search can land
			// mid-copy (one probe per 3 bytes keeps the cost linear).
			end := i + matchLen
			for j := i + 1; j+lz4MinMatch <= end && j < limit; j += 3 {
				table[lz4Hash(load32(src, j))] = int32(base + j)
			}
			i = end
			litStart = i
			misses = 0
			continue
		}
		misses++
		i += 1 + misses>>6
	}
	if !emit(len(src), 0, 0) {
		return dst, false
	}
	return dst, true
}

// lz4Decompress decodes stream into dst, whose length is the declared
// decompressed size. Every read of the stream and every write of dst is
// bounds-checked up front; malformed input returns ErrCorrupt and can
// neither panic nor read or write out of bounds. A stream that finishes
// early or wants to overflow dst disagrees with the length header and is
// equally corrupt.
func lz4Decompress(dst, stream []byte) error {
	di, si := 0, 0
	readExt := func(base int) (int, bool) {
		n := base
		for {
			if si >= len(stream) {
				return 0, false
			}
			b := stream[si]
			si++
			n += int(b)
			if n > maxDecodedLen { // poisoned extension bytes
				return 0, false
			}
			if b != 255 {
				return n, true
			}
		}
	}
	for {
		if si >= len(stream) {
			return fmt.Errorf("%w: lz4 stream ends before output is complete", ErrCorrupt)
		}
		tok := stream[si]
		si++
		litLen := int(tok >> 4)
		if litLen == 15 {
			var ok bool
			if litLen, ok = readExt(15); !ok {
				return fmt.Errorf("%w: lz4 literal length truncated", ErrCorrupt)
			}
		}
		if litLen > len(stream)-si || litLen > len(dst)-di {
			return fmt.Errorf("%w: lz4 literal run overflows", ErrCorrupt)
		}
		copy(dst[di:], stream[si:si+litLen])
		di += litLen
		si += litLen
		if si == len(stream) {
			// Final sequence: literals only. The output must be exactly full.
			if di != len(dst) {
				return fmt.Errorf("%w: lz4 stream produced %d of %d bytes", ErrCorrupt, di, len(dst))
			}
			return nil
		}
		if len(stream)-si < 2 {
			return fmt.Errorf("%w: lz4 match offset truncated", ErrCorrupt)
		}
		offset := int(stream[si]) | int(stream[si+1])<<8
		si += 2
		if offset == 0 || offset > di {
			return fmt.Errorf("%w: lz4 match offset %d outside decoded output %d", ErrCorrupt, offset, di)
		}
		matchLen := int(tok & 15)
		if matchLen == 15 {
			var ok bool
			if matchLen, ok = readExt(15); !ok {
				return fmt.Errorf("%w: lz4 match length truncated", ErrCorrupt)
			}
		}
		matchLen += lz4MinMatch
		if matchLen > len(dst)-di {
			return fmt.Errorf("%w: lz4 match overflows output", ErrCorrupt)
		}
		// Byte-at-a-time on purpose: offsets smaller than the match length
		// mean the copy overlaps its own output (run-length encoding).
		for j := 0; j < matchLen; j++ {
			dst[di] = dst[di-offset]
			di++
		}
	}
}
