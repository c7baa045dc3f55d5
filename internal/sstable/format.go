// Package sstable implements the on-disk sorted table: the immutable,
// block-structured file holding a sorted run of internal keys. The format
// follows LevelDB:
//
//	[data block 0]
//	[data block 1]
//	 ...
//	[filter block]   Bloom filter over the user keys of every entry
//	[index block]    separator key -> data block handle
//	[footer]         handles of filter and index blocks + magic
//
// Every block is stored as: payload | type byte | fixed32 checksum, where
// the checksum covers payload and type. The type byte is the block's codec
// (compress.Kind: 0 = raw, 2 = lz4; 1, the removed flate codec, is rejected);
// a table may mix types freely, because incompressible blocks fall back to
// raw. The checksum is CRC32C, and the footer records it (checksum.Kind; 1,
// the removed XXH3, is rejected).
// Handles are varint (offset, length-of-payload) pairs, where the length
// is the ON-DISK payload length — possibly compressed.
//
// The footer is fixed-size, so it is read with one positioned read from the
// end of the file:
//
//	handles | zero pad | checksum-kind byte | magicV2 (49 bytes)
//
// The seed-era v1 footer (no checksum-kind byte, magicV1) is removed: a
// table ending in its magic fails to open with ErrCorrupt naming it.
package sstable

import (
	"errors"
	"fmt"

	"repro/internal/checksum"
	"repro/internal/encoding"
)

const (
	// blockTrailerLen is the type byte plus the checksum.
	blockTrailerLen = 5

	// handlesLen is the maximum encoding of the footer's two handles.
	handlesLen = 2 * 2 * encoding.MaxVarintLen64
	// footerLenV2 is the footer: handles, padding, checksum-kind byte, magic.
	footerLenV2 = handlesLen + 1 + 8

	magicV1 = 0x8773b3a2c2a9d6f1 // the removed v1 footer's, recognised to name it
	magicV2 = 0x8773b3a2c2a9d6f2
)

// ErrCorrupt reports a checksum or structural failure in a table file.
var ErrCorrupt = errors.New("sstable: corrupt table")

// blockHandle locates a block's on-disk payload within the file.
type blockHandle struct {
	offset, length uint64
}

func (h blockHandle) encode(dst []byte) []byte {
	dst = encoding.PutUvarint(dst, h.offset)
	return encoding.PutUvarint(dst, h.length)
}

func decodeBlockHandle(b []byte) (blockHandle, int) {
	off, n1 := encoding.Uvarint(b)
	if n1 == 0 {
		return blockHandle{}, 0
	}
	ln, n2 := encoding.Uvarint(b[n1:])
	if n2 == 0 {
		return blockHandle{}, 0
	}
	return blockHandle{offset: off, length: ln}, n1 + n2
}

// footer is the fixed-size tail of the file.
type footer struct {
	filterHandle blockHandle
	indexHandle  blockHandle
}

// encode renders the footer.
func (f footer) encode(dst []byte) []byte {
	buf := f.filterHandle.encode(dst)
	buf = f.indexHandle.encode(buf)
	for len(buf)-len(dst) < handlesLen {
		buf = append(buf, 0)
	}
	buf = append(buf, byte(checksum.CRC32C))
	return encoding.PutFixed64(buf, magicV2)
}

// decodeFooter parses the tail of a table file, its last footerLenV2 bytes.
func decodeFooter(b []byte) (footer, error) {
	if len(b) < footerLenV2 {
		return footer{}, fmt.Errorf("%w: footer is %d bytes", ErrCorrupt, len(b))
	}
	b = b[len(b)-footerLenV2:]
	switch magic := encoding.Fixed64(b[footerLenV2-8:]); {
	case magic == magicV1:
		return footer{}, fmt.Errorf("%w: v1 footer (removed)", ErrCorrupt)
	case magic != magicV2:
		return footer{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if k := checksum.Kind(b[handlesLen]); k != checksum.CRC32C {
		return footer{}, fmt.Errorf("%w: unsupported checksum kind %v", ErrCorrupt, k)
	}
	fh, n1 := decodeBlockHandle(b)
	if n1 == 0 {
		return footer{}, fmt.Errorf("%w: bad filter handle", ErrCorrupt)
	}
	ih, n2 := decodeBlockHandle(b[n1:])
	if n2 == 0 {
		return footer{}, fmt.Errorf("%w: bad index handle", ErrCorrupt)
	}
	return footer{filterHandle: fh, indexHandle: ih}, nil
}
