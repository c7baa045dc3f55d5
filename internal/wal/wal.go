// Package wal implements the write-ahead log, using LevelDB's record
// framing: the file is a sequence of 32 KiB blocks; each record fragment
// carries a 7-byte header (CRC, length, type) and records spanning blocks
// are split into FIRST/MIDDLE/LAST fragments. The format makes torn tails
// detectable: recovery reads records until the first corrupt or truncated
// fragment and discards the rest.
//
// The same framing stores both the WAL and the MANIFEST, as in LevelDB.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/encoding"
	"repro/internal/vfs"
)

const (
	// BlockSize is the framing block size.
	BlockSize = 32 << 10
	headerLen = 7 // crc(4) + length(2) + type(1)

	typeFull   = 1
	typeFirst  = 2
	typeMiddle = 3
	typeLast   = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// typeCRC[t] is the CRC state after the type byte t, which every fragment's
// checksum starts with (LevelDB's type_crc_).
var typeCRC = func() (crcs [typeLast + 1]uint32) {
	for t := range crcs {
		crcs[t] = crc32.Update(0, crcTable, []byte{byte(t)})
	}
	return crcs
}()

// zeroPad is what a block tail too short for a header is filled with.
var zeroPad [headerLen - 1]byte

// ErrCorrupt reports a damaged log; by construction it only arises at the
// point the log was torn, so records before it are trustworthy.
var ErrCorrupt = errors.New("wal: corrupt log")

// Writer appends length-prefixed records to a log file. The append and
// durability stages are split: AddRecord stages a record (into the writer's
// coalescing buffer when one is configured), Flush pushes staged bytes to
// the OS, and Sync additionally fsyncs — so a commit pipeline can append
// under its store lock and pay the fsync outside it.
type Writer struct {
	f           vfs.File
	blockOffset int // offset within the current block
	buf         []byte

	// pending is the owned coalescing buffer (nil = unbuffered). It models
	// the OS page cache for unsynced WALs: the device below sees large
	// sequential writes instead of per-record ones.
	pending []byte
	bufSize int
}

// NewWriter starts an unbuffered log at the beginning of f; every fragment
// is written straight through (the MANIFEST uses this mode).
func NewWriter(f vfs.File) *Writer {
	return &Writer{f: f}
}

// NewWriterSize starts a log whose appends coalesce in an owned buffer of
// roughly bufSize bytes; Flush or Sync push them down. bufSize <= 0 falls
// back to 32 KiB.
func NewWriterSize(f vfs.File, bufSize int) *Writer {
	if bufSize <= 0 {
		bufSize = 32 << 10
	}
	return &Writer{f: f, pending: make([]byte, 0, bufSize), bufSize: bufSize}
}

// write stages p: buffered writers accumulate until bufSize, unbuffered ones
// delegate immediately.
func (w *Writer) write(p []byte) error {
	if w.bufSize == 0 {
		_, err := w.f.Write(p)
		return err
	}
	w.pending = append(w.pending, p...)
	if len(w.pending) >= w.bufSize {
		return w.Flush()
	}
	return nil
}

// Flush pushes buffered appends to the OS (no fsync).
func (w *Writer) Flush() error {
	if len(w.pending) == 0 {
		return nil
	}
	_, err := w.f.Write(w.pending)
	w.pending = w.pending[:0]
	return err
}

// AddRecord appends one record and returns when it is buffered in the OS;
// call Sync for durability.
func (w *Writer) AddRecord(rec []byte) error {
	first := true
	for {
		leftover := BlockSize - w.blockOffset
		if leftover < headerLen {
			// Pad the block tail with zeros; readers skip it.
			if leftover > 0 {
				if err := w.write(zeroPad[:leftover]); err != nil {
					return err
				}
			}
			w.blockOffset = 0
			leftover = BlockSize
		}
		avail := leftover - headerLen
		frag := rec
		if len(frag) > avail {
			frag = rec[:avail]
		}
		rec = rec[len(frag):]
		var typ byte
		last := len(rec) == 0
		switch {
		case first && last:
			typ = typeFull
		case first:
			typ = typeFirst
		case last:
			typ = typeLast
		default:
			typ = typeMiddle
		}
		if err := w.writeFragment(typ, frag); err != nil {
			return err
		}
		first = false
		if last {
			return nil
		}
	}
}

func (w *Writer) writeFragment(typ byte, frag []byte) error {
	w.buf = w.buf[:0]
	crc := crc32.Update(typeCRC[typ], crcTable, frag)
	w.buf = encoding.PutFixed32(w.buf, crc)
	w.buf = append(w.buf, byte(len(frag)), byte(len(frag)>>8), typ)
	w.buf = append(w.buf, frag...)
	if err := w.write(w.buf); err != nil {
		return err
	}
	w.blockOffset += len(w.buf)
	return nil
}

// Sync flushes staged appends and fsyncs the log to stable storage.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Reader replays records from a log file.
type Reader struct {
	f      vfs.File
	off    int64
	block  [BlockSize]byte
	blockN int // valid bytes in block
	blockI int // cursor within block
	eof    bool
}

// NewReader reads the log in f from the start.
func NewReader(f vfs.File) *Reader {
	return &Reader{f: f}
}

// Next returns the next record, io.EOF at the clean end of the log, or an
// error wrapping ErrCorrupt at a torn/damaged point. A log that is all zeros
// from a record boundary to the end of the file ends cleanly there.
func (r *Reader) Next() ([]byte, error) {
	var rec []byte
	inFragmented := false
	for {
		if r.blockI+headerLen > r.blockN {
			// Rest of block is padding (or truncated tail).
			if err := r.readBlock(); err != nil {
				if err == io.EOF && inFragmented {
					return nil, fmt.Errorf("%w: log ended mid-record", ErrCorrupt)
				}
				return nil, err
			}
			continue
		}
		hdr := r.block[r.blockI : r.blockI+headerLen]
		if isZero(hdr) {
			// The writer never writes a zero header (a fragment's type is never
			// 0) and pads only block tails too short for one, which the check
			// above skips. Zeros from here to the end of the file are a file
			// grown past its last write, as a crash can leave it: the log ends
			// here. Zeros with anything after them are damage, not padding to
			// skip: skipping would leave a hole where records were.
			zero, err := r.zeroToEnd()
			switch {
			case err != nil:
				return nil, err
			case !zero:
				return nil, fmt.Errorf("%w: zero header before the end of the log", ErrCorrupt)
			case inFragmented:
				return nil, fmt.Errorf("%w: log ended mid-record", ErrCorrupt)
			}
			return nil, io.EOF
		}
		length := int(hdr[4]) | int(hdr[5])<<8
		typ := hdr[6]
		if r.blockI+headerLen+length > r.blockN {
			return nil, fmt.Errorf("%w: fragment overruns block", ErrCorrupt)
		}
		frag := r.block[r.blockI+headerLen : r.blockI+headerLen+length]
		crc := crc32.Update(0, crcTable, []byte{typ})
		crc = crc32.Update(crc, crcTable, frag)
		if crc != encoding.Fixed32(hdr) {
			return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
		r.blockI += headerLen + length

		switch typ {
		case typeFull:
			if inFragmented {
				return nil, fmt.Errorf("%w: FULL inside fragmented record", ErrCorrupt)
			}
			return append([]byte(nil), frag...), nil
		case typeFirst:
			if inFragmented {
				return nil, fmt.Errorf("%w: FIRST inside fragmented record", ErrCorrupt)
			}
			inFragmented = true
			rec = append(rec[:0], frag...)
		case typeMiddle:
			if !inFragmented {
				return nil, fmt.Errorf("%w: orphan MIDDLE fragment", ErrCorrupt)
			}
			rec = append(rec, frag...)
		case typeLast:
			if !inFragmented {
				return nil, fmt.Errorf("%w: orphan LAST fragment", ErrCorrupt)
			}
			return append(rec, frag...), nil
		default:
			return nil, fmt.Errorf("%w: unknown fragment type %d", ErrCorrupt, typ)
		}
	}
}

// zeroToEnd reports whether every byte of the log from the cursor on is zero.
// It reads the rest of the log to find out.
func (r *Reader) zeroToEnd() (bool, error) {
	for {
		if !isZero(r.block[r.blockI:r.blockN]) {
			return false, nil
		}
		switch err := r.readBlock(); {
		case err == io.EOF:
			return true, nil
		case err != nil:
			return false, err
		}
	}
}

func isZero(b []byte) bool { return len(bytes.TrimLeft(b, "\x00")) == 0 }

func (r *Reader) readBlock() error {
	if r.eof {
		return io.EOF
	}
	n, err := r.f.ReadAt(r.block[:], r.off)
	r.off += int64(n)
	r.blockN, r.blockI = n, 0
	if err == io.EOF {
		r.eof = true
		if n == 0 {
			return io.EOF
		}
		return nil
	}
	return err
}
