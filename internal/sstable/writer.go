package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/block"
	"repro/internal/bloom"
	"repro/internal/checksum"
	"repro/internal/compress"
	"repro/internal/encoding"
	"repro/internal/keys"
	"repro/internal/vfs"
)

// WriterOptions configures table construction.
type WriterOptions struct {
	// Cmp orders internal keys.
	Cmp keys.InternalComparer
	// BlockSize is the uncompressed data block size threshold (default 4 KiB).
	BlockSize int
	// BloomBitsPerKey sizes the filter; 0 disables the filter block.
	BloomBitsPerKey int
	// Compression selects the per-block codec (default compress.None).
	// Individual blocks that do not compress well enough are stored raw
	// regardless; the block trailer's type byte records the outcome.
	Compression compress.Kind
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = 4 << 10
	}
	return o
}

// Props are the table's properties as known after Finish.
type Props struct {
	Entries     int
	FileSize    int64
	Smallest    keys.InternalKey
	Largest     keys.InternalKey
	DataBlocks  int
	FilterBytes int
	RawKeyBytes int64
	RawValBytes int64
	// UncompressedBytes and CompressedBytes are the total block payload
	// bytes before and after per-block compression (equal when every block
	// stored raw); their ratio is the table's compression ratio.
	UncompressedBytes int64
	CompressedBytes   int64
	// CompressedBlocks counts blocks that actually stored compressed (the
	// remainder hit the incompressible bailout or had Compression == None).
	CompressedBlocks int
	// BlobRefs counts value-log pointer entries (keys.KindBlobRef) in the
	// table; BlobRefBytes is the total referenced record size — the bytes
	// this table keeps live in the value log. The pointer's trailing fixed32
	// is the record length (see vlog.Pointer), decoded here without a vlog
	// dependency.
	BlobRefs     int
	BlobRefBytes int64
}

// Writer builds one table. Add keys in strictly increasing internal-key
// order, then call Finish.
type Writer struct {
	opts   WriterOptions
	f      vfs.File
	offset uint64

	// writerBufs holds the buffers that grow with the table. It comes from
	// writerPool and goes back at Finish, and is nil after that.
	*writerBufs

	// pendingIndex defers the index entry for a finished data block until
	// the next key is known, so a shortened separator can be used.
	pendingHandle blockHandle
	havePending   bool

	// indexBlock and filter are the finished table's index and filter block
	// contents, kept by Finish for OpenReader.
	indexBlock []byte
	filter     bloom.Filter

	props Props
	err   error
}

// writerBufs are a Writer's buffers. A compaction writes its tables one after
// another, so pooling them means that only a job's first tables grow them.
// Nothing a Writer returns aliases them: Finish copies out the index block,
// the one a writer-built Reader pins.
type writerBufs struct {
	data  block.Writer
	index block.Writer
	// pendingKey is the last key of the block the pending index entry names.
	pendingKey []byte
	// compressBuf is the reusable destination for per-block compression.
	compressBuf []byte
	// keyHashes holds bloom.Hash of every entry's user key, which is all the
	// filter block is built from.
	keyHashes []uint32
	// trailer and footer are writeBlock's and Finish's scratch; locals would
	// escape through f.Write.
	trailer [blockTrailerLen]byte
	footer  [footerLenV2]byte
}

var writerPool = sync.Pool{New: func() any { return new(writerBufs) }}

// errFinished is the sticky error of a Writer after Finish.
var errFinished = errors.New("sstable: writer already finished")

// NewWriter starts writing a table to f. The writer does not close f; the
// caller owns the handle (and should Sync before Close for durability).
func NewWriter(f vfs.File, opts WriterOptions) *Writer {
	opts = opts.withDefaults()
	w := &Writer{opts: opts, f: f, writerBufs: writerPool.Get().(*writerBufs)}
	w.data.Interval = block.DefaultInterval
	w.index.Interval = 1
	// Reject an unknown codec before any block hits the disk; the sticky
	// error surfaces on the first Add or Finish.
	if !opts.Compression.Valid() {
		w.err = fmt.Errorf("sstable: unsupported compression kind %v", opts.Compression)
	}
	return w
}

// Add appends an entry. ikey must be strictly greater than all previous.
func (w *Writer) Add(ikey keys.InternalKey, value []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.props.Entries > 0 && w.opts.Cmp.Compare(w.props.Largest, ikey) >= 0 {
		w.err = fmt.Errorf("sstable: keys out of order: %s then %s", w.props.Largest, ikey)
		return w.err
	}
	if w.havePending {
		w.flushPendingIndex(ikey)
	}
	if w.props.Entries == 0 {
		w.props.Smallest = ikey.Clone()
	}
	w.props.Largest = append(w.props.Largest[:0], ikey...)
	w.props.Entries++
	w.props.RawKeyBytes += int64(len(ikey))
	w.props.RawValBytes += int64(len(value))
	if ikey.Kind() == keys.KindBlobRef && len(value) == 20 {
		w.props.BlobRefs++
		w.props.BlobRefBytes += int64(encoding.Fixed32(value[16:]))
	}
	if w.opts.BloomBitsPerKey > 0 {
		w.keyHashes = append(w.keyHashes, bloom.Hash(ikey.UserKey()))
	}
	w.data.Add(ikey, value)
	if w.data.EstimatedSize() >= w.opts.BlockSize {
		w.finishDataBlock()
	}
	return w.err
}

// flushPendingIndex emits the deferred index entry, shortening the separator
// toward nextKey when possible (bytewise comparers only benefit, but the
// plain "use the last key" fallback is always correct).
func (w *Writer) flushPendingIndex(nextKey []byte) {
	sep := w.pendingKey
	var handle [2 * binary.MaxVarintLen64]byte
	w.index.Add(sep, w.pendingHandle.encode(handle[:0]))
	w.havePending = false
	_ = nextKey
}

func (w *Writer) finishDataBlock() {
	if w.data.Empty() || w.err != nil {
		return
	}
	h, err := w.writeBlock(w.data.Finish())
	if err != nil {
		w.err = err
		return
	}
	w.data.Reset()
	w.props.DataBlocks++
	w.pendingHandle = h
	w.pendingKey = append(w.pendingKey[:0], w.props.Largest...)
	w.havePending = true
}

// writeBlock compresses contents per the table's codec (with per-block
// raw fallback), writes payload + trailer, and returns the payload's
// handle. The trailer checksum covers the on-disk payload and the type
// byte.
func (w *Writer) writeBlock(contents []byte) (blockHandle, error) {
	payload, kind := compress.Compress(w.opts.Compression, w.compressBuf, contents)
	if kind != compress.None {
		w.compressBuf = payload[:0] // keep the grown buffer for the next block
		w.props.CompressedBlocks++
	}
	w.props.UncompressedBytes += int64(len(contents))
	w.props.CompressedBytes += int64(len(payload))

	h := blockHandle{offset: w.offset, length: uint64(len(payload))}
	w.trailer[0] = byte(kind)
	encoding.PutFixed32(w.trailer[1:1], checksum.Sum(checksum.CRC32C, payload, byte(kind)))
	if _, err := w.f.Write(payload); err != nil {
		return blockHandle{}, err
	}
	if _, err := w.f.Write(w.trailer[:]); err != nil {
		return blockHandle{}, err
	}
	w.offset += uint64(len(payload)) + blockTrailerLen
	return h, nil
}

// EstimatedSize reports bytes written so far plus the buffered block, used
// by compaction to cut output files at the target size.
func (w *Writer) EstimatedSize() int64 {
	if w.writerBufs == nil {
		return int64(w.offset)
	}
	return int64(w.offset) + int64(w.data.EstimatedSize())
}

// Finish flushes everything and writes filter, index, and footer. It
// returns the table's properties. The file is synced. Finish returns the
// writer's buffers to the pool, so any later Add or Finish fails.
func (w *Writer) Finish() (Props, error) {
	if w.err != nil {
		return Props{}, w.err
	}
	props, err := w.finish()
	w.release()
	return props, err
}

// release returns the buffers to the pool.
func (w *Writer) release() {
	b := w.writerBufs
	w.writerBufs = nil
	if w.err == nil {
		w.err = errFinished
	}
	b.data.Reset()
	b.index.Reset()
	b.keyHashes = b.keyHashes[:0]
	writerPool.Put(b)
}

func (w *Writer) finish() (Props, error) {
	w.finishDataBlock()
	if w.havePending {
		w.flushPendingIndex(nil)
	}
	if w.err != nil {
		return Props{}, w.err
	}

	var ftr footer
	if w.opts.BloomBitsPerKey > 0 {
		w.filter = bloom.FromHashes(w.keyHashes, w.opts.BloomBitsPerKey)
		w.props.FilterBytes = len(w.filter)
		h, err := w.writeBlock(w.filter)
		if err != nil {
			w.err = err
			return Props{}, err
		}
		ftr.filterHandle = h
	}

	index := w.index.Finish()
	ih, err := w.writeBlock(index)
	if err != nil {
		w.err = err
		return Props{}, err
	}
	ftr.indexHandle = ih
	w.indexBlock = slices.Clone(index)

	ftrBytes := ftr.encode(w.footer[:0])
	if _, err := w.f.Write(ftrBytes); err != nil {
		w.err = err
		return Props{}, err
	}
	w.offset += uint64(len(ftrBytes))
	if err := w.f.Sync(); err != nil {
		w.err = err
		return Props{}, err
	}
	w.props.FileSize = int64(w.offset)
	return w.props, nil
}

// OpenReader returns a Reader over the table Finish has just written, with f
// as its read handle, without reading the file: the index and the filter it
// pins are the ones this writer built. A table's builder hands this to
// whoever serves the table, so its metadata blocks are never read back. Like
// the package's OpenReader, the Reader owns f.
func (w *Writer) OpenReader(f vfs.File, opts ReaderOptions) (*Reader, error) {
	if w.props.FileSize == 0 { // set by a Finish that succeeded, and only then
		return nil, fmt.Errorf("sstable: OpenReader on a table that is not finished")
	}
	r := newReader(f, opts, w.props.FileSize)
	if err := r.decodeIndex(w.indexBlock); err != nil {
		return nil, err
	}
	if len(w.filter) > 0 {
		r.filter = w.filter
	}
	return r, nil
}
