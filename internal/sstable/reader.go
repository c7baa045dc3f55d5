package sstable

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/bloom"
	"repro/internal/cache"
	"repro/internal/checksum"
	"repro/internal/compress"
	"repro/internal/encoding"
	"repro/internal/invariants"
	"repro/internal/iterator"
	"repro/internal/keys"
	"repro/internal/vfs"
)

// ReaderOptions configures table reading.
type ReaderOptions struct {
	// Cmp orders internal keys.
	Cmp keys.InternalComparer
	// Cache, when non-nil, holds decoded data blocks keyed by
	// (FileNum, block offset). Index and filter blocks are pinned in the
	// Reader itself, matching the paper's assumption that they stay
	// memory-resident.
	Cache *cache.Cache
	// FileNum namespaces cache keys and names the table in errors.
	FileNum uint64
	// VerifyChecksums controls per-read CRC validation (the zero value
	// disables it; the engine always sets it).
	VerifyChecksums bool
}

// Reader provides random access to one table. It is safe for concurrent use.
type Reader struct {
	opts ReaderOptions
	// cmp is opts.Cmp.Compare, bound once: every block reader built over this
	// table takes it, and binding a method value allocates.
	cmp    iterator.CompareFunc
	f      vfs.File
	size   int64 // file length, fixed at open; bounds-checks block handles
	index  block.Reader
	filter bloom.Filter
	// cksum is the table's checksum function, read from the footer (legacy
	// v1 footers imply CRC32C).
	cksum checksum.Kind

	// BlockReads counts data-block fetches that missed the cache; exposed
	// for the Fig 13 experiment and tests.
	blockReads atomic.Int64
	// compressedBytesRead / uncompressedBytesRead total the on-disk and
	// post-decompression sizes of every block fetched from the file; their
	// ratio is the read-side compression ratio surfaced by DB.Stats.
	compressedBytesRead   atomic.Int64
	uncompressedBytesRead atomic.Int64

	// closedInv records Close under -tags invariants: a lookup or a new
	// iterator on a reader after that is the use of a table its owner has
	// already let go of (a reader pointer that outlived the file's liveness).
	closedInv atomic.Bool
}

// OpenReader reads the footer, index, and filter of a table file. The
// Reader takes ownership of f and closes it on Close.
func OpenReader(f vfs.File, opts ReaderOptions) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < footerLenV1 {
		return nil, fmt.Errorf("%w: file of %d bytes", ErrCorrupt, size)
	}
	// Read enough tail for the largest footer; decodeFooter selects the
	// version by magic. Files between the v1 and v2 sizes are v1-only.
	tailLen := int64(footerLenV2)
	if size < tailLen {
		tailLen = footerLenV1
	}
	buf := make([]byte, tailLen)
	if _, err := f.ReadAt(buf, size-tailLen); err != nil {
		return nil, err
	}
	ftr, err := decodeFooter(buf)
	if err != nil {
		return nil, err
	}
	r := &Reader{opts: opts, cmp: opts.Cmp.Compare, f: f, size: size, cksum: ftr.checksum}
	idxData, err := r.readBlockContents(ftr.indexHandle)
	if err != nil {
		return nil, err
	}
	if err := r.index.Init(r.cmp, idxData); err != nil {
		return nil, err
	}
	if ftr.filterHandle.length > 0 {
		fl, err := r.readBlockContents(ftr.filterHandle)
		if err != nil {
			return nil, err
		}
		r.filter = bloom.Filter(fl)
	}
	return r, nil
}

// Close releases the underlying file.
func (r *Reader) Close() error {
	if invariants.Enabled {
		r.closedInv.Store(true)
	}
	return r.f.Close()
}

// checkOpen traps, under -tags invariants, op on a reader that was closed.
func (r *Reader) checkOpen(op string) {
	if invariants.Enabled && r.closedInv.Load() {
		invariants.Violatedf("sstable %06d: %s on a closed reader", r.opts.FileNum, op)
	}
}

// MayContain consults the Bloom filter for ukey; tables written without a
// filter report true.
func (r *Reader) MayContain(ukey []byte) bool {
	r.checkOpen("MayContain")
	if r.filter == nil {
		return true
	}
	return r.filter.MayContain(ukey)
}

// BlockReads reports how many data blocks were fetched from the file
// (i.e. cache misses) over the reader's lifetime.
func (r *Reader) BlockReads() int64 { return r.blockReads.Load() }

// IOBytes reports the total on-disk (possibly compressed) and
// post-decompression sizes of blocks fetched from the file over the
// reader's lifetime. Equal when the table stores every block raw.
func (r *Reader) IOBytes() (compressed, uncompressed int64) {
	return r.compressedBytesRead.Load(), r.uncompressedBytesRead.Load()
}

// ChecksumKind reports the table's checksum function from its footer.
func (r *Reader) ChecksumKind() checksum.Kind { return r.cksum }

// readBlockContents fetches, verifies, and decompresses a block, without
// caching.
func (r *Reader) readBlockContents(h blockHandle) ([]byte, error) {
	if err := r.checkHandle(h); err != nil {
		return nil, err
	}
	buf := make([]byte, h.length+blockTrailerLen)
	if _, err := r.f.ReadAt(buf, int64(h.offset)); err != nil {
		return nil, fmt.Errorf("sstable %06d: %w", r.opts.FileNum, err)
	}
	contents, err := r.decodeBlock(buf, h.offset)
	if err != nil {
		return nil, err
	}
	r.compressedBytesRead.Add(int64(h.length))
	r.uncompressedBytesRead.Add(int64(len(contents)))
	return contents, nil
}

// checkHandle rejects a handle that points outside the file. A corrupt
// handle (flipped bit in an index entry or the footer) can point anywhere;
// caught here, a bad length surfaces as ErrCorrupt rather than a huge
// allocation or an untyped short-read error.
func (r *Reader) checkHandle(h blockHandle) error {
	end := h.offset + h.length + blockTrailerLen
	if end < h.offset || end > uint64(r.size) {
		return fmt.Errorf("%w: block handle [%d,+%d) beyond file %06d of %d bytes",
			ErrCorrupt, h.offset, h.length, r.opts.FileNum, r.size)
	}
	return nil
}

// decodeBlock verifies and decompresses one on-disk block (payload plus
// trailer) read from offset off. The checksum (per the table's footer kind)
// covers the payload and type byte, so it is verified before any decode
// touches the bytes; the type byte then names the codec. A raw block's
// contents alias buf.
func (r *Reader) decodeBlock(buf []byte, off uint64) ([]byte, error) {
	payload, trailer := buf[:len(buf)-blockTrailerLen], buf[len(buf)-blockTrailerLen:]
	if r.opts.VerifyChecksums {
		if checksum.Sum(r.cksum, payload, trailer[0]) != encoding.Fixed32(trailer[1:]) {
			return nil, fmt.Errorf("%w: %v mismatch in file %06d at offset %d",
				ErrCorrupt, r.cksum, r.opts.FileNum, off)
		}
	}
	kind := compress.Kind(trailer[0])
	if !kind.Valid() {
		return nil, fmt.Errorf("%w: unknown block type %d in file %06d", ErrCorrupt, trailer[0], r.opts.FileNum)
	}
	contents, err := compress.Decompress(kind, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: file %06d offset %d: %v", ErrCorrupt, r.opts.FileNum, off, err)
	}
	return contents, nil
}

// cached returns the decoded bytes of the data block at offset off if the
// block cache holds them.
func (r *Reader) cached(off uint64) ([]byte, bool) {
	if r.opts.Cache == nil {
		return nil, false
	}
	return r.opts.Cache.Get(cache.Key{FileNum: r.opts.FileNum, Offset: off})
}

// dataBlock binds br to the (possibly cached) data block at h.
func (r *Reader) dataBlock(br *block.Reader, h blockHandle) error {
	if contents, ok := r.cached(h.offset); ok {
		return br.Init(r.cmp, contents)
	}
	return r.readBlock(br, h)
}

// readBlock fetches the data block at h in a request of its own, caches it
// and binds br to it.
func (r *Reader) readBlock(br *block.Reader, h blockHandle) error {
	contents, err := r.readBlockContents(h)
	if err != nil {
		return err
	}
	return r.newDataBlock(br, contents, h.offset)
}

// newDataBlock makes the decoded contents of the data block at off, which the
// reader must own, a fetched block: bound to br, counted, and in the block
// cache if there is one. A block br rejects is not cached.
func (r *Reader) newDataBlock(br *block.Reader, contents []byte, off uint64) error {
	r.blockReads.Add(1)
	if err := br.Init(r.cmp, contents); err != nil {
		return err
	}
	if r.opts.Cache != nil {
		// The cache holds UNCOMPRESSED block contents (decompressing on
		// every hit would defeat the cache), so the charge is the real
		// resident footprint — the decoded size, not the on-disk handle
		// length, which may be several times smaller under compression.
		r.opts.Cache.Set(cache.Key{FileNum: r.opts.FileNum, Offset: off}, contents, int64(len(contents)))
	}
	return nil
}

// Get returns the value of the newest version of ukey visible at snapshot
// seq. deleted reports a tombstone; found reports whether any visible
// version exists in this table. The Bloom filter is consulted first. The
// returned value aliases the (cached) data block and must be copied if
// retained past the next read of this table.
func (r *Reader) Get(ukey []byte, seq keys.Seq) (value []byte, deleted, found bool, err error) {
	if !r.MayContain(ukey) {
		return nil, false, false, nil
	}
	value, kind, _, found, err := r.Probe(keys.MakeSearchKey(nil, ukey, seq))
	return value, found && kind == keys.KindDelete, found, err
}

// pointProbe carries the two block cursors of one point lookup and the reader
// of its data block; pooled so a steady-state probe allocates nothing beyond
// a possible block fetch.
type pointProbe struct {
	idx, data block.Iter
	blk       block.Reader
}

var probePool = sync.Pool{New: func() interface{} { return new(pointProbe) }}

// Probe is the allocation-light point-get fast path: it seeks the pinned
// index block, fetches exactly one data block (through the cache), and seeks
// that block directly — no two-level iterator is built. sk is the search key
// encoding (ukey, snapshot seq); see keys.MakeSearchKey. The Bloom filter is
// NOT consulted: callers that want filtering call MayContain first (the DB
// does, so it can count probes and negatives). entrySeq reports the sequence
// of the found entry and kind its stored kind (a keys.KindBlobRef value is
// an encoded value-log pointer the caller resolves). The returned value
// aliases the cached block; callers copy at their final return site, not
// here.
//
// A single index seek suffices because index keys are exactly the last key
// of each data block (see Writer.flushPendingIndex): the first index entry
// >= sk names the one block whose key range can contain sk, and a SeekGE
// inside it always lands on an entry (its last key is >= sk).
func (r *Reader) Probe(sk keys.InternalKey) (value []byte, kind keys.Kind, entrySeq keys.Seq, found bool, err error) {
	r.checkOpen("Probe")
	p := probePool.Get().(*pointProbe)
	defer probePool.Put(p)
	p.idx.Init(&r.index)
	p.idx.SeekGE(sk)
	if !p.idx.Valid() {
		return nil, 0, 0, false, p.idx.Error()
	}
	h, n := decodeBlockHandle(p.idx.Value())
	if n == 0 {
		return nil, 0, 0, false, fmt.Errorf("%w: bad index entry", ErrCorrupt)
	}
	if err := r.dataBlock(&p.blk, h); err != nil {
		return nil, 0, 0, false, err
	}
	p.data.Init(&p.blk)
	p.data.SeekGE(sk)
	if !p.data.Valid() {
		return nil, 0, 0, false, p.data.Error()
	}
	ik := keys.InternalKey(p.data.Key())
	if r.opts.Cmp.User.Compare(ik.UserKey(), sk.UserKey()) != 0 {
		return nil, 0, 0, false, nil
	}
	k := ik.Kind()
	if k == keys.KindDelete {
		return nil, k, ik.Seq(), true, nil
	}
	return p.data.Value(), k, ik.Seq(), true, nil
}

var tableIterPool = sync.Pool{New: func() interface{} { return new(tableIter) }}

// NewIterator returns a two-level iterator over the table. Iterators are
// pooled: Close returns the iterator for reuse, so it must not be used after
// Close.
func (r *Reader) NewIterator() iterator.Iterator { return r.NewIteratorUpTo(nil) }

// NewIteratorUpTo is NewIterator for a caller that will not read past upper
// (an internal key the caller keeps unchanged until Close): the iterator still
// yields whatever the table holds, but reads ahead no further than the block
// upper falls in. nil is no limit.
func (r *Reader) NewIteratorUpTo(upper []byte) iterator.Iterator {
	r.checkOpen("NewIterator")
	t := tableIterPool.Get().(*tableIter)
	t.r = r
	t.index.Init(&r.index)
	t.dataOK = false
	t.upper = upper
	t.err = nil
	t.closed = false
	return t
}

// tableIter walks the index block and lazily opens data blocks. The block
// cursors and the data block's reader are held by value so a pooled tableIter
// re-seeks, and opens a block, without allocating.
//
// A block the iterator seeks to, or steps back onto, is read alone, as a point
// read is. A block it steps forward onto and does not find cached is read
// together with the blocks after it, in one request (readAhead): the device
// charges per request, and an iterator that has walked off the end of one
// block is likely to walk off the next.
type tableIter struct {
	r      *Reader
	index  block.Iter
	blk    block.Reader // the current data block
	data   block.Iter   // cursor over blk
	dataOK bool         // data is bound to the block of the current index entry

	upper []byte        // read-ahead stops with the block this key falls in; nil: the table's end
	ahead int           // byte budget of the next read-ahead request
	scout block.Iter    // index cursor that runs ahead to size a request
	run   []blockHandle // the request's blocks (scratch)
	// held keeps the last request's blocks for the iterator itself: there may
	// be no block cache, or one so small or so busy that a block is evicted
	// before the walk gets to it, and it must not be read twice.
	held []heldBlock

	err    error
	closed bool
}

type heldBlock struct {
	offset   uint64
	contents []byte
}

// loadData opens the data block referenced by the current index entry;
// forward says the iterator got there by stepping off the block before it.
func (t *tableIter) loadData(forward bool) bool {
	t.dataOK = false
	if !t.index.Valid() {
		return false
	}
	h, n := decodeBlockHandle(t.index.Value())
	if n == 0 {
		t.err = fmt.Errorf("%w: bad index entry", ErrCorrupt)
		return false
	}
	contents, ok := t.r.cached(h.offset)
	for i := 0; !ok && i < len(t.held); i++ {
		if t.held[i].offset == h.offset {
			contents, ok = t.held[i].contents, true
		}
	}
	var err error
	switch {
	case ok:
		err = t.blk.Init(t.r.cmp, contents)
	case forward:
		err = t.readAhead(h)
	default:
		err = t.r.readBlock(&t.blk, h)
	}
	if err != nil {
		t.err = err
		return false
	}
	t.data.Init(&t.blk)
	t.dataOK = true
	return true
}

// readAhead fetches the block at h — the current index entry's — and the
// blocks that follow it in one request: adjacent blocks within the budget, up
// to upper's block, and short of the first one already cached (someone read
// that far before, and what lies beyond may be cached as well). Each block is
// verified and decoded exactly as a block read alone is, and goes into the
// block cache under its own offset owning its bytes, so that evicting one
// frees it; the request's buffer is back in the pool when readAhead returns.
// The iterator also holds the blocks itself until its next request (held),
// and leaves blk bound to the block at h.
//
// Only the block at h can fail the call. A bad block further on is left out
// (and so is everything after it): if the scan gets that far it reads the
// block again, at the head of a request, and reports it then.
func (t *tableIter) readAhead(h blockHandle) error {
	r := t.r
	budget := t.ahead
	t.ahead = min(2*t.ahead, IOChunk)
	t.scout.Init(&r.index)
	t.scout.SeekGE(t.index.Key())
	run, n, _, err := r.nextRun(&t.scout, t.run[:0], budget, t.upper)
	t.run = run[:0]
	if err != nil {
		return err
	}
	for i := 1; i < len(run); i++ {
		if _, ok := r.cached(run[i].offset); ok {
			run, n = run[:i], int(run[i].offset-run[0].offset)
			break
		}
	}
	if len(run) < 2 {
		return r.readBlock(&t.blk, h)
	}
	chunk := chunkPool.Get().(*[IOChunk]byte)
	if err = r.readRun(r.f, chunk[:n], h.offset); err == nil {
		t.held = t.held[:0]
		for _, b := range run {
			start := b.offset - h.offset
			contents, berr := r.runBlock(&t.blk, chunk[start:start+b.length+blockTrailerLen], b.offset)
			if berr != nil {
				if len(t.held) == 0 {
					err = berr // the block asked for; any other is the next reader's
				}
				break
			}
			t.held = append(t.held, heldBlock{b.offset, contents})
		}
	}
	poison(chunk[:n])
	chunkPool.Put(chunk)
	if err != nil {
		return err
	}
	return t.blk.Init(r.cmp, t.held[0].contents)
}

// runBlock makes one block of a run, read into the run's shared buffer, a
// fetched data block that owns its bytes, bound to br: a raw block's contents
// alias the buffer and are copied out, a compressed block's were decoded out
// of it.
func (r *Reader) runBlock(br *block.Reader, buf []byte, off uint64) ([]byte, error) {
	contents, err := r.decodeBlock(buf, off)
	if err != nil {
		return nil, err
	}
	if compress.Kind(buf[len(buf)-blockTrailerLen]) == compress.None {
		contents = bytes.Clone(contents)
	}
	r.compressedBytesRead.Add(int64(len(buf) - blockTrailerLen))
	r.uncompressedBytesRead.Add(int64(len(contents)))
	return contents, r.newDataBlock(br, contents, off)
}

// seekData opens the block a seek landed on, alone, and starts the read-ahead
// ramp over: a seek says nothing about how far the caller will walk.
func (t *tableIter) seekData() bool {
	t.ahead = readAheadMin
	return t.loadData(false)
}

func (t *tableIter) Valid() bool {
	return t.err == nil && t.dataOK && t.data.Valid()
}

func (t *tableIter) SeekGE(target []byte) {
	if t.err != nil {
		return
	}
	// Index keys are the last key of each block, so the first index entry
	// >= target references the block that could contain it.
	t.index.SeekGE(target)
	if !t.seekData() {
		return
	}
	t.data.SeekGE(target)
	t.skipForwardEmpty()
}

func (t *tableIter) SeekToFirst() {
	if t.err != nil {
		return
	}
	t.index.SeekToFirst()
	if !t.seekData() {
		return
	}
	t.data.SeekToFirst()
	t.skipForwardEmpty()
}

func (t *tableIter) SeekToLast() {
	if t.err != nil {
		return
	}
	t.index.SeekToLast()
	if !t.seekData() {
		return
	}
	t.data.SeekToLast()
	t.skipBackwardEmpty()
}

func (t *tableIter) Next() {
	if !t.Valid() {
		return
	}
	t.data.Next()
	t.skipForwardEmpty()
}

func (t *tableIter) Prev() {
	if !t.Valid() {
		return
	}
	t.data.Prev()
	t.skipBackwardEmpty()
}

// skipForwardEmpty advances over exhausted data blocks.
func (t *tableIter) skipForwardEmpty() {
	for t.err == nil && t.dataOK && !t.data.Valid() {
		if err := t.data.Error(); err != nil {
			t.err = err
			return
		}
		t.index.Next()
		if !t.loadData(true) {
			return
		}
		t.data.SeekToFirst()
	}
}

func (t *tableIter) skipBackwardEmpty() {
	for t.err == nil && t.dataOK && !t.data.Valid() {
		if err := t.data.Error(); err != nil {
			t.err = err
			return
		}
		t.index.Prev()
		if !t.loadData(false) {
			return
		}
		t.data.SeekToLast()
	}
}

func (t *tableIter) Key() []byte   { return t.data.Key() }
func (t *tableIter) Value() []byte { return t.data.Value() }

func (t *tableIter) Error() error {
	if t.err != nil {
		return t.err
	}
	if t.dataOK {
		if err := t.data.Error(); err != nil {
			return err
		}
	}
	return t.index.Error()
}

// Close returns the iterator to the pool. Double-Close is tolerated (the
// second call is a no-op reporting the sticky error), but any other use
// after Close is invalid.
func (t *tableIter) Close() error {
	err := t.Error()
	if !t.closed {
		t.closed = true
		t.r, t.upper, t.blk = nil, nil, block.Reader{}
		t.dataOK = false
		clear(t.held)
		t.held = t.held[:0]
		tableIterPool.Put(t)
	}
	return err
}
