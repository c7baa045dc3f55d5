package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
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
	// Stats, when non-nil, is the sink the reader counts its fetches into;
	// many readers may share one. A reader opened without one counts into a
	// private sink.
	Stats *ReadStats
}

// ReadStats counts the blocks a table reader fetched from its file. The
// counters outlive the reader, so a sink shared by every table of a store
// keeps the reads of tables compaction has since deleted.
type ReadStats struct {
	// BlockReads counts data blocks fetched from the file and decoded
	// (cache misses).
	BlockReads atomic.Int64
	// CompressedBytesRead and UncompressedBytesRead total the on-disk and
	// decoded sizes of every block fetched from the file, index and filter
	// blocks included; equal when the table stores every block raw.
	CompressedBytesRead   atomic.Int64
	UncompressedBytesRead atomic.Int64
}

// Reader provides random access to one table. It is safe for concurrent use.
type Reader struct {
	opts ReaderOptions
	// cmp is opts.Cmp.Compare, bound once: every block reader built over this
	// table takes it, and binding a method value allocates.
	cmp  iterator.CompareFunc
	f    vfs.File
	size int64 // file length, fixed at open; bounds-checks block handles
	// index is the decoded index block, one entry per data block in file
	// order (decodeIndex); point probes and table iterators search and walk it
	// by position. Its keys lie in indexBlock, which the reader pins.
	index      []indexEntry
	indexBlock []byte
	filter     bloom.Filter
	// aheadMin is the budget of an iterator's first read-ahead request after
	// a seek: readAheadMin, or IOChunk on a compaction view (View).
	aheadMin int

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
	if size < footerLenV2 {
		return nil, fmt.Errorf("%w: file of %d bytes", ErrCorrupt, size)
	}
	buf := make([]byte, footerLenV2)
	if _, err := f.ReadAt(buf, size-footerLenV2); err != nil {
		return nil, err
	}
	ftr, err := decodeFooter(buf)
	if err != nil {
		return nil, err
	}
	r := newReader(f, opts, size)
	idxData, err := r.readBlockContents(ftr.indexHandle)
	if err != nil {
		return nil, err
	}
	if err := r.decodeIndex(idxData); err != nil {
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

func newReader(f vfs.File, opts ReaderOptions, size int64) *Reader {
	if opts.Stats == nil {
		opts.Stats = new(ReadStats)
	}
	return &Reader{opts: opts, cmp: opts.Cmp.Compare, f: f, size: size, aheadMin: readAheadMin}
}

// indexEntry is one data block as the index names it: where the block's last
// internal key lies in the index block, and the block's handle. It holds no
// pointer, so the collector never scans the array.
type indexEntry struct {
	keyAt, keyLen uint32 // the key is indexBlock[keyAt:keyAt+keyLen]
	h             blockHandle
}

// decodeIndex makes data, the table's index block, r.index: one array sized
// once, whose keys lie in data, which r pins as r.indexBlock. The writer
// restarts the index at every entry, so each key lies whole in the block
// (block.Reader.EachRestart). Every handle is checked against the file here,
// and an index that fails any check fails the open with ErrCorrupt: nothing
// that walks the index later can meet a bad entry.
func (r *Reader) decodeIndex(data []byte) error {
	var br block.Reader
	if err := br.Init(r.cmp, data); err != nil {
		return fmt.Errorf("%w: index of file %06d: %v", ErrCorrupt, r.opts.FileNum, err)
	}
	index := make([]indexEntry, 0, br.NumRestarts())
	err := br.EachRestart(func(keyAt int, key, value []byte) error {
		h, n := decodeBlockHandle(value)
		if n == 0 || n != len(value) || len(key) < keys.TrailerLen || uint64(keyAt+len(key)) > math.MaxUint32 {
			return fmt.Errorf("%w: bad index entry in file %06d", ErrCorrupt, r.opts.FileNum)
		}
		if err := r.checkHandle(h); err != nil {
			return err
		}
		index = append(index, indexEntry{uint32(keyAt), uint32(len(key)), h})
		return nil
	})
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			err = fmt.Errorf("%w: index of file %06d: %v", ErrCorrupt, r.opts.FileNum, err)
		}
		return err
	}
	r.index, r.indexBlock = index, data
	return nil
}

// indexKey returns the internal key of index entry i, where it lies in the
// index block.
func (r *Reader) indexKey(i int) []byte {
	e := &r.index[i]
	return r.indexBlock[e.keyAt : e.keyAt+e.keyLen]
}

// seekIndex returns the position of the first index entry at or after the
// internal key ik, len(r.index) if there is none. Index keys are the last key
// of each block, so that entry names the one block that can hold ik.
func (r *Reader) seekIndex(ik []byte) int {
	lo, hi := 0, len(r.index)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.cmp(r.indexKey(mid), ik) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
func (r *Reader) MayContain(ukey []byte) bool { return r.MayContainHash(bloom.Hash(ukey)) }

// MayContainHash is MayContain for the user key whose bloom.Hash is h: a read
// that consults several tables hashes its key once.
func (r *Reader) MayContainHash(h uint32) bool {
	r.checkOpen("MayContain")
	if r.filter == nil {
		return true
	}
	return r.filter.MayContainHash(h)
}

// readBlockContents fetches, verifies, and decompresses a block, without
// caching.
func (r *Reader) readBlockContents(h blockHandle) ([]byte, error) {
	if err := r.checkHandle(h); err != nil {
		return nil, err
	}
	buf := make([]byte, h.length+blockTrailerLen)
	if err := r.readRun(buf, h.offset); err != nil {
		return nil, err
	}
	contents, err := r.decodeBlock(buf, h.offset)
	if err != nil {
		return nil, err
	}
	r.opts.Stats.CompressedBytesRead.Add(int64(h.length))
	r.opts.Stats.UncompressedBytesRead.Add(int64(len(contents)))
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
// trailer) read from offset off. The checksum covers the payload and type
// byte, so it is verified before any decode touches the bytes; the type byte
// then names the codec. A raw block's contents alias buf.
func (r *Reader) decodeBlock(buf []byte, off uint64) ([]byte, error) {
	payload, trailer := buf[:len(buf)-blockTrailerLen], buf[len(buf)-blockTrailerLen:]
	if r.opts.VerifyChecksums {
		if checksum.Sum(checksum.CRC32C, payload, trailer[0]) != encoding.Fixed32(trailer[1:]) {
			return nil, fmt.Errorf("%w: crc32c mismatch in file %06d at offset %d",
				ErrCorrupt, r.opts.FileNum, off)
		}
	}
	kind := compress.Kind(trailer[0])
	if !kind.Valid() {
		return nil, fmt.Errorf("%w: unsupported block type %v in file %06d", ErrCorrupt, kind, r.opts.FileNum)
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

// isCached reports whether the block cache holds the data block at offset off,
// without counting a lookup: read-ahead asks it to know where to stop a
// request, not to read the block.
func (r *Reader) isCached(off uint64) bool {
	return r.opts.Cache != nil && r.opts.Cache.Contains(cache.Key{FileNum: r.opts.FileNum, Offset: off})
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
	return r.newDataBlock(br, contents, h.offset, r.opts.Cache)
}

// newDataBlock makes the decoded contents of the data block at off a fetched
// block: bound to br, counted, and in the block cache into if that is not nil.
// A block br rejects passed its checksum but is no block, which is ErrCorrupt;
// it is not cached.
func (r *Reader) newDataBlock(br *block.Reader, contents []byte, off uint64, into *cache.Cache) error {
	r.opts.Stats.BlockReads.Add(1)
	if err := br.Init(r.cmp, contents); err != nil {
		return fmt.Errorf("%w: file %06d offset %d: %v", ErrCorrupt, r.opts.FileNum, off, err)
	}
	if into != nil {
		// The cache holds UNCOMPRESSED block contents (decompressing on
		// every hit would defeat the cache), so the charge is the real
		// resident footprint — the decoded size, not the on-disk handle
		// length, which may be several times smaller under compression.
		into.Set(cache.Key{FileNum: r.opts.FileNum, Offset: off}, contents, int64(len(contents)))
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
	var c ProbeCursor
	value, kind, _, found, err := r.Probe(&c, keys.MakeSearchKey(nil, ukey, seq))
	return value, found && kind == keys.KindDelete, found, err
}

// ProbeCursor is what a point probe works in: the reader of its data block
// and the cursor over it, held by value. A caller keeps one per concurrent
// read and hands it to every Probe the read makes, so that a probe of a
// cached block allocates nothing. The zero value is ready for use.
type ProbeCursor struct {
	blk  block.Reader
	data block.Iter
}

// Probe is the point-get fast path: it binary-searches the decoded index,
// fetches exactly one data block (through the cache) into c, and seeks that
// block directly — no two-level iterator is built. sk is the search key
// encoding (ukey, snapshot seq); see keys.MakeSearchKey. The Bloom filter is
// NOT consulted: callers that want filtering call MayContain first (the DB
// does, so it can count probes and negatives). entrySeq reports the sequence
// of the found entry and kind its stored kind (a keys.KindBlobRef value is
// an encoded value-log pointer the caller resolves). The returned value
// aliases the block's bytes, not c, so the next Probe with c leaves it
// intact; callers copy at their final return site, not here.
//
// A single index search suffices because index keys are exactly the last key
// of each data block (see Writer.flushPendingIndex): the first index entry
// >= sk names the one block whose key range can contain sk, and a SeekGE
// inside it always lands on an entry (its last key is >= sk).
func (r *Reader) Probe(c *ProbeCursor, sk keys.InternalKey) (value []byte, kind keys.Kind, entrySeq keys.Seq, found bool, err error) {
	r.checkOpen("Probe")
	i := r.seekIndex(sk)
	if i == len(r.index) {
		return nil, 0, 0, false, nil
	}
	if err := r.dataBlock(&c.blk, r.index[i].h); err != nil {
		return nil, 0, 0, false, err
	}
	c.data.Init(&c.blk)
	c.data.SeekGE(sk)
	if !c.data.Valid() {
		return nil, 0, 0, false, c.data.Error()
	}
	ik := keys.InternalKey(c.data.Key())
	if r.opts.Cmp.User.Compare(ik.UserKey(), sk.UserKey()) != 0 {
		return nil, 0, 0, false, nil
	}
	k := ik.Kind()
	if k == keys.KindDelete {
		return nil, k, ik.Seq(), true, nil
	}
	return c.data.Value(), k, ik.Seq(), true, nil
}

var tableIterPool = sync.Pool{New: func() interface{} { return new(tableIter) }}

// NewIterator returns a two-level iterator over the table. Iterators are
// pooled: Close returns the iterator for reuse, so it must not be used after
// Close (under -tags invariants a closed iterator stays out of the pool and
// any later use of it panics).
func (r *Reader) NewIterator() iterator.Iterator { return r.NewIteratorUpTo(nil) }

// NewIteratorUpTo is NewIterator for a caller that will not read past upper
// (an internal key the caller keeps unchanged until Close): the iterator still
// yields whatever the table holds, but reads ahead no further than the block
// upper falls in. nil is no limit.
func (r *Reader) NewIteratorUpTo(upper []byte) iterator.Iterator {
	r.checkOpen("NewIterator")
	t := tableIterPool.Get().(*tableIter)
	t.r = r
	t.index = -1
	t.dataOK = false
	t.upper = upper
	t.err = nil
	t.closed = false
	return t
}

// tableIter walks the decoded index and lazily opens data blocks. The block
// cursor and the data block's reader are held by value so a pooled tableIter
// re-seeks, and opens a block, without allocating.
//
// A block the iterator seeks to, or steps onto, and does not find cached is
// read together with the blocks after it, in one request (readAhead): the
// device charges per request, and an iterator that has walked off the end of
// one block is likely to walk off the next.
//
// The request's blocks stay in its pooled buffer, held by the iterator until
// its next request or Close; a block is verified, decoded, copied out and
// cached only when the iterator lands on it (landHeld), so a block the walk
// never reaches costs the bytes it took on the device and nothing else.
//
// A walk streams past the cache: the blocks of the second and later requests
// since the last seek are cached only into free room, never evicting anything,
// because a long walk rarely comes back to the blocks it streamed through while
// the ones it would evict are what seeks and point reads hit. The first request
// since the seek is cached as a point read is. A raw block that goes into no cache —
// a streamed one the cache has no room for, or any block of a reader without a
// cache (a compaction view) — is not copied out: it aliases the buffer, which
// is poisoned under -tags invariants before the next request is read into it,
// so a key or value kept from it dies with that request, as the Iterator
// contract allows.
type tableIter struct {
	r      *Reader
	index  int          // position in r.index of the current data block
	blk    block.Reader // the current data block
	data   block.Iter   // cursor over blk
	dataOK bool         // data is bound to the block of the current index entry

	upper []byte // read-ahead stops with the block this key falls in; nil: the table's end
	ahead int    // byte budget of the next read-ahead request

	// The held run: the last request's blocks, r.index[runAt:runAt+len(held)],
	// whose bytes lie in chunk; none when held is empty. held[i] is block i's
	// decoded contents once the iterator has landed on it, nil before. The
	// iterator looks here before the block cache: there may be no cache, or
	// one so small or so busy that a landed block is evicted before the walk
	// comes back to it, and no block is read or decoded twice. stream marks a
	// run read by the second or later request since the last seek, whose
	// blocks are cached only into free room.
	chunk  *[IOChunk]byte
	runAt  int
	held   [][]byte
	stream bool

	err    error
	closed bool
}

// assertOpen catches use-after-Close under -tags invariants, where Close
// keeps the iterator out of the pool so a stale caller trips here instead of
// silently driving the next owner's walk.
func (t *tableIter) assertOpen() {
	if invariants.Enabled && t.closed {
		panic("invariant violated: table iterator used after Close")
	}
}

// loadData opens the data block referenced by the current index entry.
func (t *tableIter) loadData() bool {
	t.dataOK = false
	if t.index < 0 || t.index >= len(t.r.index) {
		return false
	}
	var err error
	if i := t.index - t.runAt; i >= 0 && i < len(t.held) {
		err = t.landHeld(i)
	} else if contents, ok := t.r.cached(t.r.index[t.index].h.offset); ok {
		err = t.blk.Init(t.r.cmp, contents)
	} else {
		err = t.readAhead()
	}
	if err != nil {
		t.err = err
		return false
	}
	t.data.Init(&t.blk)
	t.dataOK = true
	return true
}

// readAhead fetches the current index entry's block and the blocks that
// follow it in one request: adjacent blocks within the budget, up to upper's
// block, and short of the first one already cached (someone read that far
// before, and what lies beyond may be cached as well). The request becomes the
// held run, in the buffer of the one before it or a fresh one from chunkPool,
// and blk is bound to its first block. A block larger than the buffer, and on
// a reader with a cache a run of one block that does not stream, is read alone,
// as a point read is, and holds nothing.
//
// The first request since a seek is the one whose budget is the ramp's first,
// aheadMin; every later one streams. On a view the budget never grows and no
// request streams, which there is no cache for anyway.
func (t *tableIter) readAhead() error {
	r := t.r
	budget := t.ahead
	t.ahead = min(2*t.ahead, IOChunk)
	stream := budget > r.aheadMin
	end, n := r.nextRun(t.index, budget, t.upper)
	first := r.index[t.index].h
	for i := t.index + 1; i < end; i++ {
		if r.isCached(r.index[i].h.offset) {
			end, n = i, int(r.index[i].h.offset-first.offset)
			break
		}
	}
	if end-t.index < 2 && (n > IOChunk || r.opts.Cache != nil && !stream) {
		t.release()
		return r.readBlock(&t.blk, first)
	}
	if t.chunk == nil {
		t.chunk = chunkPool.Get().(*[IOChunk]byte)
	} else {
		poison(t.chunk[:]) // a value kept across the hand-over reads as garbage at once
	}
	clear(t.held)
	t.runAt, t.held = t.index, slices.Grow(t.held[:0], end-t.index)[:end-t.index]
	t.stream = stream
	if err := r.readRun(t.chunk[:n], first.offset); err != nil {
		t.release()
		return err
	}
	return t.landHeld(0)
}

// landHeld binds blk to block i of the held run, verifying, decoding and
// caching it (into free room only, on a streamed run) the first time the
// iterator lands there. A block that fails is read again alone, and what that
// read reports is what a point read of the block reports.
func (t *tableIter) landHeld(i int) error {
	if contents := t.held[i]; contents != nil {
		return t.blk.Init(t.r.cmp, contents)
	}
	r := t.r
	h := r.index[t.runAt+i].h
	start := h.offset - r.index[t.runAt].h.offset
	contents, err := r.runBlock(&t.blk, t.chunk[start:start+h.length+blockTrailerLen], h.offset, t.stream)
	if err != nil {
		return r.readBlock(&t.blk, h)
	}
	t.held[i] = contents
	return nil
}

// release lets go of the held run: the buffer goes back to chunkPool,
// poisoned under -tags invariants.
func (t *tableIter) release() {
	if t.chunk != nil {
		poison(t.chunk[:])
		chunkPool.Put(t.chunk)
		t.chunk = nil
	}
	clear(t.held)
	t.held = t.held[:0]
}

// runBlock makes one block of a run, read into the run's shared buffer, a
// fetched data block bound to br: a compressed block's contents were decoded
// out of the buffer, a raw block's alias it and are copied out when they go
// into a cache. A block of a streamed run goes into the cache only if its
// shard has room for it without evicting, which is asked before the copy.
func (r *Reader) runBlock(br *block.Reader, buf []byte, off uint64, stream bool) ([]byte, error) {
	contents, err := r.decodeBlock(buf, off)
	if err != nil {
		return nil, err
	}
	into := r.opts.Cache
	if into != nil && stream && !into.HasRoom(cache.Key{FileNum: r.opts.FileNum, Offset: off}, int64(len(contents))) {
		into = nil
	}
	if into != nil && compress.Kind(buf[len(buf)-blockTrailerLen]) == compress.None {
		contents = bytes.Clone(contents)
	}
	r.opts.Stats.CompressedBytesRead.Add(int64(len(buf) - blockTrailerLen))
	r.opts.Stats.UncompressedBytesRead.Add(int64(len(contents)))
	return contents, r.newDataBlock(br, contents, off, into)
}

// seekData opens the block a seek landed on and starts the read-ahead ramp
// over: a seek says nothing about how far the caller will walk.
func (t *tableIter) seekData() bool {
	t.ahead = t.r.aheadMin
	return t.loadData()
}

func (t *tableIter) Valid() bool {
	t.assertOpen()
	return t.err == nil && t.dataOK && t.data.Valid()
}

func (t *tableIter) SeekGE(target []byte) {
	t.assertOpen()
	if t.err != nil {
		return
	}
	t.index = t.r.seekIndex(target)
	if !t.seekData() {
		return
	}
	t.data.SeekGE(target)
	t.skipForwardEmpty()
}

func (t *tableIter) SeekToFirst() {
	t.assertOpen()
	if t.err != nil {
		return
	}
	t.index = 0
	if !t.seekData() {
		return
	}
	t.data.SeekToFirst()
	t.skipForwardEmpty()
}

func (t *tableIter) Next() {
	if !t.Valid() {
		return
	}
	t.data.Next()
	t.skipForwardEmpty()
}

// skipForwardEmpty advances over exhausted data blocks.
func (t *tableIter) skipForwardEmpty() {
	for t.err == nil && t.dataOK && !t.data.Valid() {
		if err := t.data.Error(); err != nil {
			t.err = err
			return
		}
		t.index++
		if !t.loadData() {
			return
		}
		t.data.SeekToFirst()
	}
}

func (t *tableIter) Key() []byte   { return t.data.Key() }
func (t *tableIter) Value() []byte { return t.data.Value() }

func (t *tableIter) Error() error {
	if t.err != nil {
		return t.err
	}
	if t.dataOK {
		return t.data.Error()
	}
	return nil
}

// Close returns the iterator to the pool. Double-Close is tolerated (the
// second call is a no-op reporting the sticky error), but any other use
// after Close is invalid.
func (t *tableIter) Close() error {
	err := t.Error()
	if !t.closed {
		t.closed = true
		t.release()
		t.r, t.upper, t.blk = nil, nil, block.Reader{}
		t.dataOK = false
		if !invariants.Enabled { // the carcass stays out of the pool: see assertOpen
			tableIterPool.Put(t)
		}
	}
	return err
}
