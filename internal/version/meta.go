// Package version tracks the LSM-tree's file metadata: which SSTables live
// in which level, their key ranges, and — the LDC extension — the frozen
// region and the slice links attached to lower-level files. Metadata changes
// are expressed as VersionEdits, persisted to a MANIFEST log, and applied to
// immutable Version snapshots, exactly as in LevelDB, so both the metadata
// and LDC's link state survive crashes.
package version

import (
	"sync/atomic"

	"repro/internal/keys"
	"repro/internal/sstable"
)

// NumLevels is the number of on-disk levels (L0..L6).
const NumLevels = 7

// Slice is LDC's link record: a key-range window into a frozen upper-level
// SSTable, attached to one lower-level SSTable. When the lower file has
// accumulated Threshold slices, a merge is triggered (paper Algorithm 1).
type Slice struct {
	// FrozenNum is the file number of the frozen SSTable the slice reads.
	FrozenNum uint64
	// Range is the inclusive user-key window of the slice.
	Range keys.KeyRange
	// LinkSeq orders link events; higher means linked later, i.e. newer
	// data. Reads probe slices newest-first.
	LinkSeq uint64
	// Bytes estimates the slice's data volume (for merge sizing and stats).
	Bytes int64
}

// FileMeta describes one SSTable. The same *FileMeta is shared by every
// Version that contains the file; the Set's per-number count of the versions
// that list it (Set.fileRefs) decides when the file is obsolete.
type FileMeta struct {
	Num      uint64
	Size     int64
	Smallest keys.InternalKey
	Largest  keys.InternalKey

	// Slices are the LDC links attached to this (lower-level) file, in
	// LinkSeq order, oldest first. Nil for files without links. The slice
	// header is replaced, never mutated, when versions change, so a
	// FileMeta's Slices value is immutable once published in a Version.
	Slices []Slice

	// Table is the file's open reader once a read has fetched it from the
	// table cache, so that a probe reaches it by a pointer load. The table
	// cache stays the owner: it closes a reader only when the file is
	// obsolete, which no file of a version still referenced is, and a reader
	// gets at a meta only through such a version.
	Table atomic.Pointer[sstable.Reader]
}

// UserRange returns the file's inclusive user-key range.
func (f *FileMeta) UserRange() keys.KeyRange {
	return keys.KeyRange{
		Lo: f.Smallest.UserKey(),
		Hi: f.Largest.UserKey(),
	}
}

// SliceBytes sums the byte estimates of the attached slices.
func (f *FileMeta) SliceBytes() int64 {
	var n int64
	for i := range f.Slices {
		n += f.Slices[i].Bytes
	}
	return n
}

// withSlices returns a copy of f sharing the number/size/bounds but carrying
// the given slice list. Used by the version builder: FileMeta values in
// versions are immutable, so attaching a slice replaces the meta.
func (f *FileMeta) withSlices(slices []Slice) *FileMeta {
	nf := &FileMeta{
		Num:      f.Num,
		Size:     f.Size,
		Smallest: f.Smallest,
		Largest:  f.Largest,
		Slices:   slices,
	}
	nf.Table.Store(f.Table.Load())
	return nf
}

// FrozenMeta describes an SSTable in LDC's frozen region: removed from the
// level structure, referenced only through slices. It stays in a version
// while a slice there points at it, and is obsolete, like any table, once
// no version the Set still holds lists it.
type FrozenMeta struct {
	Num      uint64
	Size     int64
	Smallest keys.InternalKey
	Largest  keys.InternalKey
}

// UserRange returns the frozen file's inclusive user-key range.
func (f *FrozenMeta) UserRange() keys.KeyRange {
	return keys.KeyRange{Lo: f.Smallest.UserKey(), Hi: f.Largest.UserKey()}
}
