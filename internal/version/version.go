package version

import (
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/invariants"
	"repro/internal/keys"
)

// Version is an immutable snapshot of the tree's file metadata. Levels[0]
// holds the unsorted, mutually overlapping L0 files ordered oldest-first;
// deeper levels hold sorted, non-overlapping files ordered by smallest key.
// Frozen maps file number to the LDC frozen-region metadata.
type Version struct {
	icmp keys.InternalComparer

	Levels [NumLevels][]*FileMeta
	Frozen map[uint64]*FrozenMeta
	// Sliced lists, per level, the files currently carrying slice links
	// (order matches Levels). Derived at build time for the read path.
	Sliced [NumLevels][]*FileMeta
	// Windows indexes, per level, every slice linked to a file of the level
	// by where its window starts. Derived at build time like Sliced, and as
	// immutable: the read path finds the windows that cover a key, or that a
	// scan is about to enter, without walking the rest.
	Windows [NumLevels]Windows

	// dupFrozen is DuplicatedFrozenBytes, fixed when the version is built.
	dupFrozen int64

	refs atomic.Int32
	set  *Set // for file refcount release; nil in standalone tests
	// releasedInv records (for -tags invariants builds) that the last
	// reference was dropped and the version's files were returned to the
	// Set. A later Ref is the CurrentNoRef-held-too-long bug: the caller
	// kept an unreferenced version across a lock release and tried to
	// resurrect it.
	releasedInv atomic.Bool
}

// NewVersion returns an empty version (mainly for tests; real versions come
// from the builder).
func NewVersion(icmp keys.InternalComparer) *Version {
	return &Version{icmp: icmp, Frozen: map[uint64]*FrozenMeta{}}
}

// Ref acquires a reference to the version.
func (v *Version) Ref() {
	invariants.CheckNotReleased(v.releasedInv.Load(), "version.Version")
	v.refs.Add(1)
}

// Unref releases a reference; when the last drops, the version's file
// references are returned to the Set (which may mark files obsolete).
func (v *Version) Unref() {
	n := v.refs.Add(-1)
	if n < 0 {
		panic("version: refcount below zero")
	}
	if n == 0 && v.set != nil {
		if invariants.Enabled {
			v.releasedInv.Store(true)
		}
		v.set.releaseVersionFiles(v)
	}
}

// Refs reports the current reference count (for tests and assertions).
func (v *Version) Refs() int32 { return v.refs.Load() }

// NumFiles reports the file count of a level.
func (v *Version) NumFiles(level int) int { return len(v.Levels[level]) }

// LevelBytes sums resident file sizes in a level (frozen files excluded:
// per the paper they are outside the LSM-tree's management).
func (v *Version) LevelBytes(level int) int64 {
	var n int64
	for _, f := range v.Levels[level] {
		n += f.Size
	}
	return n
}

// FrozenBytes sums the sizes of frozen-region files — LDC's space overhead,
// measured by the Fig 15 experiment.
func (v *Version) FrozenBytes() int64 {
	var n int64
	for _, f := range v.Frozen {
		n += f.Size
	}
	return n
}

// DuplicatedFrozenBytes estimates the *true* space overhead of the frozen
// region: the portions of frozen files whose slices were already merged
// down (the paper's "gray slices", §III-D) and therefore exist twice. The
// not-yet-merged remainder of a frozen file is live data, not overhead. The
// builder computes it once per version from its slice tally.
func (v *Version) DuplicatedFrozenBytes() int64 { return v.dupFrozen }

// SliceCount sums attached slices across a level.
func (v *Version) SliceCount(level int) int {
	n := 0
	for _, f := range v.Levels[level] {
		n += len(f.Slices)
	}
	return n
}

// Windows is one level's slice windows ordered for the read path.
type Windows struct {
	// ByLo holds the slices in Range.Lo order.
	ByLo []*Slice
	// MaxHi[i] is the largest Range.Hi among ByLo[:i+1]: no window at or
	// before i reaches past it, which is what bounds a walk down from i.
	MaxHi [][]byte
}

// StartingAtOrBelow counts the windows whose Lo is at or below ukey: they are
// ByLo[:n], and every window from n on lies wholly above ukey.
func (w *Windows) StartingAtOrBelow(ucmp keys.Comparer, ukey []byte) int {
	return sort.Search(len(w.ByLo), func(i int) bool {
		return ucmp.Compare(w.ByLo[i].Range.Lo, ukey) > 0
	})
}

func newWindows(ucmp keys.Comparer, sliced []*FileMeta) Windows {
	n := 0
	for _, f := range sliced {
		n += len(f.Slices)
	}
	w := Windows{ByLo: make([]*Slice, 0, n), MaxHi: make([][]byte, n)}
	for _, f := range sliced {
		for i := range f.Slices {
			w.ByLo = append(w.ByLo, &f.Slices[i])
		}
	}
	slices.SortStableFunc(w.ByLo, func(a, b *Slice) int { return ucmp.Compare(a.Range.Lo, b.Range.Lo) })
	for i, s := range w.ByLo {
		w.MaxHi[i] = s.Range.Hi
		if i > 0 && ucmp.Compare(w.MaxHi[i-1], s.Range.Hi) > 0 {
			w.MaxHi[i] = w.MaxHi[i-1]
		}
	}
	return w
}

// Overlaps returns the files in level whose user-key range intersects r.
// For level 0 every overlapping file is returned; for sorted levels a
// binary search bounds the scan.
func (v *Version) Overlaps(level int, r keys.KeyRange) []*FileMeta {
	ucmp := v.icmp.User
	var out []*FileMeta
	if level == 0 {
		for _, f := range v.Levels[level] {
			if f.UserRange().Overlaps(ucmp, r) {
				out = append(out, f)
			}
		}
		return out
	}
	files := v.Levels[level]
	// First file whose largest >= r.Lo.
	i := sort.Search(len(files), func(i int) bool {
		return ucmp.Compare(files[i].Largest.UserKey(), r.Lo) >= 0
	})
	for ; i < len(files); i++ {
		if ucmp.Compare(files[i].Smallest.UserKey(), r.Hi) > 0 {
			break
		}
		out = append(out, files[i])
	}
	return out
}

// FindFile returns the unique file in a sorted level (>=1) that could
// contain ukey, or nil.
func (v *Version) FindFile(level int, ukey []byte) *FileMeta {
	ucmp := v.icmp.User
	files := v.Levels[level]
	i := sort.Search(len(files), func(i int) bool {
		return ucmp.Compare(files[i].Largest.UserKey(), ukey) >= 0
	})
	if i >= len(files) {
		return nil
	}
	if ucmp.Compare(files[i].Smallest.UserKey(), ukey) > 0 {
		return nil
	}
	return files[i]
}

// eachFileNum calls fn with the number of every table file (level and
// frozen) in the version.
func (v *Version) eachFileNum(fn func(num uint64)) {
	for _, lvl := range v.Levels {
		for _, f := range lvl {
			fn(f.Num)
		}
	}
	for num := range v.Frozen {
		fn(num)
	}
}
