package version

import (
	"cmp"
	"fmt"
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
// not-yet-merged remainder of a frozen file is live data, not overhead.
func (v *Version) DuplicatedFrozenBytes() int64 {
	if len(v.Frozen) == 0 {
		return 0
	}
	outstanding := map[uint64]int64{}
	for level := 1; level < NumLevels; level++ {
		for _, f := range v.Sliced[level] {
			for i := range f.Slices {
				outstanding[f.Slices[i].FrozenNum] += f.Slices[i].Bytes
			}
		}
	}
	var dup int64
	for num, fm := range v.Frozen {
		if d := fm.Size - outstanding[num]; d > 0 {
			dup += d
		}
	}
	return dup
}

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

// allFileNums lists every table file (level + frozen) in the version.
func (v *Version) allFileNums() []uint64 {
	var nums []uint64
	for _, lvl := range v.Levels {
		for _, f := range lvl {
			nums = append(nums, f.Num)
		}
	}
	for num := range v.Frozen {
		nums = append(nums, num)
	}
	return nums
}

// CheckInvariants validates level ordering (levels >= 1 hold disjoint files)
// and slice consistency. The Set runs it on every edit and on recovery, so a
// MANIFEST describing overlapping files is an error, never a served tree.
func (v *Version) CheckInvariants() error {
	ucmp := v.icmp.User
	for level := 1; level < NumLevels; level++ {
		files := v.Levels[level]
		for i := range files {
			if v.icmp.Compare(files[i].Smallest, files[i].Largest) > 0 {
				return fmt.Errorf("L%d file %06d: smallest > largest", level, files[i].Num)
			}
			if i > 0 && ucmp.Compare(files[i-1].Largest.UserKey(), files[i].Smallest.UserKey()) >= 0 {
				return fmt.Errorf("L%d files %06d and %06d overlap",
					level, files[i-1].Num, files[i].Num)
			}
			for _, s := range files[i].Slices {
				if _, ok := v.Frozen[s.FrozenNum]; !ok {
					return fmt.Errorf("L%d file %06d: slice references missing frozen file %06d",
						level, files[i].Num, s.FrozenNum)
				}
			}
		}
	}
	// Every frozen file must be referenced by at least one slice.
	refs := map[uint64]int{}
	for level := 1; level < NumLevels; level++ {
		for _, f := range v.Levels[level] {
			for _, s := range f.Slices {
				refs[s.FrozenNum]++
			}
		}
	}
	for num := range v.Frozen {
		if refs[num] == 0 {
			return fmt.Errorf("frozen file %06d has no referencing slices", num)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Builder

// builder accumulates one edit's effect on a base version.
type builder struct {
	icmp    keys.InternalComparer
	base    *Version
	deleted map[uint64]bool
	added   [NumLevels][]*FileMeta
	slices  map[uint64][]Slice // fileNum -> slices to append
	frozen  []*FrozenMeta
}

func newBuilder(icmp keys.InternalComparer, base *Version) *builder {
	return &builder{
		icmp:    icmp,
		base:    base,
		deleted: map[uint64]bool{},
		slices:  map[uint64][]Slice{},
	}
}

func (b *builder) apply(e *Edit) {
	for _, df := range e.DeletedFiles {
		b.deleted[df.Num] = true
	}
	for _, nf := range e.NewFiles {
		b.added[nf.Level] = append(b.added[nf.Level], nf.Meta)
	}
	for _, ns := range e.NewSlices {
		b.slices[ns.FileNum] = append(b.slices[ns.FileNum], ns.Slice)
	}
	b.frozen = append(b.frozen, e.FrozenFiles...)
}

// finish builds the resulting version. Frozen files whose referencing
// slices all disappeared are dropped (their numbers are returned so the Set
// can release them).
func (b *builder) finish() (*Version, []uint64) {
	// The maps are sized from the base version and the sliced lists counted
	// before they are made: an edit changes a handful of files, and growing
	// these entry by entry was most of what applying it allocated.
	v := &Version{icmp: b.icmp, Frozen: make(map[uint64]*FrozenMeta, len(b.base.Frozen)+len(b.frozen))}
	for level := 0; level < NumLevels; level++ {
		files := make([]*FileMeta, 0, len(b.base.Levels[level])+len(b.added[level]))
		for _, f := range b.base.Levels[level] {
			if !b.deleted[f.Num] {
				files = append(files, f)
			}
		}
		files = append(files, b.added[level]...)
		// Attach pending slices by replacing metas.
		for i, f := range files {
			if add, ok := b.slices[f.Num]; ok {
				merged := make([]Slice, 0, len(f.Slices)+len(add))
				merged = append(merged, f.Slices...)
				merged = append(merged, add...)
				files[i] = f.withSlices(merged)
			}
		}
		if level == 0 {
			slices.SortFunc(files, func(x, y *FileMeta) int { return cmp.Compare(x.Num, y.Num) })
		} else {
			slices.SortFunc(files, func(x, y *FileMeta) int { return b.icmp.Compare(x.Smallest, y.Smallest) })
		}
		v.Levels[level] = files
		sliced := 0
		for _, f := range files {
			if len(f.Slices) > 0 {
				sliced++
			}
		}
		if sliced > 0 {
			v.Sliced[level] = make([]*FileMeta, 0, sliced)
			for _, f := range files {
				if len(f.Slices) > 0 {
					v.Sliced[level] = append(v.Sliced[level], f)
				}
			}
		}
		if slices.Equal(v.Sliced[level], b.base.Sliced[level]) {
			// The edit left this level's links alone (metas are replaced when
			// a slice is attached), so the base's index still describes them.
			v.Windows[level] = b.base.Windows[level]
		} else {
			v.Windows[level] = newWindows(b.icmp.User, v.Sliced[level])
		}
	}

	// Frozen set: carry over base + newly frozen, then drop unreferenced.
	for num, fm := range b.base.Frozen {
		v.Frozen[num] = fm
	}
	for _, fm := range b.frozen {
		v.Frozen[fm.Num] = fm
	}
	refs := make(map[uint64]int, len(v.Frozen))
	for level := 1; level < NumLevels; level++ {
		for _, f := range v.Sliced[level] {
			for i := range f.Slices {
				refs[f.Slices[i].FrozenNum]++
			}
		}
	}
	var droppedFrozen []uint64
	for num := range v.Frozen {
		if refs[num] == 0 {
			delete(v.Frozen, num)
			droppedFrozen = append(droppedFrozen, num)
		}
	}
	return v, droppedFrozen
}
