package version

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/keys"
)

// builder applies edits to a base version. What an edit does not touch, the
// new version shares with the base: the file, sliced and window lists of
// every level the edit neither deletes from, adds to nor links onto, and the
// frozen map when the frozen set stays the same. So a link costs the two
// levels it changes, plus a map copy only when it freezes a file or a merge
// drops one. A Set keeps one builder and reuses its maps and buffers from
// edit to edit.
type builder struct {
	icmp keys.InternalComparer
	base *Version

	touched [NumLevels]bool
	deleted map[levelFile]bool
	added   [NumLevels][]*FileMeta
	// slices are the links to attach, in edit order; pending counts them per
	// target file.
	slices  []NewSlice
	pending map[levelFile]int
	frozen  []*FrozenMeta

	// tally is scratch for the slice count and slice bytes per frozen file
	// of the version being built. It decides which frozen files the version
	// drops, finds slices that reference no frozen file, and gives
	// DuplicatedFrozenBytes.
	tally map[uint64]frozenTally
	// sliced is scratch for one level's sliced list.
	sliced []*FileMeta
}

// levelFile names a file on a level, as deletes and links do.
type levelFile struct {
	level int
	num   uint64
}

type frozenTally struct {
	slices int
	bytes  int64
}

func newBuilder(icmp keys.InternalComparer) *builder {
	return &builder{
		icmp:    icmp,
		deleted: map[levelFile]bool{},
		pending: map[levelFile]int{},
		tally:   map[uint64]frozenTally{},
	}
}

// reset readies b for edits on base, keeping its buffers.
func (b *builder) reset(base *Version) {
	b.base = base
	b.touched = [NumLevels]bool{}
	clear(b.deleted)
	for level := range b.added {
		clear(b.added[level])
		b.added[level] = b.added[level][:0]
	}
	clear(b.slices)
	b.slices = b.slices[:0]
	clear(b.pending)
	clear(b.frozen)
	b.frozen = b.frozen[:0]
}

func (b *builder) apply(e *Edit) {
	for _, df := range e.DeletedFiles {
		b.deleted[levelFile{df.Level, df.Num}] = true
		b.touched[df.Level] = true
	}
	for _, nf := range e.NewFiles {
		b.added[nf.Level] = append(b.added[nf.Level], nf.Meta)
		b.touched[nf.Level] = true
	}
	for _, ns := range e.NewSlices {
		b.slices = append(b.slices, ns)
		b.pending[levelFile{ns.Level, ns.FileNum}]++
		b.touched[ns.Level] = true
	}
	b.frozen = append(b.frozen, e.FrozenFiles...)
}

// finish builds the resulting version and checks it: every delete and link
// finds its file on the level it names, levels >= 1 hold disjoint files,
// each with smallest <= largest, and every slice references a frozen file.
// Frozen files that no slice references any more are dropped. Order is
// checked only in the touched levels; the rest are the base's, which passed
// the same check when it was built. A Set runs finish on every edit and on
// every MANIFEST record at recovery, so a MANIFEST describing overlapping
// files is an error, never a served tree.
func (b *builder) finish() (*Version, error) {
	base := b.base
	b.base = nil
	v := &Version{icmp: b.icmp, Levels: base.Levels, Sliced: base.Sliced, Windows: base.Windows}
	matched := 0
	for level := range v.Levels {
		if b.touched[level] {
			matched += b.buildLevel(base, v, level)
		}
	}
	if matched != len(b.deleted)+len(b.slices) {
		return nil, b.unmatched(base, v, matched)
	}
	if err := b.checkOrder(v); err != nil {
		return nil, err
	}
	if err := b.settleFrozen(base, v); err != nil {
		return nil, err
	}
	return v, nil
}

// settleFrozen tallies v's slices per frozen file, keeps the frozen files
// some slice references (sharing the base's map when that set is
// unchanged), and fixes v's DuplicatedFrozenBytes. It fails on a slice of a
// missing frozen file.
func (b *builder) settleFrozen(base, v *Version) error {
	clear(b.tally)
	for level := 1; level < NumLevels; level++ {
		for _, f := range v.Sliced[level] {
			for i := range f.Slices {
				t := b.tally[f.Slices[i].FrozenNum]
				t.slices++
				t.bytes += f.Slices[i].Bytes
				b.tally[f.Slices[i].FrozenNum] = t
			}
		}
	}
	v.Frozen = base.Frozen
	same := len(b.frozen) == 0
	for num := range base.Frozen {
		same = same && b.tally[num].slices > 0
	}
	if !same {
		v.Frozen = make(map[uint64]*FrozenMeta, len(base.Frozen)+len(b.frozen))
		for num, fm := range base.Frozen {
			if b.tally[num].slices > 0 {
				v.Frozen[num] = fm
			}
		}
		for _, fm := range b.frozen {
			if b.tally[fm.Num].slices > 0 {
				v.Frozen[fm.Num] = fm
			}
		}
	}
	for num, t := range b.tally {
		fm := v.Frozen[num]
		if fm == nil {
			return danglingSlice(v, num)
		}
		if d := fm.Size - t.bytes; d > 0 {
			v.dupFrozen += d
		}
	}
	return nil
}

// buildLevel makes v's lists for one touched level: the base's files minus
// the deleted plus the added, with pending slices attached by replacing the
// metas they land on. It returns how many deletes and slices found their
// file there.
func (b *builder) buildLevel(base, v *Version, level int) int {
	matched := 0
	files := make([]*FileMeta, 0, len(base.Levels[level])+len(b.added[level]))
	for _, f := range base.Levels[level] {
		if b.deleted[levelFile{level, f.Num}] {
			matched++
		} else {
			files = append(files, f)
		}
	}
	files = append(files, b.added[level]...)
	for i, f := range files {
		if n := b.pending[levelFile{level, f.Num}]; n > 0 {
			matched += n
			merged := make([]Slice, len(f.Slices), len(f.Slices)+n)
			copy(merged, f.Slices)
			for _, ns := range b.slices {
				if ns.Level == level && ns.FileNum == f.Num {
					merged = append(merged, ns.Slice)
				}
			}
			files[i] = f.withSlices(merged)
		}
	}
	if level == 0 {
		slices.SortFunc(files, func(x, y *FileMeta) int { return cmp.Compare(x.Num, y.Num) })
	} else {
		slices.SortFunc(files, func(x, y *FileMeta) int { return b.icmp.Compare(x.Smallest, y.Smallest) })
	}
	v.Levels[level] = files

	b.sliced = b.sliced[:0]
	for _, f := range files {
		if len(f.Slices) > 0 {
			b.sliced = append(b.sliced, f)
		}
	}
	// When the edit left this level's links alone (metas are replaced when a
	// slice is attached), the base's lists still describe them.
	if !slices.Equal(b.sliced, base.Sliced[level]) {
		v.Sliced[level] = nil
		if len(b.sliced) > 0 {
			v.Sliced[level] = slices.Clone(b.sliced)
		}
		v.Windows[level] = newWindows(b.icmp.User, v.Sliced[level])
	}
	clear(b.sliced)
	return matched
}

// unmatched names a delete or a link of the edit whose file is not on the
// level it names.
func (b *builder) unmatched(base, v *Version, matched int) error {
	on := func(files []*FileMeta, num uint64) bool {
		return slices.ContainsFunc(files, func(f *FileMeta) bool { return f.Num == num })
	}
	for df := range b.deleted {
		if !on(base.Levels[df.level], df.num) {
			return fmt.Errorf("edit deletes file %06d, which is not on L%d", df.num, df.level)
		}
	}
	for _, ns := range b.slices {
		if !on(v.Levels[ns.Level], ns.FileNum) {
			return fmt.Errorf("edit links onto file %06d, which is not on L%d", ns.FileNum, ns.Level)
		}
	}
	return fmt.Errorf("edit's deletes and links match %d files, want %d", matched, len(b.deleted)+len(b.slices))
}

// checkOrder checks the touched sorted levels of v for order.
func (b *builder) checkOrder(v *Version) error {
	ucmp := b.icmp.User
	for level := 1; level < NumLevels; level++ {
		if !b.touched[level] {
			continue
		}
		files := v.Levels[level]
		for i := range files {
			if b.icmp.Compare(files[i].Smallest, files[i].Largest) > 0 {
				return fmt.Errorf("L%d file %06d: smallest > largest", level, files[i].Num)
			}
			if i > 0 && ucmp.Compare(files[i-1].Largest.UserKey(), files[i].Smallest.UserKey()) >= 0 {
				return fmt.Errorf("L%d files %06d and %06d overlap",
					level, files[i-1].Num, files[i].Num)
			}
		}
	}
	return nil
}

// danglingSlice names a file of v with a slice of the missing frozen file num.
func danglingSlice(v *Version, num uint64) error {
	for level := 1; level < NumLevels; level++ {
		for _, f := range v.Sliced[level] {
			for _, s := range f.Slices {
				if s.FrozenNum == num {
					return fmt.Errorf("L%d file %06d: slice references missing frozen file %06d",
						level, f.Num, num)
				}
			}
		}
	}
	return fmt.Errorf("a slice references missing frozen file %06d", num)
}
