package version

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/keys"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// refTree is the reference the sharing builder is held to: the tree as plain
// per-file records, to which an edit applies the builder's rules from
// scratch — deletes by number, slices appended to their file, frozen files
// kept while any slice references them — and from which every derived list
// is rebuilt whole.
type refTree struct {
	files  map[uint64]*refFile
	frozen map[uint64]*FrozenMeta
}

type refFile struct {
	level int
	meta  FileMeta // Num, Size, bounds
	sl    []Slice
}

func newRefTree() *refTree {
	return &refTree{files: map[uint64]*refFile{}, frozen: map[uint64]*FrozenMeta{}}
}

func (r *refTree) apply(e *Edit) {
	for _, df := range e.DeletedFiles {
		delete(r.files, df.Num)
	}
	for _, nf := range e.NewFiles {
		m := nf.Meta
		r.files[m.Num] = &refFile{level: nf.Level,
			meta: FileMeta{Num: m.Num, Size: m.Size, Smallest: m.Smallest, Largest: m.Largest},
			sl:   slices.Clone(m.Slices)}
	}
	for _, ns := range e.NewSlices {
		if f := r.files[ns.FileNum]; f != nil {
			f.sl = append(f.sl, ns.Slice)
		}
	}
	for _, fm := range e.FrozenFiles {
		r.frozen[fm.Num] = fm
	}
	for num := range r.frozen {
		if r.sliceBytes(num) < 0 {
			delete(r.frozen, num)
		}
	}
}

// sliceBytes sums the bytes of the slices that reference frozen file num,
// -1 when none does.
func (r *refTree) sliceBytes(num uint64) int64 {
	n, found := int64(0), false
	for _, f := range r.files {
		if f.level == 0 {
			continue
		}
		for _, s := range f.sl {
			if s.FrozenNum == num {
				n, found = n+s.Bytes, true
			}
		}
	}
	if !found {
		return -1
	}
	return n
}

// level lists one level's files in the version's order.
func (r *refTree) level(level int) []*refFile {
	var out []*refFile
	for _, f := range r.files {
		if f.level == level {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if level == 0 {
			return out[i].meta.Num < out[j].meta.Num
		}
		return icmp.Compare(out[i].meta.Smallest, out[j].meta.Smallest) < 0
	})
	return out
}

func (r *refTree) nums() map[uint64]bool {
	out := map[uint64]bool{}
	for num := range r.files {
		out[num] = true
	}
	for num := range r.frozen {
		out[num] = true
	}
	return out
}

// diff describes how v differs from the reference, "" when it does not.
func (r *refTree) diff(v *Version) string {
	var d strings.Builder
	for level := 0; level < NumLevels; level++ {
		want := r.level(level)
		got := v.Levels[level]
		if len(got) != len(want) {
			fmt.Fprintf(&d, "L%d: %d files, want %d; ", level, len(got), len(want))
			continue
		}
		var wantSliced []uint64
		var wantWindows []Slice
		for i, f := range want {
			g := got[i]
			if g.Num != f.meta.Num || g.Size != f.meta.Size || !slices.Equal(g.Smallest, f.meta.Smallest) ||
				!slices.Equal(g.Largest, f.meta.Largest) || !slicesEqual(g.Slices, f.sl) {
				fmt.Fprintf(&d, "L%d[%d]: file %d with %d slices, want %d with %d; ", level, i, g.Num, len(g.Slices), f.meta.Num, len(f.sl))
			}
			if len(f.sl) > 0 {
				wantSliced = append(wantSliced, f.meta.Num)
				wantWindows = append(wantWindows, f.sl...)
			}
		}
		var gotSliced []uint64
		for _, f := range v.Sliced[level] {
			gotSliced = append(gotSliced, f.Num)
		}
		if !slices.Equal(gotSliced, wantSliced) {
			fmt.Fprintf(&d, "L%d sliced %v, want %v; ", level, gotSliced, wantSliced)
		}
		// Windows: every slice of the level by Lo, ties in file then link
		// order, with the running maximum of Hi.
		sort.SliceStable(wantWindows, func(i, j int) bool {
			return string(wantWindows[i].Range.Lo) < string(wantWindows[j].Range.Lo)
		})
		w := v.Windows[level]
		if len(w.ByLo) != len(wantWindows) || len(w.MaxHi) != len(wantWindows) {
			fmt.Fprintf(&d, "L%d: %d windows, want %d; ", level, len(w.ByLo), len(wantWindows))
			continue
		}
		var maxHi []byte
		for i := range wantWindows {
			if !slicesEqual([]Slice{*w.ByLo[i]}, wantWindows[i:i+1]) {
				fmt.Fprintf(&d, "L%d window %d differs; ", level, i)
			}
			if maxHi == nil || string(wantWindows[i].Range.Hi) > string(maxHi) {
				maxHi = wantWindows[i].Range.Hi
			}
			if !slices.Equal(w.MaxHi[i], maxHi) {
				fmt.Fprintf(&d, "L%d MaxHi[%d] = %s, want %s; ", level, i, w.MaxHi[i], maxHi)
			}
		}
	}
	if len(v.Frozen) != len(r.frozen) {
		fmt.Fprintf(&d, "%d frozen files, want %d; ", len(v.Frozen), len(r.frozen))
	}
	var dup int64
	for num, fm := range r.frozen {
		if g := v.Frozen[num]; g == nil || g.Size != fm.Size ||
			!slices.Equal(g.Smallest, fm.Smallest) || !slices.Equal(g.Largest, fm.Largest) {
			fmt.Fprintf(&d, "frozen file %d missing or different; ", num)
		}
		if x := fm.Size - r.sliceBytes(num); x > 0 {
			dup += x
		}
	}
	if v.DuplicatedFrozenBytes() != dup {
		fmt.Fprintf(&d, "DuplicatedFrozenBytes %d, want %d; ", v.DuplicatedFrozenBytes(), dup)
	}
	return d.String()
}

func slicesEqual(a, b []Slice) bool {
	return slices.EqualFunc(a, b, func(x, y Slice) bool {
		return x.FrozenNum == y.FrozenNum && x.LinkSeq == y.LinkSeq && x.Bytes == y.Bytes &&
			slices.Equal(x.Range.Lo, y.Range.Lo) && slices.Equal(x.Range.Hi, y.Range.Hi)
	})
}

// editGen makes random well-formed edits on the reference tree, in the
// shapes the engine makes: flushes into level 0; and, for a file picked at
// levels 0-2, a move one level down when nothing below overlaps it, else a
// link when it carries no slices (freeze it and slice it onto the overlapped
// files below), else a merge (a fresh file replaces it and its slices); level
// 0 files that overlap level 1 are rewritten into it with the files they
// overlap. Now and then an edit overlaps two files of a sorted level, which
// the builder must refuse. Keys are slots: a file covers slots [lo, hi].
type editGen struct {
	rng     *rand.Rand
	ref     *refTree
	nextNum uint64
	nextSeq uint64
}

const genSlots = 40

func slotKey(slot int, hi bool) string {
	if hi {
		return fmt.Sprintf("s%03d9", slot)
	}
	return fmt.Sprintf("s%03d0", slot)
}

func (g *editGen) newMeta(lo, hi int) *FileMeta {
	g.nextNum++
	return &FileMeta{Num: g.nextNum, Size: int64(50 + g.rng.Intn(100)),
		Smallest: ik(slotKey(lo, false), 2), Largest: ik(slotKey(hi, true), 1)}
}

func fileSlots(f *refFile) (int, int) {
	var lo, hi int
	fmt.Sscanf(string(f.meta.Smallest.UserKey()), "s%03d", &lo)
	fmt.Sscanf(string(f.meta.Largest.UserKey()), "s%03d", &hi)
	return lo, hi
}

// overlapping lists the files of level whose slots meet [lo, hi].
func (g *editGen) overlapping(level, lo, hi int) []*refFile {
	var out []*refFile
	for _, f := range g.ref.level(level) {
		if flo, fhi := fileSlots(f); flo <= hi && lo <= fhi {
			out = append(out, f)
		}
	}
	return out
}

func (g *editGen) pick(level int, ok func(*refFile) bool) *refFile {
	var c []*refFile
	for _, f := range g.ref.level(level) {
		if ok(f) {
			c = append(c, f)
		}
	}
	if len(c) == 0 {
		return nil
	}
	return c[g.rng.Intn(len(c))]
}

// next returns an edit and whether the builder must accept it; nil when the
// drawn kind has nothing to act on.
func (g *editGen) next() (*Edit, bool) {
	e := &Edit{}
	any := func(*refFile) bool { return true }
	switch g.rng.Intn(10) {
	case 0, 1, 2: // flush
		lo := g.rng.Intn(genSlots - 3)
		e.AddFile(0, g.newMeta(lo, lo+g.rng.Intn(3)))
	case 4, 5, 6, 7: // a file one level down: move, link, merge or rewrite
		var f *refFile
		var level int
		for _, level = range g.rng.Perm(3) {
			if f = g.pick(level, any); f != nil {
				break
			}
		}
		if f == nil {
			return nil, true
		}
		lo, hi := fileSlots(f)
		below := g.overlapping(level+1, lo, hi)
		e.DeleteFile(level, f.meta.Num)
		switch {
		case len(below) == 0:
			m := &FileMeta{Num: f.meta.Num, Size: f.meta.Size, Smallest: f.meta.Smallest, Largest: f.meta.Largest, Slices: slices.Clone(f.sl)}
			e.AddFile(level+1, m)
		case level == 0:
			for _, b := range below {
				blo, bhi := fileSlots(b)
				lo, hi = min(lo, blo), max(hi, bhi)
				e.DeleteFile(1, b.meta.Num)
			}
			e.AddFile(1, g.newMeta(lo, hi))
		case len(f.sl) == 0:
			e.FreezeFile(&FrozenMeta{Num: f.meta.Num, Size: f.meta.Size, Smallest: f.meta.Smallest, Largest: f.meta.Largest})
			g.nextSeq++
			for _, b := range below {
				blo, bhi := fileSlots(b)
				e.AddSlice(level+1, b.meta.Num, Slice{FrozenNum: f.meta.Num, LinkSeq: g.nextSeq,
					Range: keys.KeyRange{Lo: []byte(slotKey(max(lo, blo), false)), Hi: []byte(slotKey(min(hi, bhi), true))},
					Bytes: f.meta.Size / int64(len(below))})
			}
		default:
			e.AddFile(level, g.newMeta(lo, hi))
		}
	case 3, 8: // merge a file that carries slices
		level := 2 + g.rng.Intn(2)
		f := g.pick(level, func(f *refFile) bool { return len(f.sl) > 0 })
		if f == nil {
			return nil, true
		}
		lo, hi := fileSlots(f)
		e.DeleteFile(level, f.meta.Num)
		e.AddFile(level, g.newMeta(lo, hi))
	case 9: // an overlap the builder must refuse
		level := 1 + g.rng.Intn(3)
		f := g.pick(level, any)
		if f == nil {
			return nil, true
		}
		lo, _ := fileSlots(f)
		e.AddFile(level, g.newMeta(lo, lo))
		return e, false
	}
	return e, true
}

// TestSharingBuilderMatchesReference drives random sequences of flush, move,
// link, merge and freeze edits through a Set — its one reused builder, its
// MANIFEST, its file reference counts — with some versions held by readers,
// and after every edit holds the current version to a from-scratch rebuild:
// levels, sliced lists, windows, frozen set and duplicated frozen bytes; the
// Set's per-file reference counts to the live versions' file sets; and what
// it reports obsolete to the files no live version has. Refused edits leave
// everything as it was. At the end the MANIFEST recovers to the same tree.
func TestSharingBuilderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := vfs.Mem()
		s := NewSet(fs, "/db", icmp)
		if err := s.Create(); err != nil {
			t.Fatal(err)
		}
		g := &editGen{rng: rng, ref: newRefTree(), nextNum: 100}

		type held struct {
			v    *Version
			nums map[uint64]bool
		}
		var holds []held
		curNums := map[uint64]bool{}
		ever := map[uint64]bool{}
		obsolete := map[uint64]bool{}

		for step := 0; step < 300; step++ {
			e, valid := g.next()
			if e == nil {
				continue
			}
			err := s.LogAndApply(e)
			if !valid {
				if err == nil {
					t.Fatalf("seed %d step %d: an edit overlapping two files was accepted", seed, step)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			g.ref.apply(e)
			curNums = g.ref.nums()
			for num := range curNums {
				ever[num] = true
			}
			v := s.Current()
			if d := g.ref.diff(v); d != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, d)
			}
			if len(s.b.tally) != len(v.Frozen) {
				t.Fatalf("seed %d step %d: the tally holds %d frozen files, the version %d", seed, step, len(s.b.tally), len(v.Frozen))
			}
			if rng.Intn(4) == 0 {
				holds = append(holds, held{v, curNums})
			} else {
				v.Unref()
			}
			if len(holds) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(holds))
				holds[i].v.Unref()
				holds = append(holds[:i], holds[i+1:]...)
			}

			// Reference counts: one per distinct live version holding the file.
			want := map[uint64]int{}
			seen := map[*Version]bool{}
			for _, h := range holds {
				if !seen[h.v] {
					seen[h.v] = true
					for num := range h.nums {
						want[num]++
					}
				}
			}
			if cur := s.CurrentNoRef(); !seen[cur] {
				for num := range curNums {
					want[num]++
				}
			}
			s.mu.Lock()
			got := copyRefs(s.fileRefs)
			s.mu.Unlock()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d: file refs %v, want %v", seed, step, got, want)
			}
			for _, num := range s.TakeObsolete() {
				if obsolete[num] {
					t.Fatalf("seed %d step %d: file %d reported obsolete twice", seed, step, num)
				}
				obsolete[num] = true
			}
			for num := range ever {
				if want[num] == 0 != obsolete[num] {
					t.Fatalf("seed %d step %d: file %d obsolete=%v with %d live refs", seed, step, num, obsolete[num], want[num])
				}
			}
		}
		for _, h := range holds {
			h.v.Unref()
		}
		s.Close()

		s2 := NewSet(fs, "/db", icmp)
		if err := s2.Recover(); err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}
		v := s2.Current()
		if d := g.ref.diff(v); d != "" {
			t.Fatalf("seed %d: recovered tree: %s", seed, d)
		}
		v.Unref()
		s2.Close()
	}
}

func copyRefs(m map[uint64]int) map[uint64]int {
	out := make(map[uint64]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestBuilderRejects: every shape the builder refuses, whether it comes as
// one edit on a valid tree or in a MANIFEST being recovered.
func TestBuilderRejects(t *testing.T) {
	dangling := fm(1, "a", "f", 10)
	dangling.Slices = []Slice{{FrozenNum: 99, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("b")}}}
	for _, tc := range []struct {
		name string
		edit func(e *Edit)
		want string
	}{
		{"overlap", func(e *Edit) { e.AddFile(2, fm(1, "a", "f", 10)); e.AddFile(2, fm(2, "e", "k", 10)) }, "overlap"},
		{"overlap with a base file", func(e *Edit) { e.AddFile(1, fm(1, "k", "p", 10)) }, "overlap"},
		{"smallest > largest", func(e *Edit) { e.AddFile(3, fm(1, "k", "a", 10)) }, "smallest > largest"},
		{"dangling slice", func(e *Edit) { e.AddFile(3, dangling) }, "missing frozen file"},
		{"slice onto a file without its frozen file", func(e *Edit) {
			e.AddSlice(1, 10, Slice{FrozenNum: 77, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("b")}})
		}, "missing frozen file"},
		{"delete from the wrong level", func(e *Edit) { e.DeleteFile(2, 10) }, "not on L2"},
		{"delete of a missing file", func(e *Edit) { e.DeleteFile(1, 11) }, "not on L1"},
		{"link onto the wrong level", func(e *Edit) {
			e.FreezeFile(&FrozenMeta{Num: 77, Size: 10, Smallest: ik("a", 2), Largest: ik("b", 1)})
			e.AddSlice(2, 10, Slice{FrozenNum: 77, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("b")}})
		}, "not on L2"},
		{"link onto a file the edit deletes", func(e *Edit) {
			e.DeleteFile(1, 10)
			e.FreezeFile(&FrozenMeta{Num: 77, Size: 10, Smallest: ik("a", 2), Largest: ik("b", 1)})
			e.AddSlice(1, 10, Slice{FrozenNum: 77, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("b")}})
		}, "not on L1"},
	} {
		base := &Edit{}
		base.AddFile(1, fm(10, "a", "m", 100))
		v := buildVersion(t, base)
		e := &Edit{}
		tc.edit(e)
		if _, err := applyEdit(v, e); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: finish = %v, want an error containing %q", tc.name, err, tc.want)
		}

		fs := vfs.Mem()
		base.ComparerName = icmp.User.Name()
		base.SetNextFileNum(200)
		writeManifest(t, fs, base, e)
		if err := NewSet(fs, "/db", icmp).Recover(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Recover = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// writeManifest makes edits, one record each, the MANIFEST that CURRENT in
// /db names.
func writeManifest(t *testing.T, fs vfs.FS, edits ...*Edit) {
	t.Helper()
	mf, err := fs.Create(ManifestFileName("/db", 100))
	if err != nil {
		t.Fatal(err)
	}
	w := wal.NewWriter(mf)
	for _, e := range edits {
		if err := w.AddRecord(e.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}
	cur, err := fs.Create(CurrentFileName("/db"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Write([]byte("MANIFEST-000100\n")); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
}
