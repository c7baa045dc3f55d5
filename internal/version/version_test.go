package version

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/keys"
	"repro/internal/vfs"
	"repro/internal/wal"
)

var icmp = keys.InternalComparer{User: keys.BytewiseComparer{}}

func fm(num uint64, lo, hi string, size int64) *FileMeta {
	return &FileMeta{Num: num, Size: size, Smallest: ik(lo, 2), Largest: ik(hi, 1)}
}

// applyEdit builds the version e makes of base.
func applyEdit(base *Version, e *Edit) (*Version, error) {
	b := newBuilder(icmp)
	b.reset(base)
	b.apply(e)
	return b.finish()
}

func buildVersion(t testing.TB, edits ...*Edit) *Version {
	t.Helper()
	v := NewVersion(icmp)
	for _, e := range edits {
		var err error
		if v, err = applyEdit(v, e); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	}
	return v
}

func TestBuilderAddDelete(t *testing.T) {
	e1 := &Edit{}
	e1.AddFile(1, fm(10, "a", "f", 100))
	e1.AddFile(1, fm(11, "g", "m", 100))
	e1.AddFile(2, fm(12, "a", "z", 500))
	v := buildVersion(t, e1)
	if v.NumFiles(1) != 2 || v.NumFiles(2) != 1 {
		t.Fatalf("files: L1=%d L2=%d", v.NumFiles(1), v.NumFiles(2))
	}
	if v.LevelBytes(1) != 200 {
		t.Errorf("LevelBytes(1) = %d", v.LevelBytes(1))
	}

	e2 := &Edit{}
	e2.DeleteFile(1, 10)
	e2.AddFile(1, fm(13, "n", "z", 100))
	v2 := buildVersion(t, e1, e2)
	if v2.NumFiles(1) != 2 {
		t.Fatalf("L1 after delete = %d", v2.NumFiles(1))
	}
	if v2.Levels[1][0].Num != 11 || v2.Levels[1][1].Num != 13 {
		t.Errorf("L1 order: %d, %d", v2.Levels[1][0].Num, v2.Levels[1][1].Num)
	}
	// Base version unchanged (immutability).
	if v.NumFiles(1) != 2 || v.Levels[1][0].Num != 10 {
		t.Error("builder mutated base version")
	}
}

func TestLevel0OrderedByFileNum(t *testing.T) {
	e := &Edit{}
	e.AddFile(0, fm(30, "a", "z", 10))
	e.AddFile(0, fm(10, "a", "z", 10))
	e.AddFile(0, fm(20, "c", "x", 10))
	v := buildVersion(t, e)
	got := []uint64{v.Levels[0][0].Num, v.Levels[0][1].Num, v.Levels[0][2].Num}
	if got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("L0 order = %v", got)
	}
}

func TestOverlaps(t *testing.T) {
	e := &Edit{}
	e.AddFile(1, fm(1, "a", "c", 10))
	e.AddFile(1, fm(2, "e", "g", 10))
	e.AddFile(1, fm(3, "i", "k", 10))
	e.AddFile(0, fm(4, "a", "z", 10))
	e.AddFile(0, fm(5, "x", "z", 10))
	v := buildVersion(t, e)

	r := func(lo, hi string) keys.KeyRange { return keys.KeyRange{Lo: []byte(lo), Hi: []byte(hi)} }
	if got := v.Overlaps(1, r("b", "f")); len(got) != 2 || got[0].Num != 1 || got[1].Num != 2 {
		t.Errorf("Overlaps(b,f) = %v", got)
	}
	if got := v.Overlaps(1, r("d", "d")); len(got) != 0 {
		t.Errorf("Overlaps(d,d) = %v", got)
	}
	if got := v.Overlaps(1, r("a", "z")); len(got) != 3 {
		t.Errorf("Overlaps(a,z) = %d files", len(got))
	}
	if got := v.Overlaps(0, r("b", "c")); len(got) != 1 || got[0].Num != 4 {
		t.Errorf("L0 Overlaps = %v", got)
	}
}

func TestFindFile(t *testing.T) {
	e := &Edit{}
	e.AddFile(1, fm(1, "b", "d", 10))
	e.AddFile(1, fm(2, "f", "h", 10))
	v := buildVersion(t, e)
	if f := v.FindFile(1, []byte("c")); f == nil || f.Num != 1 {
		t.Errorf("FindFile(c) = %v", f)
	}
	if f := v.FindFile(1, []byte("e")); f != nil {
		t.Errorf("FindFile(e) = %v, want nil", f)
	}
	if f := v.FindFile(1, []byte("z")); f != nil {
		t.Errorf("FindFile(z) = %v, want nil", f)
	}
	if f := v.FindFile(1, []byte("f")); f == nil || f.Num != 2 {
		t.Errorf("FindFile(f) = %v", f)
	}
}

func TestFreezeAndSliceLifecycle(t *testing.T) {
	// Set up: L1 file 10 over (a..m), L2 files 20 (a..f), 21 (g..p).
	e1 := &Edit{}
	e1.AddFile(1, fm(10, "a", "m", 100))
	e1.AddFile(2, fm(20, "a", "f", 100))
	e1.AddFile(2, fm(21, "g", "p", 100))
	v := buildVersion(t, e1)

	// Link: freeze 10, slice it onto 20 and 21.
	e2 := &Edit{}
	e2.DeleteFile(1, 10)
	e2.FreezeFile(&FrozenMeta{Num: 10, Size: 100, Smallest: ik("a", 2), Largest: ik("m", 1)})
	e2.AddSlice(2, 20, Slice{FrozenNum: 10, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("f")}, LinkSeq: 1, Bytes: 50})
	e2.AddSlice(2, 21, Slice{FrozenNum: 10, Range: keys.KeyRange{Lo: []byte("g"), Hi: []byte("m")}, LinkSeq: 2, Bytes: 50})
	v2, err := applyEdit(v, e2)
	if err != nil {
		t.Fatal(err)
	}
	if v2.NumFiles(1) != 0 {
		t.Errorf("L1 still has %d files", v2.NumFiles(1))
	}
	if len(v2.Frozen) != 1 || v2.Frozen[10] == nil {
		t.Fatalf("frozen set = %v", v2.Frozen)
	}
	if v2.FrozenBytes() != 100 {
		t.Errorf("FrozenBytes = %d", v2.FrozenBytes())
	}
	if v2.SliceCount(2) != 2 {
		t.Errorf("SliceCount(2) = %d", v2.SliceCount(2))
	}
	var f20 *FileMeta
	for _, f := range v2.Levels[2] {
		if f.Num == 20 {
			f20 = f
		}
	}
	if f20 == nil || len(f20.Slices) != 1 || f20.Slices[0].FrozenNum != 10 {
		t.Fatalf("file 20 slices = %+v", f20)
	}
	if f20.SliceBytes() != 50 {
		t.Errorf("SliceBytes = %d", f20.SliceBytes())
	}

	// Merge of file 20: delete it, add replacement without slices. The
	// frozen file is still referenced by 21's slice.
	e3 := &Edit{}
	e3.DeleteFile(2, 20)
	e3.AddFile(2, fm(30, "a", "f", 150))
	v3, err := applyEdit(v2, e3)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Frozen[10] == nil {
		t.Fatal("frozen file vanished while referenced")
	}

	// Merge of file 21: last reference disappears; frozen file dropped.
	e4 := &Edit{}
	e4.DeleteFile(2, 21)
	e4.AddFile(2, fm(31, "g", "p", 150))
	v4, err := applyEdit(v3, e4)
	if err != nil {
		t.Fatal(err)
	}
	if len(v4.Frozen) != 0 {
		t.Errorf("frozen set not emptied: %v", v4.Frozen)
	}
}

func TestCheckInvariantsCatchesOverlap(t *testing.T) {
	e := &Edit{}
	e.AddFile(1, fm(1, "a", "f", 10))
	e.AddFile(1, fm(2, "e", "k", 10)) // overlaps
	if _, err := applyEdit(NewVersion(icmp), e); err == nil {
		t.Error("overlapping L1 files not detected")
	}
}

func TestCheckInvariantsCatchesDanglingSlice(t *testing.T) {
	e := &Edit{}
	f := fm(1, "a", "f", 10)
	f.Slices = []Slice{{FrozenNum: 99, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("b")}}}
	e.AddFile(1, f)
	if _, err := applyEdit(NewVersion(icmp), e); err == nil {
		t.Error("dangling slice not detected")
	}
}

// ---------------------------------------------------------------------------
// Set tests

func newTestSet(t *testing.T) (*Set, vfs.FS) {
	t.Helper()
	fs := vfs.Mem()
	s := NewSet(fs, "/db", icmp)
	if err := s.Create(); err != nil {
		t.Fatal(err)
	}
	return s, fs
}

func TestSetCreateAndAllocators(t *testing.T) {
	s, _ := newTestSet(t)
	defer s.Close()
	n1 := s.NewFileNum()
	n2 := s.NewFileNum()
	if n2 != n1+1 {
		t.Errorf("file numbers not sequential: %d, %d", n1, n2)
	}
	l1 := s.NewLinkSeq()
	l2 := s.NewLinkSeq()
	if l2 != l1+1 {
		t.Errorf("link seqs not sequential")
	}
	s.SetLastSeq(500)
	s.SetLastSeq(100) // must not regress
	if s.LastSeq() != 500 {
		t.Errorf("LastSeq = %d", s.LastSeq())
	}
}

func TestSetLogAndApplyAndCurrent(t *testing.T) {
	s, _ := newTestSet(t)
	defer s.Close()
	e := &Edit{}
	e.AddFile(1, fm(10, "a", "m", 100))
	if err := s.LogAndApply(e); err != nil {
		t.Fatal(err)
	}
	v := s.Current()
	defer v.Unref()
	if v.NumFiles(1) != 1 || v.Levels[1][0].Num != 10 {
		t.Fatalf("current version: %d L1 files", v.NumFiles(1))
	}
}

// TestSetCurrentRefRace hammers Current/Unref from reader goroutines while
// a writer turns over versions with LogAndApply, which installs versions
// outside any DB-level lock. The reference must be acquired atomically with
// the pointer read (under set.mu, as Current does): a CurrentNoRef()+Ref()
// pair lets a reader resurrect a version already dropped to zero refs,
// double-releasing its file references — live files would be queued for
// deletion or the refcount-below-zero panic would fire. Run with -race.
func TestSetCurrentRefRace(t *testing.T) {
	s, _ := newTestSet(t)
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.Current()
				_ = v.NumFiles(1)
				v.Unref()
			}
		}()
	}

	var prev uint64
	for i := 0; i < 300; i++ {
		num := s.NewFileNum()
		e := &Edit{}
		if prev != 0 {
			e.DeleteFile(1, prev)
		}
		e.AddFile(1, fm(num, "a", "m", 100))
		if err := s.LogAndApply(e); err != nil {
			t.Fatal(err)
		}
		prev = num
	}
	close(stop)
	wg.Wait()

	// Once every reader has dropped its reference, exactly the final
	// version's table file may remain live; any other live file means a
	// released version's references leaked or were double-counted.
	live := s.LiveFileNums()
	if !live[prev] {
		t.Errorf("final file %d not live", prev)
	}
	delete(live, prev)
	for num := range live {
		t.Errorf("unexpected live table file %d after version churn", num)
	}
}

func TestSetRecover(t *testing.T) {
	fs := vfs.Mem()
	s := NewSet(fs, "/db", icmp)
	if err := s.Create(); err != nil {
		t.Fatal(err)
	}
	e := &Edit{}
	e.AddFile(1, fm(10, "a", "m", 100))
	e.AddFile(2, fm(11, "a", "z", 200))
	if err := s.LogAndApply(e); err != nil {
		t.Fatal(err)
	}
	// Freeze + link edit, then record high allocator values.
	e2 := &Edit{}
	e2.DeleteFile(1, 10)
	e2.FreezeFile(&FrozenMeta{Num: 10, Size: 100, Smallest: ik("a", 2), Largest: ik("m", 1)})
	e2.AddSlice(2, 11, Slice{FrozenNum: 10, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("m")}, LinkSeq: s.NewLinkSeq(), Bytes: 42})
	if err := s.LogAndApply(e2); err != nil {
		t.Fatal(err)
	}
	s.SetLastSeq(777)
	e3 := &Edit{}
	if err := s.LogAndApply(e3); err != nil { // persists lastSeq
		t.Fatal(err)
	}
	fileNumBefore := s.NewFileNum()
	s.Close()

	// Recover into a fresh Set.
	s2 := NewSet(fs, "/db", icmp)
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v := s2.Current()
	defer v.Unref()
	if v.NumFiles(1) != 0 || v.NumFiles(2) != 1 {
		t.Errorf("recovered: L1=%d L2=%d", v.NumFiles(1), v.NumFiles(2))
	}
	if v.Frozen[10] == nil {
		t.Error("frozen file lost in recovery")
	}
	f11 := v.Levels[2][0]
	if len(f11.Slices) != 1 || f11.Slices[0].FrozenNum != 10 || f11.Slices[0].Bytes != 42 {
		t.Errorf("slices lost in recovery: %+v", f11.Slices)
	}
	if s2.LastSeq() != 777 {
		t.Errorf("LastSeq after recovery = %d", s2.LastSeq())
	}
	if got := s2.NewFileNum(); got <= fileNumBefore {
		t.Errorf("file allocator regressed: %d <= %d", got, fileNumBefore)
	}
}

// TestSetRecoverZeroTail: a MANIFEST followed by zeros to the end of its file
// — one that grew before its last write landed, as a crash can leave it —
// recovers to the state its records describe. Zeros with anything after them
// are damage, and fail Recover with wal.ErrCorrupt as any other damage does.
func TestSetRecoverZeroTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail []byte
		ok   bool
	}{
		{"zeros", make([]byte, wal.BlockSize+10), true},
		{"zeros, then a byte", append(make([]byte, 10), 1), false},
	} {
		s, fs := newTestSet(t)
		e := &Edit{}
		e.AddFile(1, fm(10, "a", "m", 100))
		if err := s.LogAndApply(e); err != nil {
			t.Fatal(err)
		}
		name, err := s.readCurrent()
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, _ := f.Size()
		raw := make([]byte, size)
		if _, err := f.ReadAt(raw, 0); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
		out, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := out.Write(append(raw, tc.tail...)); err != nil {
			t.Fatal(err)
		}
		_ = out.Close()

		s2 := NewSet(fs, "/db", icmp)
		err = s2.Recover()
		if !tc.ok {
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Errorf("%s: Recover = %v, want wal.ErrCorrupt", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: Recover = %v", tc.name, err)
		}
		v := s2.Current()
		if v.NumFiles(1) != 1 || v.Levels[1][0].Num != 10 {
			t.Errorf("%s: recovered %d L1 files", tc.name, v.NumFiles(1))
		}
		v.Unref()
		s2.Close()
	}
}

// TestSetRejectsOverlappingLevel: levels >= 1 hold disjoint files, always.
// An edit that would break that is refused before it reaches the MANIFEST,
// and a MANIFEST that already describes such a tree (an overlap-tolerant
// policy of an older release wrote them) fails recovery instead of serving
// reads whose binary search assumes disjoint files.
func TestSetRejectsOverlappingLevel(t *testing.T) {
	s, fs := newTestSet(t)
	e := &Edit{}
	e.AddFile(1, fm(10, "a", "m", 100))
	if err := s.LogAndApply(e); err != nil {
		t.Fatal(err)
	}
	bad := &Edit{}
	bad.AddFile(1, fm(11, "f", "z", 100))
	if err := s.LogAndApply(bad); err == nil {
		t.Fatal("LogAndApply accepted an edit that overlaps two L1 files")
	}
	v := s.Current()
	if v.NumFiles(1) != 1 {
		t.Errorf("rejected edit was installed: %d L1 files", v.NumFiles(1))
	}
	v.Unref()
	s.Close()

	// Hand-write the MANIFEST the rejected edit would have produced.
	snap := &Edit{ComparerName: icmp.User.Name()}
	snap.SetNextFileNum(20)
	snap.AddFile(1, fm(10, "a", "m", 100))
	snap.AddFile(1, fm(11, "f", "z", 100))
	mf, err := fs.Create(ManifestFileName("/db", 19))
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.NewWriter(mf).AddRecord(snap.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}
	cur, err := fs.Create(CurrentFileName("/db"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Write([]byte("MANIFEST-000019\n")); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := NewSet(fs, "/db", icmp).Recover(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("Recover of a MANIFEST with overlapping L1 files = %v, want the overlap error", err)
	}
}

func TestSetRejectsComparerMismatch(t *testing.T) {
	fs := vfs.Mem()
	s := NewSet(fs, "/db", icmp)
	if err := s.Create(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	type weird struct{ keys.BytewiseComparer }
	other := keys.InternalComparer{User: weirdComparer{}}
	s2 := NewSet(fs, "/db", other)
	if err := s2.Recover(); err == nil {
		t.Error("comparer mismatch accepted")
	}
	_ = weird{}
}

type weirdComparer struct{ keys.BytewiseComparer }

func (weirdComparer) Name() string { return "other.Comparator" }

func TestObsoleteFileTracking(t *testing.T) {
	s, _ := newTestSet(t)
	defer s.Close()
	e := &Edit{}
	e.AddFile(1, fm(10, "a", "m", 100))
	if err := s.LogAndApply(e); err != nil {
		t.Fatal(err)
	}
	// Hold the version containing file 10 (like an open iterator).
	held := s.Current()

	e2 := &Edit{}
	e2.DeleteFile(1, 10)
	e2.AddFile(1, fm(11, "a", "m", 100))
	if err := s.LogAndApply(e2); err != nil {
		t.Fatal(err)
	}
	if obs := s.TakeObsolete(); len(obs) != 0 {
		t.Errorf("file 10 marked obsolete while referenced: %v", obs)
	}
	held.Unref()
	obs := s.TakeObsolete()
	if len(obs) != 1 || obs[0] != 10 {
		t.Errorf("obsolete = %v, want [10]", obs)
	}
	if live := s.LiveFileNums(); !live[11] || live[10] {
		t.Errorf("LiveFileNums = %v", live)
	}
}

func TestManifestRotatedOnRecover(t *testing.T) {
	fs := vfs.Mem()
	s := NewSet(fs, "/db", icmp)
	if err := s.Create(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := NewSet(fs, "/db", icmp)
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	names, _ := fs.List("/db")
	manifests := 0
	for _, n := range names {
		if typ, _ := ParseFileName(n); typ == TypeManifest {
			manifests++
		}
	}
	if manifests != 1 {
		t.Errorf("%d manifests on disk after recover, want 1 (old removed)", manifests)
	}
}

// fillShapedVersion is a tree of the shape a fill builds: ten level-1 files,
// and 150 level-2 files, each with a slice of its own frozen file.
func fillShapedVersion(t testing.TB) *Version {
	base := &Edit{}
	for i := 0; i < 10; i++ {
		base.AddFile(1, fm(uint64(1+i), editKey(150*i), editKey(150*i+149), 100))
	}
	for i := 0; i < 150; i++ {
		lo, hi := editKey(10*i), editKey(10*i+9)
		base.AddFile(2, fm(uint64(100+i), lo, hi, 100))
		base.FreezeFile(&FrozenMeta{Num: uint64(1000 + i), Size: 100, Smallest: ik(lo, 2), Largest: ik(hi, 1)})
		base.AddSlice(2, uint64(100+i), Slice{FrozenNum: uint64(1000 + i),
			Range: keys.KeyRange{Lo: []byte(lo), Hi: []byte(hi)}, LinkSeq: uint64(1 + i), Bytes: 50})
	}
	return buildVersion(t, base)
}

// twoSliceVersion is fillShapedVersion with 75 frozen files instead, each
// linked onto two neighbouring level-2 files, so that a merge can take one
// slice of a frozen file and leave the other.
func twoSliceVersion(t testing.TB) *Version {
	base := &Edit{}
	for i := 0; i < 10; i++ {
		base.AddFile(1, fm(uint64(1+i), editKey(150*i), editKey(150*i+149), 100))
	}
	for i := 0; i < 150; i++ {
		base.AddFile(2, fm(uint64(100+i), editKey(10*i), editKey(10*i+9), 100))
	}
	for j := 0; j < 75; j++ {
		num := uint64(1000 + j)
		base.FreezeFile(&FrozenMeta{Num: num, Size: 100, Smallest: ik(editKey(20*j), 2), Largest: ik(editKey(20*j+19), 1)})
		for k := 0; k < 2; k++ {
			i := 2*j + k
			base.AddSlice(2, uint64(100+i), Slice{FrozenNum: num,
				Range: keys.KeyRange{Lo: []byte(editKey(10 * i)), Hi: []byte(editKey(10*i + 9))}, LinkSeq: uint64(1 + j), Bytes: 50})
		}
	}
	return buildVersion(t, base)
}

func editKey(i int) string { return fmt.Sprintf("k%05d", i) }

// editAllocs reports what applying e to base allocates with a reused builder,
// as the Set applies every edit, and the version it builds.
func editAllocs(t *testing.T, base *Version, e *Edit) (float64, *Version) {
	t.Helper()
	b := newBuilder(icmp)
	var out *Version
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		b.reset(base)
		b.apply(e)
		out, err = b.finish()
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs, out
}

// TestLinkEditAllocs bounds what applying one link edit costs on a
// fill-shaped tree: it freezes a level-1 file and links it onto ten level-2
// files. The new version shares levels 0 and 3-6 with the base; it pays for
// the two lists it changes, the ten replaced metas and their slice lists,
// level 2's windows, and one copy of the frozen map, since the frozen set
// grew. Building every list and map afresh cost 51 allocations, and the
// separate invariant check 9 more; this costs 30 with the check, and the bar
// sits just above it.
func TestLinkEditAllocs(t *testing.T) {
	allocs, out := editAllocs(t, fillShapedVersion(t), linkEdit())
	if len(out.Frozen) != 151 || out.NumFiles(1) != 9 || out.SliceCount(2) != 160 {
		t.Fatalf("link edit gave %d frozen, %d L1 files, %d L2 slices", len(out.Frozen), out.NumFiles(1), out.SliceCount(2))
	}
	t.Logf("one link edit on a 150-frozen-file version: %.0f allocs", allocs)
	if allocs > 34 {
		t.Errorf("one link edit allocates %.0f times, want <= 34", allocs)
	}
}

// linkEdit freezes fillShapedVersion's first level-1 file and links it onto
// the ten level-2 files under it.
func linkEdit() *Edit {
	link := &Edit{}
	link.DeleteFile(1, 1)
	link.FreezeFile(&FrozenMeta{Num: 1, Size: 100, Smallest: ik(editKey(0), 2), Largest: ik(editKey(149), 1)})
	for i := 0; i < 10; i++ {
		link.AddSlice(2, uint64(100+i), Slice{FrozenNum: 1,
			Range: keys.KeyRange{Lo: []byte(editKey(10 * i)), Hi: []byte(editKey(10*i + 9))}, LinkSeq: uint64(200 + i), Bytes: 10})
	}
	return link
}

// TestFlushEditAllocs: a flush adds one level-0 table and touches nothing
// else, so the new version shares every other level's lists and the frozen
// map, and pays for the version and its level-0 list (a fresh build paid 15,
// and the separate invariant check 9).
func TestFlushEditAllocs(t *testing.T) {
	v := fillShapedVersion(t)
	flush := &Edit{}
	flush.AddFile(0, fm(5000, editKey(0), editKey(1499), 100))
	allocs, out := editAllocs(t, v, flush)
	if out.NumFiles(0) != 1 || &out.Levels[2][0] != &v.Levels[2][0] || len(out.Frozen) != 150 {
		t.Fatalf("flush edit gave %d L0 files, level 2 shared %v", out.NumFiles(0), &out.Levels[2][0] == &v.Levels[2][0])
	}
	t.Logf("one flush edit on a 150-frozen-file version: %.0f allocs", allocs)
	if allocs > 2 {
		t.Errorf("one flush edit allocates %.0f times, want <= 2", allocs)
	}
}

// TestMergeEditAllocs: a merge replaces a level-2 file and its slices with
// one new file. While the frozen file keeps a slice on the neighbour, the
// frozen map is shared; when the merge takes the last slice, the frozen set
// shrinks and the map is copied once (a fresh build paid 17 and 18, and the
// separate invariant check 9).
func TestMergeEditAllocs(t *testing.T) {
	allocs, out := editAllocs(t, twoSliceVersion(t), mergeEdit())
	if out.SliceCount(2) != 149 || len(out.Frozen) != 75 || out.DuplicatedFrozenBytes() != 50 {
		t.Fatalf("merge edit gave %d L2 slices, %d frozen, %d duplicated bytes", out.SliceCount(2), len(out.Frozen), out.DuplicatedFrozenBytes())
	}
	t.Logf("one merge edit, frozen set unchanged: %.0f allocs", allocs)
	if allocs > 6 {
		t.Errorf("one merge edit allocates %.0f times, want <= 6", allocs)
	}

	last := &Edit{}
	last.DeleteFile(2, 101)
	last.AddFile(2, fm(5001, editKey(10), editKey(19), 100))
	allocs, out = editAllocs(t, out, last)
	if len(out.Frozen) != 74 || out.DuplicatedFrozenBytes() != 0 {
		t.Fatalf("merge of the last slice gave %d frozen, %d duplicated bytes", len(out.Frozen), out.DuplicatedFrozenBytes())
	}
	t.Logf("one merge edit dropping a frozen file: %.0f allocs", allocs)
	if allocs > 12 {
		t.Errorf("one merge edit dropping a frozen file allocates %.0f times, want <= 12", allocs)
	}
}

// mergeEdit rewrites twoSliceVersion's first level-2 file, whose frozen file
// keeps its slice on the neighbour.
func mergeEdit() *Edit {
	merge := &Edit{}
	merge.DeleteFile(2, 100)
	merge.AddFile(2, fm(5000, editKey(0), editKey(9), 100))
	return merge
}

// BenchmarkEditApply is the cost of the version a link or a merge makes, as
// the Set applies it with its reused builder: the edits and trees of
// TestLinkEditAllocs and TestMergeEditAllocs's first merge.
func BenchmarkEditApply(b *testing.B) {
	for _, tc := range []struct {
		name string
		base *Version
		edit *Edit
	}{
		{"link", fillShapedVersion(b), linkEdit()},
		{"merge", twoSliceVersion(b), mergeEdit()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			bld := newBuilder(icmp)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bld.reset(tc.base)
				bld.apply(tc.edit)
				if _, err := bld.finish(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
