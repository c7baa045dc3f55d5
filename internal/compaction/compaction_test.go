package compaction

import (
	"fmt"
	"testing"

	"repro/internal/keys"
	"repro/internal/version"
)

var icmp = keys.InternalComparer{User: keys.BytewiseComparer{}}

func ik(u string, seq keys.Seq) keys.InternalKey {
	return keys.MakeInternalKey(nil, []byte(u), seq, keys.KindSet)
}

func fm(num uint64, lo, hi string, size int64) *version.FileMeta {
	return &version.FileMeta{Num: num, Size: size, Smallest: ik(lo, 2), Largest: ik(hi, 1)}
}

// buildV assembles a version from per-level file lists via the public edit
// path so Sliced etc. are derived.
func buildV(t testing.TB, edit func(e *version.Edit)) *version.Version {
	t.Helper()
	e := &version.Edit{}
	edit(e)
	v, err := version.BuildForTest(icmp, e)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// isMergeOf reports whether p is the in-place LDC merge of exactly file num
// at level: the target is the only input, nothing else is rewritten, and the
// outputs stay on the target's level.
func isMergeOf(p Pick, level int, num uint64) bool {
	return p.Kind == PickMerge && p.Level == level && p.OutputLevel == level &&
		len(p.Inputs) == 1 && p.Inputs[0].Num == num && len(p.Overlaps) == 0
}

func testParams() Params {
	return Params{Fanout: 10, SSTableSize: 1000, SliceThreshold: 10}
}

// TestLevelTargets pins the level-target rule: UDC keeps the ladder
// Fanout^level × SSTableSize on every level; LDC sizes level 1 to one L0
// compaction's input and keeps the ladder from level 2 down.
func TestLevelTargets(t *testing.T) {
	const b = 1000
	cases := []struct {
		name   string
		fanout int
		ldcL1  int64
	}{
		{"spine shape", 10, 4 * b},
		{"trigger equals fanout", 4, 4 * b},
		{"fanout below trigger", 3, 3 * b},
	}
	for _, tc := range cases {
		params := Params{Fanout: tc.fanout, SSTableSize: b, SliceThreshold: tc.fanout}
		udc, ldc := NewPicker(UDC, params, icmp), NewPicker(LDC, params, icmp)
		ladder := int64(b)
		for level := 1; level <= 4; level++ {
			ladder *= int64(tc.fanout)
			if got := udc.MaxBytesForLevel(level); got != ladder {
				t.Errorf("%s: UDC L%d = %d, want %d", tc.name, level, got, ladder)
			}
			want := ladder
			if level == 1 {
				want = tc.ldcL1
			}
			if got := ldc.MaxBytesForLevel(level); got != want {
				t.Errorf("%s: LDC L%d = %d, want %d", tc.name, level, got, want)
			}
		}
	}
}

func TestScoreL0ByFileCount(t *testing.T) {
	pk := NewPicker(UDC, testParams(), icmp)
	v := buildV(t, func(e *version.Edit) {
		e.AddFile(0, fm(1, "a", "z", 100))
		e.AddFile(0, fm(2, "a", "z", 100))
	})
	if got := pk.Score(v, 0); got != 0.5 {
		t.Errorf("L0 score = %v", got)
	}
}

func TestScoreDeepLevelByBytes(t *testing.T) {
	pk := NewPicker(UDC, testParams(), icmp)
	v := buildV(t, func(e *version.Edit) {
		e.AddFile(1, fm(1, "a", "c", 5000))
		e.AddFile(1, fm(2, "d", "f", 15000))
	})
	if got := pk.Score(v, 1); got != 2.0 { // 20000 / (10*1000)
		t.Errorf("L1 score = %v", got)
	}
}

// TestScoreCountsSliceBytesUnderLDC: an LDC level is held against its target
// with the slice bytes it will absorb; UDC has no slices to count.
func TestScoreCountsSliceBytesUnderLDC(t *testing.T) {
	v := buildV(t, func(e *version.Edit) {
		e.AddFile(2, fm(2, "a", "m", 99000))
		e.FreezeFile(&version.FrozenMeta{Num: 90, Size: 3500, Smallest: ik("a", 9), Largest: ik("m", 8)})
		e.AddSlice(2, 2, version.Slice{FrozenNum: 90, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("m")}, LinkSeq: 1, Bytes: 3500})
	})
	if got := NewPicker(UDC, testParams(), icmp).Score(v, 2); got != 0.99 { // 99000 / 100000
		t.Errorf("UDC L2 score = %v, want 0.99", got)
	}
	if got := NewPicker(LDC, testParams(), icmp).Score(v, 2); got != 1.025 { // (99000+3500) / 100000
		t.Errorf("LDC L2 score = %v, want 1.025", got)
	}
}

func TestPickNoneWhenBalanced(t *testing.T) {
	pk := NewPicker(UDC, testParams(), icmp)
	v := buildV(t, func(e *version.Edit) {
		e.AddFile(1, fm(1, "a", "c", 1000))
	})
	if got := pk.Pick(v); got.Kind != PickNone {
		t.Errorf("Pick = %v", got.Kind)
	}
}

// l0ClosureEdit is a chained L0 at its trigger over one L1 table.
func l0ClosureEdit(e *version.Edit) {
	// Four mutually chained L0 files.
	e.AddFile(0, fm(1, "a", "f", 100))
	e.AddFile(0, fm(2, "e", "k", 100))
	e.AddFile(0, fm(3, "j", "p", 100))
	e.AddFile(0, fm(4, "x", "z", 100)) // disjoint from the chain
	e.AddFile(1, fm(5, "c", "m", 100))
}

func TestUDCPicksL0WithClosure(t *testing.T) {
	pk := NewPicker(UDC, testParams(), icmp)
	v := buildV(t, l0ClosureEdit)
	got := pk.Pick(v)
	if got.Kind != PickCompact || got.Level != 0 || got.OutputLevel != 1 {
		t.Fatalf("Pick = %v level %d -> %d", got.Kind, got.Level, got.OutputLevel)
	}
	if len(got.Inputs) != 3 {
		t.Errorf("L0 closure picked %d files, want 3 (chain)", len(got.Inputs))
	}
	if len(got.Overlaps) != 1 || got.Overlaps[0].Num != 5 {
		t.Errorf("overlaps = %v", got.Overlaps)
	}
}

func TestUDCTrivialMove(t *testing.T) {
	pk := NewPicker(UDC, testParams(), icmp)
	v := buildV(t, func(e *version.Edit) {
		e.AddFile(1, fm(1, "a", "c", 20000)) // over target
		e.AddFile(2, fm(2, "m", "z", 100))   // no overlap with (a,c)
	})
	got := pk.Pick(v)
	if got.Kind != PickTrivialMove || got.Inputs[0].Num != 1 || got.Level != 1 || got.OutputLevel != 2 {
		t.Errorf("Pick = %v inputs=%v level %d -> %d", got.Kind, got.Inputs, got.Level, got.OutputLevel)
	}
}

func TestUDCCompactWithOverlaps(t *testing.T) {
	pk := NewPicker(UDC, testParams(), icmp)
	v := buildV(t, func(e *version.Edit) {
		e.AddFile(1, fm(1, "a", "m", 20000))
		e.AddFile(2, fm(2, "a", "f", 100))
		e.AddFile(2, fm(3, "g", "p", 100))
		e.AddFile(2, fm(4, "q", "z", 100))
	})
	got := pk.Pick(v)
	if got.Kind != PickCompact || got.Level != 1 {
		t.Fatalf("Pick = %v", got.Kind)
	}
	if len(got.Overlaps) != 2 {
		t.Errorf("overlaps = %d files, want 2", len(got.Overlaps))
	}
}

// twoFullL1Edit is a level 1 of two tables, each over the level target.
func twoFullL1Edit(e *version.Edit) {
	e.AddFile(1, fm(1, "a", "c", 20000))
	e.AddFile(1, fm(2, "d", "f", 20000))
}

func TestRoundRobinPointerAdvances(t *testing.T) {
	pk := NewPicker(UDC, testParams(), icmp)
	v := buildV(t, twoFullL1Edit)
	first := pk.Pick(v)
	if first.Inputs[0].Num != 1 {
		t.Fatalf("first pick = file %d", first.Inputs[0].Num)
	}
	// Simulate the store recording the pointer after compacting file 1.
	pk.SetPointer(1, first.Inputs[0].Largest)
	second := pk.Pick(v)
	if second.Inputs[0].Num != 2 {
		t.Errorf("second pick = file %d, want 2", second.Inputs[0].Num)
	}
	// Pointer past the last file wraps around.
	pk.SetPointer(1, second.Inputs[0].Largest)
	third := pk.Pick(v)
	if third.Inputs[0].Num != 1 {
		t.Errorf("wrap-around pick = file %d, want 1", third.Inputs[0].Num)
	}
}

// linkableEdit is an over-target L1 table above two L2 tables.
func linkableEdit(e *version.Edit) {
	e.AddFile(1, fm(1, "a", "m", 20000))
	e.AddFile(2, fm(2, "a", "f", 100))
	e.AddFile(2, fm(3, "g", "p", 100))
}

func TestLDCLinksInsteadOfCompacting(t *testing.T) {
	pk := NewPicker(LDC, testParams(), icmp)
	v := buildV(t, linkableEdit)
	got := pk.Pick(v)
	if got.Kind != PickLink || got.Level != 1 || got.OutputLevel != 2 {
		t.Fatalf("Pick = %v level %d -> %d", got.Kind, got.Level, got.OutputLevel)
	}
	if len(got.Overlaps) != 2 {
		t.Errorf("link targets = %d", len(got.Overlaps))
	}
}

func TestLDCMergePriorityAtThreshold(t *testing.T) {
	params := testParams()
	params.SliceThreshold = 2
	pk := NewPicker(LDC, params, icmp)
	v := buildV(t, func(e *version.Edit) {
		e.AddFile(1, fm(1, "a", "m", 20000)) // pressure exists
		f := fm(2, "a", "f", 100)
		e.AddFile(2, f)
		e.FreezeFile(&version.FrozenMeta{Num: 90, Size: 100, Smallest: ik("a", 9), Largest: ik("f", 8)})
		e.FreezeFile(&version.FrozenMeta{Num: 91, Size: 100, Smallest: ik("a", 9), Largest: ik("f", 8)})
		e.AddSlice(2, 2, version.Slice{FrozenNum: 90, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("f")}, LinkSeq: 1, Bytes: 50})
		e.AddSlice(2, 2, version.Slice{FrozenNum: 91, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("f")}, LinkSeq: 2, Bytes: 50})
	})
	got := pk.Pick(v)
	if !isMergeOf(got, 2, 2) {
		t.Fatalf("Pick = %+v, want merge of file 2 in place at L2", got)
	}
}

// oneSlicedEdit is an over-target L1 whose first table already carries a slice.
func oneSlicedEdit(e *version.Edit) {
	// L1 over target with two files; file 1 already carries a slice.
	f1 := fm(1, "a", "c", 15000)
	e.AddFile(1, f1)
	e.AddFile(1, fm(2, "d", "f", 15000))
	e.FreezeFile(&version.FrozenMeta{Num: 90, Size: 10, Smallest: ik("a", 9), Largest: ik("c", 8)})
	e.AddSlice(1, 1, version.Slice{FrozenNum: 90, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("c")}, LinkSeq: 1, Bytes: 10})
	e.AddFile(2, fm(3, "a", "z", 100))
}

func TestLDCSkipsSlicedFilesForLinking(t *testing.T) {
	params := testParams()
	params.SliceThreshold = 5
	pk := NewPicker(LDC, params, icmp)
	v := buildV(t, oneSlicedEdit)
	got := pk.Pick(v)
	if got.Kind != PickLink {
		t.Fatalf("Pick = %v", got.Kind)
	}
	if got.Inputs[0].Num != 2 {
		t.Errorf("picked file %d for linking, want slice-free file 2", got.Inputs[0].Num)
	}
}

// allSlicedEdit is an over-target L1 whose only table carries a slice.
func allSlicedEdit(e *version.Edit) {
	f1 := fm(1, "a", "c", 25000)
	e.AddFile(1, f1)
	e.FreezeFile(&version.FrozenMeta{Num: 90, Size: 10, Smallest: ik("a", 9), Largest: ik("c", 8)})
	e.AddSlice(1, 1, version.Slice{FrozenNum: 90, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("c")}, LinkSeq: 1, Bytes: 10})
	e.AddFile(2, fm(3, "a", "z", 100))
}

func TestLDCMergesWhenAllFilesSliced(t *testing.T) {
	params := testParams()
	params.SliceThreshold = 5
	pk := NewPicker(LDC, params, icmp)
	v := buildV(t, allSlicedEdit)
	got := pk.Pick(v)
	if !isMergeOf(got, 1, 1) {
		t.Errorf("Pick = %+v, want merge of file 1 in place at L1", got)
	}
}

// frozenHeavyEdit is a tiny L2 table under a huge frozen region.
func frozenHeavyEdit(e *version.Edit) {
	f := fm(2, "a", "f", 100)
	e.AddFile(2, f)
	// Huge frozen region vs tiny resident data.
	e.FreezeFile(&version.FrozenMeta{Num: 90, Size: 100000, Smallest: ik("a", 9), Largest: ik("f", 8)})
	e.AddSlice(2, 2, version.Slice{FrozenNum: 90, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("f")}, LinkSeq: 1, Bytes: 100000})
}

func TestLDCFrozenBackpressure(t *testing.T) {
	params := testParams()
	params.SliceThreshold = 100 // never trigger by count
	pk := NewPicker(LDC, params, icmp)
	v := buildV(t, frozenHeavyEdit)
	got := pk.Pick(v)
	if !isMergeOf(got, 2, 2) {
		t.Errorf("Pick = %v, want forced merge under space backpressure", got.Kind)
	}
}

func TestLDCL0StillCompactsConventionally(t *testing.T) {
	pk := NewPicker(LDC, testParams(), icmp)
	v := buildV(t, func(e *version.Edit) {
		for i := 0; i < 4; i++ {
			e.AddFile(0, fm(uint64(i+1), "a", "z", 100))
		}
		e.AddFile(1, fm(9, "c", "m", 100))
	})
	got := pk.Pick(v)
	if got.Kind != PickCompact || got.Level != 0 {
		t.Errorf("Pick = %v level=%d", got.Kind, got.Level)
	}
}

// TestL0TriggerRung walks L0's depth across the ladder for both policies:
// below L0Trigger files L0 scores under one and nothing is picked; from
// L0Trigger on, the pick is the conventional L0 compaction into level 1.
func TestL0TriggerRung(t *testing.T) {
	for _, policy := range []Policy{UDC, LDC} {
		t.Run(policy.String(), func(t *testing.T) {
			pk := NewPicker(policy, testParams(), icmp)
			for _, n := range []int{L0Trigger - 1, L0Trigger, L0SlowdownTrigger, L0StopTrigger} {
				t.Run(fmt.Sprintf("%d_files", n), func(t *testing.T) {
					v := buildV(t, func(e *version.Edit) {
						for i := 0; i < n; i++ {
							e.AddFile(0, fm(uint64(i+1), "a", "z", 100))
						}
						e.AddFile(1, fm(99, "c", "m", 100))
					})
					if got, want := pk.Score(v, 0), float64(n)/L0Trigger; got != want {
						t.Errorf("L0 score = %v, want %v", got, want)
					}
					got := pk.Pick(v)
					if n < L0Trigger {
						if got.Kind != PickNone {
							t.Fatalf("Pick = %v level %d, want none below the trigger", got.Kind, got.Level)
						}
						return
					}
					if got.Kind != PickCompact || got.Level != 0 || got.OutputLevel != 1 || len(got.Inputs) != n {
						t.Fatalf("Pick = %v level %d -> %d with %d inputs, want all %d L0 files into L1",
							got.Kind, got.Level, got.OutputLevel, len(got.Inputs), n)
					}
				})
			}
		})
	}
}

// TestLDCDrainsStagingLevelBeforeL0 drives the picker over a synthetic tree
// (L0 at its trigger, ten slice-free L1 tables over a populated L2), applying
// each link the way the store does. L1 is a staging level: it links its tables
// down while it scores >= 1 (a tie with L0 goes to the deeper level), and the
// L0 compaction that follows rewrites fewer L1 tables than the L1 target.
func TestLDCDrainsStagingLevelBeforeL0(t *testing.T) {
	pk := NewPicker(LDC, testParams(), icmp) // L1 target 4 tables of 1000
	key := func(i int) string { return string(rune('a' + i)) }
	type link struct {
		su     *version.FileMeta
		target uint64 // the one L2 table su overlaps
		slice  version.Slice
	}
	var links []link
	build := func() *version.Version {
		return buildV(t, func(e *version.Edit) {
			for i := 0; i < 4; i++ {
				e.AddFile(0, fm(uint64(100+i), "a", "z", 1000))
			}
			linked := map[uint64]bool{}
			for _, l := range links {
				linked[l.su.Num] = true
				e.FreezeFile(&version.FrozenMeta{Num: l.su.Num, Size: l.su.Size, Smallest: l.su.Smallest, Largest: l.su.Largest})
			}
			for i := 0; i < 10; i++ {
				if num := uint64(10 + i); !linked[num] {
					e.AddFile(1, fm(num, key(2*i), key(2*i+1), 1000))
				}
			}
			for j := 0; j < 5; j++ { // each L2 table spans two L1 tables
				num := uint64(50 + j)
				e.AddFile(2, fm(num, key(4*j), key(4*j+3), 10000))
				for _, l := range links {
					if l.target == num {
						e.AddSlice(2, num, l.slice)
					}
				}
			}
		})
	}

	v := build()
	for pk.Score(v, 1) >= 1 {
		got := pk.Pick(v)
		if got.Kind != PickLink || got.Level != 1 || len(got.Overlaps) != 1 {
			t.Fatalf("pick %d = %v at L%d over %d targets with L1 scoring %.2f and L0 %.2f, want a link",
				len(links), got.Kind, got.Level, len(got.Overlaps), pk.Score(v, 1), pk.Score(v, 0))
		}
		su, target := got.Inputs[0], got.Overlaps[0]
		w := SliceWindows(icmp.User, su, got.Overlaps)[0]
		links = append(links, link{su, target.Num,
			version.Slice{FrozenNum: su.Num, Range: w, LinkSeq: uint64(len(links) + 1), Bytes: su.Size}})
		v = build()
	}
	if len(links) != 7 { // 10 -> 3 tables: the 7th link breaks the 1.0 tie with L0
		t.Errorf("%d links before L1 fell under its target, want 7", len(links))
	}
	got := pk.Pick(v)
	if got.Kind != PickCompact || got.Level != 0 {
		t.Fatalf("Pick = %v at L%d, want the L0 compaction once L1 is drained", got.Kind, got.Level)
	}
	if target := pk.MaxBytesForLevel(1) / 1000; int64(len(got.Overlaps)) >= target {
		t.Errorf("L0 compaction rewrites %d L1 tables, want fewer than the %d-table target", len(got.Overlaps), target)
	}
}

// TestLDCTrivialMove pins LDC's move rule: a pressured file with nothing
// below it moves down by metadata, neither linked (there is no lower file to
// take a slice) nor compacted, from level 0 as from a deeper level.
func TestLDCTrivialMove(t *testing.T) {
	for _, tc := range []struct {
		name  string
		level int
		edit  func(e *version.Edit)
	}{
		{"L1", 1, func(e *version.Edit) {
			e.AddFile(1, fm(1, "a", "c", 20000)) // over L1's staging target
			e.AddFile(2, fm(2, "m", "z", 100))   // no overlap with (a,c)
		}},
		{"L2", 2, func(e *version.Edit) {
			e.AddFile(2, fm(1, "a", "c", 200000)) // over L2's target
			e.AddFile(3, fm(2, "m", "z", 100))
		}},
		{"L0", 0, func(e *version.Edit) {
			// L0 at its trigger, the files disjoint so the closure is one
			// file, and level 1 empty.
			for i, lo := range []string{"a", "d", "g", "j"} {
				e.AddFile(0, fm(uint64(i+1), lo, lo+"z", 100))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pk := NewPicker(LDC, testParams(), icmp)
			got := pk.Pick(buildV(t, tc.edit))
			if got.Kind != PickTrivialMove || got.Level != tc.level || got.OutputLevel != tc.level+1 ||
				len(got.Inputs) != 1 || len(got.Overlaps) != 0 {
				t.Errorf("Pick = %v inputs=%d overlaps=%d level %d -> %d, want a trivial move L%d -> L%d",
					got.Kind, len(got.Inputs), len(got.Overlaps), got.Level, got.OutputLevel, tc.level, tc.level+1)
			}
		})
	}
}

func TestSliceWindowsPartitionContiguously(t *testing.T) {
	su := fm(9, "c", "x", 1000)
	overlaps := []*version.FileMeta{
		fm(1, "a", "f", 100),
		fm(2, "h", "m", 100),
		fm(3, "p", "r", 100),
	}
	ucmp := keys.BytewiseComparer{}
	ws := SliceWindows(ucmp, su, overlaps)
	if len(ws) != 3 {
		t.Fatalf("%d windows", len(ws))
	}
	// First window starts at su.Smallest; last ends at su.Largest (beyond
	// the last overlap's own largest).
	if string(ws[0].Lo) != "c" || string(ws[0].Hi) != "f" {
		t.Errorf("w0 = [%q,%q]", ws[0].Lo, ws[0].Hi)
	}
	if string(ws[1].Lo) != "f\x00" || string(ws[1].Hi) != "m" {
		t.Errorf("w1 = [%q,%q]", ws[1].Lo, ws[1].Hi)
	}
	if string(ws[2].Lo) != "m\x00" || string(ws[2].Hi) != "x" {
		t.Errorf("w2 = [%q,%q]", ws[2].Lo, ws[2].Hi)
	}
	// Contiguity: every key of su falls in exactly one window.
	for _, k := range []string{"c", "e", "f", "g", "m", "n", "q", "x"} {
		n := 0
		for _, w := range ws {
			if w.Contains(ucmp, []byte(k)) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("key %q covered by %d windows", k, n)
		}
	}
}

func TestSliceWindowsSingleOverlap(t *testing.T) {
	su := fm(9, "c", "x", 1000)
	overlaps := []*version.FileMeta{fm(1, "a", "d", 100)}
	ws := SliceWindows(keys.BytewiseComparer{}, su, overlaps)
	if len(ws) != 1 || string(ws[0].Lo) != "c" || string(ws[0].Hi) != "x" {
		t.Errorf("windows = %+v", ws)
	}
}

func TestSliceWindowsUseEffectiveBounds(t *testing.T) {
	su := fm(9, "c", "x", 1000)
	// Overlap 1 has an existing window reaching to "k" although its own
	// largest is "f": the new boundary must respect the window.
	f1 := fm(1, "a", "f", 100)
	f1.Slices = []version.Slice{{FrozenNum: 50, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("k")}, LinkSeq: 1}}
	f2 := fm(2, "m", "q", 100)
	ws := SliceWindows(keys.BytewiseComparer{}, su, []*version.FileMeta{f1, f2})
	if string(ws[0].Hi) != "k" {
		t.Errorf("w0.Hi = %q, want existing window bound k", ws[0].Hi)
	}
	if string(ws[1].Lo) != "k\x00" {
		t.Errorf("w1.Lo = %q", ws[1].Lo)
	}
}

// ldcRipeMergeEdit populates a version with a ripe L2 merge target (two
// slices against SliceThreshold 2, as in TestLDCMergePriorityAtThreshold),
// one L1 table of l1Bytes (target 4000) and n chained L0 files.
func ldcRipeMergeEdit(n int, l1Bytes int64) func(e *version.Edit) {
	return func(e *version.Edit) {
		for i := 0; i < n; i++ {
			e.AddFile(0, fm(uint64(100+i), "a", "z", 100))
		}
		e.AddFile(1, fm(1, "a", "m", l1Bytes))
		f := fm(2, "a", "f", 100)
		e.AddFile(2, f)
		e.FreezeFile(&version.FrozenMeta{Num: 90, Size: 100, Smallest: ik("a", 9), Largest: ik("f", 8)})
		e.FreezeFile(&version.FrozenMeta{Num: 91, Size: 100, Smallest: ik("a", 9), Largest: ik("f", 8)})
		e.AddSlice(2, 2, version.Slice{FrozenNum: 90, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("f")}, LinkSeq: 1, Bytes: 50})
		e.AddSlice(2, 2, version.Slice{FrozenNum: 91, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("f")}, LinkSeq: 2, Bytes: 50})
	}
}

// Once L0 is deep enough that writers are throttled, the ripe merge waits for
// the L0 compaction — and the L0 compaction waits only for level 1's pending
// links, which are free and shrink what it rewrites.
func TestLDCL0UrgencyPreemptsRipeMerge(t *testing.T) {
	params := testParams()
	params.SliceThreshold = 2
	pk := NewPicker(LDC, params, icmp)
	got := pk.Pick(buildV(t, ldcRipeMergeEdit(8, 20000))) // L1 over its target
	if got.Kind != PickLink || got.Level != 1 {
		t.Fatalf("Pick = %v level %d, want L1's pending link ahead of the urgent L0 compaction", got.Kind, got.Level)
	}
	got = pk.Pick(buildV(t, ldcRipeMergeEdit(8, 1000))) // L1 drained
	if got.Kind != PickCompact || got.Level != 0 {
		t.Fatalf("Pick = %v level %d, want L0 compaction once writers are throttled", got.Kind, got.Level)
	}
}

func TestLDCRipeMergeStillWinsBelowSlowdown(t *testing.T) {
	params := testParams()
	params.SliceThreshold = 2
	pk := NewPicker(LDC, params, icmp)
	v := buildV(t, ldcRipeMergeEdit(5, 20000)) // past L0Trigger, below slowdown
	got := pk.Pick(v)
	if !isMergeOf(got, 2, 2) {
		t.Fatalf("Pick = %v, want the ripe merge while L0 is below the slowdown trigger", got.Kind)
	}
}

// TestLDCL0UrgencyStartsAtSlowdownTrigger pins the rung where LDC's L0
// urgency begins: one file short of L0SlowdownTrigger a ripe merge still goes
// first, and from the trigger on the L0 compaction does.
func TestLDCL0UrgencyStartsAtSlowdownTrigger(t *testing.T) {
	params := testParams()
	params.SliceThreshold = 2
	pk := NewPicker(LDC, params, icmp)
	cases := []struct {
		name   string
		l0     int
		urgent bool
	}{
		{"at compaction trigger", L0Trigger, false},
		{"one below slowdown", L0SlowdownTrigger - 1, false},
		{"at slowdown", L0SlowdownTrigger, true},
		{"at stop", L0StopTrigger, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := pk.Pick(buildV(t, ldcRipeMergeEdit(tc.l0, 1000))) // L1 drained
			if tc.urgent {
				if got.Kind != PickCompact || got.Level != 0 {
					t.Fatalf("Pick = %v level %d, want the L0 compaction at %d L0 files", got.Kind, got.Level, tc.l0)
				}
			} else if !isMergeOf(got, 2, 2) {
				t.Fatalf("Pick = %v level %d, want the ripe merge at %d L0 files", got.Kind, got.Level, tc.l0)
			}
		})
	}
}

// TestLDCFrozenFractionBoundary forces a merge only once duplicated frozen
// bytes exceed FrozenFraction of all table bytes. One level-2 table of 10000
// bytes carries a single 10-byte slice of a larger frozen table, so neither
// the slice count nor the slice bytes ripen it; with 10000 resident bytes
// the bound dup > 0.25 × (10000 + dup) falls between 3333 and 3334.
func TestLDCFrozenFractionBoundary(t *testing.T) {
	params := testParams()
	params.SliceThreshold = 100 // never trigger by count
	pk := NewPicker(LDC, params, icmp)
	cases := []struct {
		name  string
		dup   int64
		merge bool
	}{
		{"within the bound", 3333, false},
		{"over the bound", 3334, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := buildV(t, func(e *version.Edit) {
				e.AddFile(2, fm(2, "a", "f", 10000))
				e.FreezeFile(&version.FrozenMeta{Num: 90, Size: tc.dup + 10, Smallest: ik("a", 9), Largest: ik("f", 8)})
				e.AddSlice(2, 2, version.Slice{FrozenNum: 90, Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("f")}, LinkSeq: 1, Bytes: 10})
			})
			if got := v.DuplicatedFrozenBytes(); got != tc.dup {
				t.Fatalf("duplicated frozen bytes = %d, want %d", got, tc.dup)
			}
			got := pk.Pick(v)
			if tc.merge && !isMergeOf(got, 2, 2) {
				t.Fatalf("Pick = %v, want a forced merge over FrozenFraction", got.Kind)
			}
			if !tc.merge && got.Kind != PickNone {
				t.Fatalf("Pick = %v level %d, want none within FrozenFraction", got.Kind, got.Level)
			}
		})
	}
}

// slicedTreeEdit is a four-level tree over keys k00000..k11999 that carries
// 300 slices: two L0 tables, twelve L1 tables (over target under both
// policies), 100 L2 tables with three slices each, and 1 000 L3 tables.
func slicedTreeEdit(e *version.Edit) {
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	for i := 0; i < 2; i++ {
		e.AddFile(0, fm(uint64(1+i), key(0), key(11999), 1000))
	}
	for i := 0; i < 12; i++ {
		e.AddFile(1, fm(uint64(10+i), key(1000*i), key(1000*i+999), 1000))
	}
	for i := 0; i < 100; i++ {
		e.AddFile(2, fm(uint64(100+i), key(120*i), key(120*i+119), 1000))
	}
	for i := 0; i < 1000; i++ {
		e.AddFile(3, fm(uint64(1000+i), key(12*i), key(12*i+11), 1000))
	}
	for f := 0; f < 300; f++ {
		num, lo, hi := uint64(5000+f), key(120*(f%100)), key(120*(f%100)+119)
		e.FreezeFile(&version.FrozenMeta{Num: num, Size: 1000, Smallest: ik(lo, 9), Largest: ik(hi, 8)})
		e.AddSlice(2, uint64(100+f%100), version.Slice{FrozenNum: num,
			Range: keys.KeyRange{Lo: []byte(lo), Hi: []byte(hi)}, LinkSeq: uint64(1 + f), Bytes: 100})
	}
}

// BenchmarkPick is one Pick on the sliced tree, under each policy: UDC
// compacts an L1 table into L2, LDC links one.
func BenchmarkPick(b *testing.B) {
	v := buildV(b, slicedTreeEdit)
	for _, policy := range []Policy{UDC, LDC} {
		b.Run(policy.String(), func(b *testing.B) {
			pk := NewPicker(policy, testParams(), icmp)
			if p := pk.Pick(v); p.Kind == PickNone {
				b.Fatalf("%v picks nothing on the sliced tree", policy)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pk.Pick(v)
			}
		})
	}
}
