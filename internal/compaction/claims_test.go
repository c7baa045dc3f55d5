package compaction

import (
	"testing"

	"repro/internal/keys"
	"repro/internal/version"
)

func rangeOf(lo, hi string) keys.KeyRange {
	return keys.KeyRange{Lo: []byte(lo), Hi: []byte(hi)}
}

// pickFrom builds a version with two fat, disjoint L1 files over L2
// overlaps, so the picker has two independent compactions available.
func twoJobVersion(t *testing.T) *version.Version {
	return buildV(t, func(e *version.Edit) {
		e.AddFile(1, fm(1, "a", "c", 20000))
		e.AddFile(1, fm(2, "m", "p", 20000))
		e.AddFile(2, fm(3, "a", "b", 100))
		e.AddFile(2, fm(4, "n", "o", 100))
	})
}

func TestAcquireReleaseLifecycle(t *testing.T) {
	pk := NewPicker(UDC, testParams(), icmp)
	v := twoJobVersion(t)

	p1 := pk.Pick(v)
	if p1.Kind == PickNone {
		t.Fatal("no work picked")
	}
	c1, err := pk.Acquire(p1)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if pk.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", pk.InFlight())
	}
	pk.Release(c1)
	if pk.InFlight() != 0 {
		t.Fatalf("InFlight after Release = %d, want 0", pk.InFlight())
	}
}

func TestPickAvoidsClaimedWork(t *testing.T) {
	pk := NewPicker(UDC, testParams(), icmp)
	v := twoJobVersion(t)

	p1 := pk.Pick(v)
	c1, err := pk.Acquire(p1)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	p2 := pk.Pick(v)
	if p2.Kind == PickNone {
		t.Fatal("second disjoint job not picked while first in flight")
	}
	if p2.Inputs[0].Num == p1.Inputs[0].Num {
		t.Fatalf("picker handed out claimed file %d twice", p1.Inputs[0].Num)
	}
	c2, err := pk.Acquire(p2)
	if err != nil {
		t.Fatalf("Acquire second job: %v", err)
	}
	// Both jobs claimed: nothing admissible remains.
	if p3 := pk.Pick(v); p3.Kind != PickNone {
		t.Fatalf("third pick = %v, want None", p3.Kind)
	}
	pk.Release(c1)
	pk.Release(c2)
	// Released claims make the original work pickable again.
	if p4 := pk.Pick(v); p4.Kind == PickNone || p4.Inputs[0].Num != p1.Inputs[0].Num {
		t.Fatalf("pick after release = %+v, want original job", p4)
	}
}

func TestAcquireRejectsConflict(t *testing.T) {
	pk := NewPicker(UDC, testParams(), icmp)
	v := twoJobVersion(t)

	p1 := pk.Pick(v)
	if _, err := pk.Acquire(p1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// Acquiring the identical pick again must fail: shared input file.
	if _, err := pk.Acquire(p1); err == nil {
		t.Fatal("Acquire of conflicting pick succeeded")
	}
}

func TestSpanConflictSameLevel(t *testing.T) {
	pk := NewPicker(UDC, testParams(), icmp)
	// Two L1 files whose *output* ranges overlap through a shared L2 file:
	// both compactions write into L2 within c..n, so they must serialize.
	v := buildV(t, func(e *version.Edit) {
		e.AddFile(1, fm(1, "a", "f", 20000))
		e.AddFile(1, fm(2, "k", "p", 20000))
		e.AddFile(2, fm(3, "c", "n", 100)) // overlaps both
	})
	p1 := pk.Pick(v)
	if p1.Kind == PickNone {
		t.Fatal("no work picked")
	}
	if _, err := pk.Acquire(p1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// The second file's compaction shares file 3 and the L2 output range;
	// the picker must not hand it out.
	if p2 := pk.Pick(v); p2.Kind != PickNone {
		t.Fatalf("picked conflicting job %v inputs=%v", p2.Kind, p2.Inputs)
	}
}

func TestSingleL0JobAtATime(t *testing.T) {
	pk := NewPicker(UDC, testParams(), icmp)
	v := buildV(t, func(e *version.Edit) {
		// Eight L0 files: score 2.0, above L1's 1.5, so L0 goes first.
		for i := uint64(1); i <= 8; i++ {
			e.AddFile(0, fm(i, "a", "f", 100))
		}
		// L1 over capacity in a key range disjoint from L0.
		e.AddFile(1, fm(15, "t", "v", 15000))
		e.AddFile(2, fm(16, "u", "v", 100))
	})
	p1 := pk.Pick(v)
	if p1.Level != 0 {
		t.Fatalf("first pick at level %d, want L0 (higher score)", p1.Level)
	}
	if _, err := pk.Acquire(p1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// L1→L2 work in a disjoint range is still admissible alongside L0 work…
	p2 := pk.Pick(v)
	if p2.Kind == PickNone || p2.Level != 1 {
		t.Fatalf("second pick = %v level %d, want L1 job", p2.Kind, p2.Level)
	}
	c2, err := pk.Acquire(p2)
	if err != nil {
		t.Fatalf("Acquire L1 job: %v", err)
	}
	pk.Release(c2)
	// …but a second L0 job never is, even if its files differ: the claim's
	// l0 flag is exclusive because flushes keep adding overlapping files.
	extra := buildV(t, func(e *version.Edit) {
		e.AddFile(0, fm(7, "w", "z", 100))
		e.AddFile(0, fm(8, "w", "z", 100))
		e.AddFile(0, fm(9, "w", "z", 100))
		e.AddFile(0, fm(10, "w", "z", 100))
	})
	if p3 := pk.Pick(extra); p3.Kind != PickNone && p3.Level == 0 {
		t.Fatalf("second concurrent L0 job picked: %v", p3.Kind)
	}
}

func TestConcurrentMergesDisjointTargets(t *testing.T) {
	pk := NewPicker(LDC, Params{Fanout: 10, SSTableSize: 1000, L0Trigger: 4, SliceThreshold: 2}, icmp)
	// Two L2 files, each carrying enough slices from a shared frozen file to
	// be merge-ripe. The frozen input is shared read-only — the claims must
	// not conflict on it.
	v := buildV(t, func(e *version.Edit) {
		fz := fm(9, "a", "z", 1000)
		e.FreezeFile(&version.FrozenMeta{Num: 9, Size: 1000, Smallest: fz.Smallest, Largest: fz.Largest})
		e.AddFile(2, fm(1, "a", "c", 100))
		e.AddFile(2, fm(2, "m", "p", 100))
		for i := 0; i < 3; i++ {
			e.AddSlice(2, 1, version.Slice{FrozenNum: 9, Range: rangeOf("a", "c"), LinkSeq: uint64(i + 1), Bytes: 10})
			e.AddSlice(2, 2, version.Slice{FrozenNum: 9, Range: rangeOf("m", "p"), LinkSeq: uint64(i + 4), Bytes: 10})
		}
	})
	p1 := pk.Pick(v)
	if p1.Kind != PickMerge {
		t.Fatalf("first pick = %v, want Merge", p1.Kind)
	}
	if _, err := pk.Acquire(p1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	p2 := pk.Pick(v)
	if p2.Kind != PickMerge {
		t.Fatalf("second pick = %v, want concurrent Merge on the other target", p2.Kind)
	}
	if p2.Inputs[0].Num == p1.Inputs[0].Num {
		t.Fatalf("same merge target %d handed out twice", p1.Inputs[0].Num)
	}
	if _, err := pk.Acquire(p2); err != nil {
		t.Fatalf("Acquire second merge (shared frozen input): %v", err)
	}
}

// TestClaimShapes pins what each kind of job holds. A merge holds only its
// target and the target's effective range on the target's level; every other
// kind holds all its files and their combined effective range on both levels
// it edits.
func TestClaimShapes(t *testing.T) {
	pk := NewPicker(LDC, testParams(), icmp)
	target := fm(2, "d", "f", 100)
	target.Slices = []version.Slice{{FrozenNum: 90, Range: rangeOf("b", "h"), LinkSeq: 1}}
	merge := pk.claimFor(mergePick(2, target, 1))
	if files := merge.Files(); len(files) != 1 || files[0] != 2 {
		t.Errorf("merge claim files = %v, want only the target (frozen inputs are shared)", merge.Files())
	}
	if len(merge.spans) != 1 || merge.spans[0].level != 2 ||
		string(merge.spans[0].r.Lo) != "b" || string(merge.spans[0].r.Hi) != "h" || merge.l0 {
		t.Errorf("merge claim spans = %+v l0=%v, want the effective range b..h at L2 only", merge.spans, merge.l0)
	}

	link := pk.claimFor(Pick{Kind: PickLink, Level: 1, OutputLevel: 2,
		Inputs: []*version.FileMeta{fm(1, "c", "e", 100)}, Overlaps: []*version.FileMeta{target}})
	if len(link.files) != 2 || len(link.spans) != 2 || link.spans[0].level != 1 || link.spans[1].level != 2 {
		t.Fatalf("link claim = %d files, spans %+v; want both files on both levels", len(link.files), link.spans)
	}
	for _, s := range link.spans {
		if string(s.r.Lo) != "b" || string(s.r.Hi) != "h" {
			t.Errorf("link span at L%d = [%q,%q], want the combined effective range b..h", s.level, s.r.Lo, s.r.Hi)
		}
	}
	if !merge.conflictsWith(icmp.User, link) {
		t.Error("a link onto a file does not conflict with that file's merge")
	}

	l0 := pk.claimFor(pk.compactOrMove(0, []*version.FileMeta{fm(7, "a", "z", 100)}, nil, 1))
	if !l0.l0 || len(l0.spans) != 2 || l0.kind != PickTrivialMove {
		t.Errorf("L0 move claim = %v l0=%v spans %+v", l0, l0.l0, l0.spans)
	}
}
