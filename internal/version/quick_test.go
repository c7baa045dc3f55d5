package version

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

// TestQuickBuilderNeverCorrupts applies random sequences of well-formed
// edits (adds into free ranges, deletes, freeze+link, merge-style
// replace) and asserts the builder always yields a version satisfying
// the builder's checks, with Sliced/Frozen derived consistently.
func TestQuickBuilderNeverCorrupts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NewVersion(icmp)
		nextNum := uint64(1)
		nextLink := uint64(1)

		// Track per-level occupied slots: level -> slot -> fileNum.
		// Keys are derived from slot indexes so ranges never overlap.
		const slots = 26
		occupied := map[int]map[int]uint64{1: {}, 2: {}}
		lo := func(slot int) string { return fmt.Sprintf("%c0", 'a'+slot) }
		hi := func(slot int) string { return fmt.Sprintf("%c9", 'a'+slot) }

		for step := 0; step < 30; step++ {
			e := &Edit{}
			switch rng.Intn(3) {
			case 0: // add a file into a free slot
				level := 1 + rng.Intn(2)
				slot := rng.Intn(slots)
				if _, used := occupied[level][slot]; used {
					continue
				}
				e.AddFile(level, fm(nextNum, lo(slot), hi(slot), 100))
				occupied[level][slot] = nextNum
				nextNum++
			case 1: // delete a file (and its slices with it)
				level := 1 + rng.Intn(2)
				for slot, num := range occupied[level] {
					e.DeleteFile(level, num)
					delete(occupied[level], slot)
					break
				}
				if len(e.DeletedFiles) == 0 {
					continue
				}
			case 2: // freeze an L1 file and link it onto an L2 file
				var l1slot, l2slot int
				var l1num, l2num uint64
				found := false
				for s1, n1 := range occupied[1] {
					for s2, n2 := range occupied[2] {
						l1slot, l1num, l2slot, l2num = s1, n1, s2, n2
						found = true
						break
					}
					if found {
						break
					}
				}
				if !found {
					continue
				}
				_ = l2slot
				e.DeleteFile(1, l1num)
				e.FreezeFile(&FrozenMeta{Num: l1num, Size: 100,
					Smallest: ik(lo(l1slot), 2), Largest: ik(hi(l1slot), 1)})
				e.AddSlice(2, l2num, Slice{
					FrozenNum: l1num,
					Range:     keys.KeyRange{Lo: []byte(lo(l1slot)), Hi: []byte(hi(l1slot))},
					LinkSeq:   nextLink,
					Bytes:     100,
				})
				nextLink++
				delete(occupied[1], l1slot)
			}
			nv, err := applyEdit(v, e)
			if err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
			// Sliced must exactly list files with slices.
			for level := 1; level < NumLevels; level++ {
				n := 0
				for _, f := range nv.Levels[level] {
					if len(f.Slices) > 0 {
						n++
					}
				}
				if n != len(nv.Sliced[level]) {
					return false
				}
			}
			v = nv
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickEditRoundTrip fuzzes edit encode/decode.
func TestQuickEditRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := &Edit{}
		if rng.Intn(2) == 0 {
			e.ComparerName = "ldc.BytewiseComparator"
		}
		if rng.Intn(2) == 0 {
			e.SetLogNum(rng.Uint64() % 1000)
		}
		if rng.Intn(2) == 0 {
			e.SetLastSeq(keys.Seq(rng.Uint64() % (1 << 50)))
		}
		for i := 0; i < rng.Intn(5); i++ {
			fm := &FileMeta{
				Num:      rng.Uint64() % 10000,
				Size:     rng.Int63() % (1 << 30),
				Smallest: ik(fmt.Sprintf("k%03d", rng.Intn(500)), keys.Seq(rng.Intn(100))),
				Largest:  ik(fmt.Sprintf("z%03d", rng.Intn(500)), keys.Seq(rng.Intn(100))),
			}
			for j := 0; j < rng.Intn(3); j++ {
				fm.Slices = append(fm.Slices, Slice{
					FrozenNum: rng.Uint64() % 100,
					Range:     keys.KeyRange{Lo: []byte{byte(rng.Intn(128))}, Hi: []byte{200}},
					LinkSeq:   rng.Uint64() % 100,
					Bytes:     rng.Int63() % (1 << 20),
				})
			}
			e.AddFile(rng.Intn(NumLevels), fm)
		}
		for i := 0; i < rng.Intn(4); i++ {
			e.DeleteFile(rng.Intn(NumLevels), rng.Uint64()%10000)
		}
		d, err := DecodeEdit(e.Encode())
		if err != nil {
			return false
		}
		// Re-encoding the decoded edit must be byte-identical.
		return string(d.Encode()) == string(e.Encode())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEffectiveOverlapsFindsWindowOnlyFiles covers the LDC read-path case
// where a key lies in a slice window but outside every file's own range.
func TestEffectiveOverlapsFindsWindowOnlyFiles(t *testing.T) {
	e := &Edit{}
	f := fm(1, "m", "p", 100)
	e.AddFile(2, f)
	e.FreezeFile(&FrozenMeta{Num: 9, Size: 50, Smallest: ik("a", 5), Largest: ik("p", 4)})
	e.AddSlice(2, 1, Slice{FrozenNum: 9,
		Range: keys.KeyRange{Lo: []byte("a"), Hi: []byte("p")}, LinkSeq: 1, Bytes: 50})
	v, err := BuildForTest(icmp, e)
	if err != nil {
		t.Fatal(err)
	}
	// Key "c" is outside file 1's own range (m..p) but inside its window.
	point := keys.KeyRange{Lo: []byte("c"), Hi: []byte("c")}
	if got := v.Overlaps(2, point); len(got) != 0 {
		t.Errorf("own-range Overlaps found %d files, want 0", len(got))
	}
	got := v.EffectiveOverlaps(2, point)
	if len(got) != 1 || got[0].Num != 1 {
		t.Fatalf("EffectiveOverlaps = %v, want file 1", got)
	}
	er := EffectiveRange(keys.BytewiseComparer{}, got[0])
	if string(er.Lo) != "a" || string(er.Hi) != "p" {
		t.Errorf("EffectiveRange = [%s,%s]", er.Lo, er.Hi)
	}
}
