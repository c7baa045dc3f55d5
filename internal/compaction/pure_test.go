package compaction

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/keys"
	"repro/internal/version"
)

// describe renders everything of a version the picker reads, in order: per
// level every file with its bounds and slices, and the derived Sliced lists.
func describe(v *version.Version) string {
	var b bytes.Buffer
	for level := range v.Levels {
		for _, f := range v.Levels[level] {
			fmt.Fprintf(&b, "L%d %d %d %q %q", level, f.Num, f.Size, f.Smallest, f.Largest)
			for _, s := range f.Slices {
				fmt.Fprintf(&b, " [%d %q %q %d %d]", s.FrozenNum, s.Range.Lo, s.Range.Hi, s.LinkSeq, s.Bytes)
			}
			b.WriteByte('\n')
		}
		for _, f := range v.Sliced[level] {
			fmt.Fprintf(&b, "S%d %d\n", level, f.Num)
		}
	}
	return b.String()
}

func cursors(pk *Picker) [version.NumLevels]keys.InternalKey {
	var out [version.NumLevels]keys.InternalKey
	for level := range out {
		out[level] = pk.Pointer(level).Clone()
	}
	return out
}

// TestPickIsAFunctionOfTheVersion pins the picker's contract with the store's
// one compaction worker: a pick depends on the version, the cursors and T_s
// and on nothing the picker remembers. Asking twice gives the same answer,
// asking changes neither the version nor the cursors, and a second picker
// built from the same parameters and cursors agrees with the first.
func TestPickIsAFunctionOfTheVersion(t *testing.T) {
	fixtures := map[string]func(e *version.Edit){
		"empty":         func(*version.Edit) {},
		"l0-closure":    l0ClosureEdit,
		"two-full-l1":   twoFullL1Edit,
		"linkable":      linkableEdit,
		"one-sliced":    oneSlicedEdit,
		"all-sliced":    allSlicedEdit,
		"frozen-heavy":  frozenHeavyEdit,
		"ripe-urgent":   ldcRipeMergeEdit(8, 20000),
		"ripe-drained":  ldcRipeMergeEdit(8, 1000),
		"ripe-below-l0": ldcRipeMergeEdit(5, 20000),
	}
	params := testParams()
	params.SliceThreshold = 2
	for name, edit := range fixtures {
		for _, policy := range []Policy{UDC, LDC} {
			for _, cursor := range []string{"", "c", "z"} {
				t.Run(fmt.Sprintf("%s/%v/cursor=%q", name, policy, cursor), func(t *testing.T) {
					v := buildV(t, edit)
					pk, twin := NewPicker(policy, params, icmp), NewPicker(policy, params, icmp)
					if cursor != "" {
						for level := 0; level < version.NumLevels; level++ {
							pk.SetPointer(level, ik(cursor, 1))
							twin.SetPointer(level, ik(cursor, 1))
						}
					}
					shape, ptrs := describe(v), cursors(pk)

					first := pk.Pick(v)
					if again := pk.Pick(v); !reflect.DeepEqual(first, again) {
						t.Errorf("second Pick = %+v, first was %+v", again, first)
					}
					if other := twin.Pick(v); !reflect.DeepEqual(first, other) {
						t.Errorf("a picker with the same params and cursors picks %+v, want %+v", other, first)
					}
					if got := describe(v); got != shape {
						t.Errorf("Pick changed the version:\n%s\nwas\n%s", got, shape)
					}
					if got := cursors(pk); !reflect.DeepEqual(got, ptrs) {
						t.Errorf("Pick moved a cursor: %q, was %q", got, ptrs)
					}
				})
			}
		}
	}
}
