package keys

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestInternalKeyRoundTrip(t *testing.T) {
	ik := MakeInternalKey(nil, []byte("user-key"), 42, KindSet)
	if !ik.Valid() {
		t.Fatal("key not valid")
	}
	if string(ik.UserKey()) != "user-key" {
		t.Errorf("UserKey = %q", ik.UserKey())
	}
	if ik.Seq() != 42 {
		t.Errorf("Seq = %d", ik.Seq())
	}
	if ik.Kind() != KindSet {
		t.Errorf("Kind = %d", ik.Kind())
	}
}

func TestInternalKeyMaxSeq(t *testing.T) {
	ik := MakeInternalKey(nil, []byte("k"), MaxSeq, KindDelete)
	if ik.Seq() != MaxSeq || ik.Kind() != KindDelete {
		t.Errorf("got seq=%d kind=%d", ik.Seq(), ik.Kind())
	}
}

func TestInternalKeyValidRejects(t *testing.T) {
	if InternalKey(nil).Valid() {
		t.Error("nil key reported valid")
	}
	if InternalKey([]byte("short")).Valid() {
		t.Error("short key reported valid")
	}
	bad := MakeInternalKey(nil, []byte("k"), 1, KindSet)
	bad[len(bad)-8] = 0x7f // bogus kind
	if bad.Valid() {
		t.Error("bogus kind reported valid")
	}
}

func TestInternalComparerOrdering(t *testing.T) {
	cmp := InternalComparer{User: BytewiseComparer{}}
	// Build keys in the order they must sort.
	want := []InternalKey{
		MakeInternalKey(nil, []byte("a"), 9, KindSet),
		MakeInternalKey(nil, []byte("a"), 5, KindSet),
		MakeInternalKey(nil, []byte("a"), 5, KindDelete),
		MakeInternalKey(nil, []byte("a"), 1, KindDelete),
		MakeInternalKey(nil, []byte("b"), 100, KindSet),
		MakeInternalKey(nil, []byte("b"), 2, KindDelete),
		MakeInternalKey(nil, []byte("c"), 1, KindSet),
	}
	got := make([]InternalKey, len(want))
	copy(got, want)
	// Shuffle deterministically, then sort with the comparer.
	for i := range got {
		j := (i * 3) % len(got)
		got[i], got[j] = got[j], got[i]
	}
	sort.Slice(got, func(i, j int) bool { return cmp.Compare(got[i], got[j]) < 0 })
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("position %d: got %s want %s", i, got[i], want[i])
		}
	}
}

func TestSearchKeySortsBeforeVersions(t *testing.T) {
	cmp := InternalComparer{User: BytewiseComparer{}}
	sk := MakeSearchKey(nil, []byte("k"), 50)
	// Versions visible at snapshot 50 must sort at or after the search key.
	visible := MakeInternalKey(nil, []byte("k"), 50, KindSet)
	older := MakeInternalKey(nil, []byte("k"), 10, KindSet)
	newer := MakeInternalKey(nil, []byte("k"), 51, KindSet)
	if cmp.Compare(sk, visible) > 0 {
		t.Error("search key sorts after equal-seq version")
	}
	if cmp.Compare(sk, older) > 0 {
		t.Error("search key sorts after older version")
	}
	if cmp.Compare(sk, newer) <= 0 {
		t.Error("search key does not sort after newer version")
	}
}

func TestComparerQuickConsistency(t *testing.T) {
	cmp := InternalComparer{User: BytewiseComparer{}}
	f := func(ua, ub []byte, sa, sb uint32) bool {
		a := MakeInternalKey(nil, ua, Seq(sa), KindSet)
		b := MakeInternalKey(nil, ub, Seq(sb), KindSet)
		r := cmp.Compare(a, b)
		// Antisymmetry.
		if cmp.Compare(b, a) != -r {
			return false
		}
		// Agreement with user ordering on distinct user keys.
		if u := bytes.Compare(ua, ub); u != 0 {
			return r == u
		}
		// Same user key: newer sequence sorts first.
		switch {
		case sa > sb:
			return r < 0
		case sa < sb:
			return r > 0
		}
		return r == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseInternalKey(t *testing.T) {
	ik := MakeInternalKey(nil, []byte("pk"), 7, KindDelete)
	u, s, k, ok := ParseInternalKey(ik)
	if !ok || string(u) != "pk" || s != 7 || k != KindDelete {
		t.Errorf("ParseInternalKey = %q %d %d %v", u, s, k, ok)
	}
	if _, _, _, ok := ParseInternalKey([]byte("x")); ok {
		t.Error("ParseInternalKey accepted malformed key")
	}
}

func rangeOf(lo, hi string) KeyRange {
	return KeyRange{Lo: []byte(lo), Hi: []byte(hi)}
}

func TestKeyRangeContains(t *testing.T) {
	cmp := BytewiseComparer{}
	r := rangeOf("b", "d")
	for _, tc := range []struct {
		k    string
		want bool
	}{{"a", false}, {"b", true}, {"c", true}, {"d", true}, {"e", false}} {
		if got := r.Contains(cmp, []byte(tc.k)); got != tc.want {
			t.Errorf("Contains(%q) = %v", tc.k, got)
		}
	}
}

func TestKeyRangeOverlapsAndIntersect(t *testing.T) {
	cmp := BytewiseComparer{}
	cases := []struct {
		a, b    KeyRange
		overlap bool
		lo, hi  string
	}{
		{rangeOf("a", "c"), rangeOf("b", "d"), true, "b", "c"},
		{rangeOf("a", "c"), rangeOf("c", "d"), true, "c", "c"},
		{rangeOf("a", "b"), rangeOf("c", "d"), false, "", ""},
		{rangeOf("a", "z"), rangeOf("m", "n"), true, "m", "n"},
	}
	for i, tc := range cases {
		if got := tc.a.Overlaps(cmp, tc.b); got != tc.overlap {
			t.Errorf("case %d: Overlaps = %v want %v", i, got, tc.overlap)
		}
		got, ok := tc.a.Intersect(cmp, tc.b)
		if ok != tc.overlap {
			t.Errorf("case %d: Intersect ok = %v", i, ok)
		}
		if ok && (string(got.Lo) != tc.lo || string(got.Hi) != tc.hi) {
			t.Errorf("case %d: Intersect = [%q,%q] want [%q,%q]", i, got.Lo, got.Hi, tc.lo, tc.hi)
		}
	}
}

func TestKeyRangeOverlapsSymmetricQuick(t *testing.T) {
	cmp := BytewiseComparer{}
	f := func(alo, ahi, blo, bhi []byte) bool {
		if bytes.Compare(alo, ahi) > 0 {
			alo, ahi = ahi, alo
		}
		if bytes.Compare(blo, bhi) > 0 {
			blo, bhi = bhi, blo
		}
		a := KeyRange{Lo: alo, Hi: ahi}
		b := KeyRange{Lo: blo, Hi: bhi}
		return a.Overlaps(cmp, b) == b.Overlaps(cmp, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkInternalCompare orders internal keys through the bytewise user
// comparer, as every merge step and table search does: pairs that differ in
// the user key, and pairs of one user key that differ in sequence only.
func BenchmarkInternalCompare(b *testing.B) {
	icmp := InternalComparer{User: BytewiseComparer{}}
	const n = 1024
	ks := make([]InternalKey, n)
	for i := range ks {
		ks[i] = MakeInternalKey(nil, []byte(fmt.Sprintf("user-key-%08d", i/2)), Seq(n-i), KindSet)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compareSink += icmp.Compare(ks[i%n], ks[(i+1)%n])
	}
}

// compareSink keeps the benchmark's comparisons from being optimised away.
var compareSink int
