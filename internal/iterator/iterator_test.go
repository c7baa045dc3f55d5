package iterator

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

var icmp = keys.InternalComparer{User: keys.BytewiseComparer{}}

func ik(u string, seq keys.Seq) []byte {
	return keys.MakeInternalKey(nil, []byte(u), seq, keys.KindSet)
}

func pairs(kvs ...string) []KV {
	// kvs alternate key,value; keys get seq=1.
	var out []KV
	for i := 0; i < len(kvs); i += 2 {
		out = append(out, KV{K: ik(kvs[i], 1), V: []byte(kvs[i+1])})
	}
	return out
}

func collect(t *testing.T, it Iterator) []string {
	t.Helper()
	var out []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		out = append(out, string(keys.InternalKey(it.Key()).UserKey())+"="+string(it.Value()))
	}
	if err := it.Error(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	return out
}

func TestSliceIterBasics(t *testing.T) {
	it := NewSlice(icmp.Compare, pairs("a", "1", "c", "3", "e", "5"))
	got := collect(t, it)
	want := []string{"a=1", "c=3", "e=5"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
	it.SeekGE(ik("b", keys.MaxSeq))
	if !it.Valid() || string(keys.InternalKey(it.Key()).UserKey()) != "c" {
		t.Errorf("SeekGE(b) landed on %q", it.Key())
	}
}

func TestEmptyIterator(t *testing.T) {
	it := Empty(nil)
	it.SeekToFirst()
	if it.Valid() {
		t.Error("empty iterator is valid")
	}
	if err := it.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestMergingInterleaves(t *testing.T) {
	a := NewSlice(icmp.Compare, pairs("a", "1", "d", "4", "g", "7"))
	b := NewSlice(icmp.Compare, pairs("b", "2", "e", "5"))
	c := NewSlice(icmp.Compare, pairs("c", "3", "f", "6"))
	m := NewMerging(icmp.Compare, a, b, c)
	got := collect(t, m)
	want := []string{"a=1", "b=2", "c=3", "d=4", "e=5", "f=6", "g=7"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestMergingVersionOrder(t *testing.T) {
	// Same user key in two children with different sequences: newer first.
	newSrc := NewSlice(icmp.Compare, []KV{{K: ik("k", 9), V: []byte("new")}})
	oldSrc := NewSlice(icmp.Compare, []KV{{K: ik("k", 3), V: []byte("old")}})
	m := NewMerging(icmp.Compare, oldSrc, newSrc) // child order should not matter
	m.SeekToFirst()
	if string(m.Value()) != "new" {
		t.Errorf("first version = %q, want new", m.Value())
	}
	m.Next()
	if string(m.Value()) != "old" {
		t.Errorf("second version = %q, want old", m.Value())
	}
	m.Next()
	if m.Valid() {
		t.Error("expected exhaustion")
	}
}

func TestMergingSeekGE(t *testing.T) {
	a := NewSlice(icmp.Compare, pairs("a", "1", "e", "5"))
	b := NewSlice(icmp.Compare, pairs("c", "3", "g", "7"))
	m := NewMerging(icmp.Compare, a, b)
	m.SeekGE(ik("d", keys.MaxSeq))
	if !m.Valid() || string(keys.InternalKey(m.Key()).UserKey()) != "e" {
		t.Fatalf("SeekGE(d) landed on %q", m.Key())
	}
	m.SeekGE(ik("z", keys.MaxSeq))
	if m.Valid() {
		t.Error("SeekGE(z) should exhaust")
	}
}

// TestMergingReseekAfterWalk: once a walk has run every child dry, a seek
// back to an earlier key (and SeekToFirst) puts every child back in the heap,
// the duplicate user key "c" included, newest version first.
func TestMergingReseekAfterWalk(t *testing.T) {
	a := NewSlice(icmp.Compare, pairs("a", "1", "e", "5"))
	b := NewSlice(icmp.Compare, []KV{{K: ik("b", 1), V: []byte("2")}, {K: ik("c", 9), V: []byte("3new")}})
	c := NewSlice(icmp.Compare, pairs("c", "3old", "d", "4", "f", "6"))
	m := NewMerging(icmp.Compare, a, b, c)
	all := []string{"a=1", "b=2", "c=3new", "c=3old", "d=4", "e=5", "f=6"}
	rest := func(op string, from int) {
		t.Helper()
		var got []string
		for ; m.Valid(); m.Next() {
			got = append(got, string(keys.InternalKey(m.Key()).UserKey())+"="+string(m.Value()))
		}
		if err := m.Error(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(all[from:]) {
			t.Errorf("%s: walk got %v want %v", op, got, all[from:])
		}
	}
	m.SeekToFirst()
	rest("SeekToFirst", 0)
	m.SeekGE(ik("c", keys.MaxSeq))
	rest("SeekGE(c) after the end", 2)
	m.SeekGE(ik("c", 5)) // between the two versions of c
	rest("SeekGE(c@5)", 3)
	m.SeekToFirst()
	m.Next()
	m.Next()
	m.Next() // on c@1, with b's child exhausted
	m.SeekGE(ik("b", keys.MaxSeq))
	rest("SeekGE(b) mid-walk", 1)
	m.SeekToFirst()
	rest("SeekToFirst after the end", 0)
}

// lazyChild is a test Lazy: a sorted run that stands in the merge on lo, a
// lower bound of its entries, until the merge opens it. Like a slice window
// it is entered at once by a seek whose target reaches lo, and otherwise
// waits on the bound. At Open it checks that the bound is on top of the
// merge's heap: no sibling is on a smaller key, nor on an equal key ahead of
// it in child order.
type lazyChild struct {
	Iterator
	lo       []byte
	pending  bool
	siblings []Iterator // the merge's children, this one among them
	self     int
	early    bool // Open came while the bound was not on top
}

func (l *lazyChild) SeekGE(target []byte) {
	l.pending = icmp.Compare(l.lo, target) > 0
	if !l.pending {
		l.Iterator.SeekGE(target)
	}
}

func (l *lazyChild) SeekToFirst() { l.pending = true }

func (l *lazyChild) Valid() bool { return l.pending || l.Iterator.Valid() }

func (l *lazyChild) Key() []byte {
	if l.pending {
		return l.lo
	}
	return l.Iterator.Key()
}

func (l *lazyChild) Value() []byte {
	if l.pending {
		return nil
	}
	return l.Iterator.Value()
}

func (l *lazyChild) Next() {
	if !l.pending {
		l.Iterator.Next()
	}
}

func (l *lazyChild) Pending() bool { return l.pending }

func (l *lazyChild) Open() {
	for j, c := range l.siblings {
		if j == l.self || !c.Valid() {
			continue
		}
		if r := icmp.Compare(c.Key(), l.lo); r < 0 || (r == 0 && j < l.self) {
			l.early = true
		}
	}
	l.pending = false
	l.Iterator.SeekToFirst()
}

// TestMergingQuickAgainstSorted fuzzes the merging iterator, plain and lazy
// children mixed, against a flat sort of the same data: a whole walk, then a
// random program of SeekGE, SeekToFirst and Next, each step checked against
// the reference position. A lazy child is opened only once its bound reaches
// the top of the heap.
func TestMergingQuickAgainstSorted(t *testing.T) {
	f := func(seed int64, nSrc uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nSrc%5) + 1
		var all []KV
		var children []Iterator
		var lazies []*lazyChild
		seq := keys.Seq(1)
		for i := 0; i < n; i++ {
			var p []KV
			lowest := 50
			for j := 0; j < rng.Intn(20); j++ {
				u := rng.Intn(50)
				lowest = min(lowest, u)
				p = append(p, KV{K: ik(fmt.Sprintf("%03d", u), seq), V: []byte{byte(i)}})
				seq++
			}
			sort.Slice(p, func(x, y int) bool { return icmp.Compare(p[x].K, p[y].K) < 0 })
			all = append(all, p...)
			var c Iterator = NewSlice(icmp.Compare, p)
			// A lazy child needs a merge: alone it would show its bound.
			if n > 1 && len(p) > 0 && rng.Intn(2) == 0 {
				lo := keys.MakeSearchKey(nil, []byte(fmt.Sprintf("%03d", max(0, lowest-rng.Intn(5)))), keys.MaxSeq)
				l := &lazyChild{Iterator: c, lo: lo, self: i}
				lazies = append(lazies, l)
				c = l
			}
			children = append(children, c)
		}
		for _, l := range lazies {
			l.siblings = children
		}
		sort.Slice(all, func(x, y int) bool { return icmp.Compare(all[x].K, all[y].K) < 0 })
		m := NewMerging(icmp.Compare, children...)
		defer m.Close()
		i := 0
		for m.SeekToFirst(); m.Valid(); m.Next() {
			if i >= len(all) || !bytes.Equal(m.Key(), all[i].K) || !bytes.Equal(m.Value(), all[i].V) {
				return false
			}
			i++
		}
		if i != len(all) {
			return false
		}
		pos := len(all)
		for step := 0; step < 60; step++ {
			switch r := rng.Intn(10); {
			case r == 0:
				m.SeekToFirst()
				pos = 0
			case r < 4:
				target := ik(fmt.Sprintf("%03d", rng.Intn(55)), keys.Seq(rng.Intn(int(seq)+1)))
				m.SeekGE(target)
				pos = sort.Search(len(all), func(x int) bool { return icmp.Compare(all[x].K, target) >= 0 })
			default:
				m.Next()
				pos = min(pos+1, len(all))
			}
			if m.Valid() != (pos < len(all)) || m.Error() != nil {
				return false
			}
			if pos < len(all) && (!bytes.Equal(m.Key(), all[pos].K) || !bytes.Equal(m.Value(), all[pos].V)) {
				return false
			}
		}
		for _, l := range lazies {
			if l.early {
				t.Errorf("seed %d: a lazy child was opened before its bound reached the top", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClampedBasics(t *testing.T) {
	src := NewSlice(icmp.Compare, pairs("a", "1", "b", "2", "c", "3", "d", "4", "e", "5"))
	cl := NewClamped(keys.BytewiseComparer{}, src, keys.KeyRange{Lo: []byte("b"), Hi: []byte("d")})
	got := collect(t, cl)
	want := []string{"b=2", "c=3", "d=4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestClampedSeekBelowAndAbove(t *testing.T) {
	src := NewSlice(icmp.Compare, pairs("a", "1", "b", "2", "c", "3", "d", "4"))
	cl := NewClamped(keys.BytewiseComparer{}, src, keys.KeyRange{Lo: []byte("b"), Hi: []byte("c")})
	cl.SeekGE(ik("a", keys.MaxSeq))
	if !cl.Valid() || string(keys.InternalKey(cl.Key()).UserKey()) != "b" {
		t.Errorf("SeekGE below window landed on %q", cl.Key())
	}
	cl.SeekGE(ik("d", keys.MaxSeq))
	if cl.Valid() {
		t.Error("SeekGE above window should be invalid")
	}
}

// TestClampedReseekAfterEnd: a walk that leaves the window ends it, Next
// there stays ended, and a later seek or SeekToFirst re-enters the window
// wherever the child was left.
func TestClampedReseekAfterEnd(t *testing.T) {
	src := NewSlice(icmp.Compare, pairs("a", "1", "b", "2", "c", "3", "d", "4", "e", "5"))
	cl := NewClamped(keys.BytewiseComparer{}, src, keys.KeyRange{Lo: []byte("b"), Hi: []byte("d")})
	at := func(op, want string) {
		t.Helper()
		if want == "" {
			if cl.Valid() {
				t.Errorf("%s: valid on %q, want the end", op, cl.Key())
			}
			return
		}
		if !cl.Valid() || string(keys.InternalKey(cl.Key()).UserKey())+"="+string(cl.Value()) != want {
			t.Errorf("%s: valid=%v on %q, want %s", op, cl.Valid(), cl.Key(), want)
		}
	}
	cl.SeekGE(ik("d", keys.MaxSeq))
	at("SeekGE(d)", "d=4")
	cl.Next()
	at("Next past Hi", "")
	cl.Next()
	at("Next at the end", "")
	cl.SeekGE(ik("c", keys.MaxSeq))
	at("SeekGE(c) after the end", "c=3")
	cl.SeekGE(ik("e", keys.MaxSeq))
	at("SeekGE(e) above the window", "")
	cl.SeekGE(ik("a", keys.MaxSeq))
	at("SeekGE(a) below the window", "b=2")
	cl.SeekGE(ik("d", keys.MaxSeq))
	cl.Next()
	cl.SeekToFirst()
	at("SeekToFirst after the end", "b=2")
	cl.Next()
	at("Next from Lo", "c=3")
}

func TestClampedInsideMerging(t *testing.T) {
	// A slice view of a "frozen file" merged with a base file, as LDC reads do.
	frozen := NewSlice(icmp.Compare, []KV{
		{K: ik("b", 10), V: []byte("newB")},
		{K: ik("x", 10), V: []byte("outside")},
	})
	slice := NewClamped(keys.BytewiseComparer{}, frozen, keys.KeyRange{Lo: []byte("a"), Hi: []byte("c")})
	base := NewSlice(icmp.Compare, []KV{
		{K: ik("a", 1), V: []byte("a1")},
		{K: ik("b", 1), V: []byte("oldB")},
		{K: ik("c", 1), V: []byte("c1")},
	})
	m := NewMerging(icmp.Compare, slice, base)
	var got []string
	for m.SeekToFirst(); m.Valid(); m.Next() {
		got = append(got, string(keys.InternalKey(m.Key()).UserKey())+"="+string(m.Value()))
	}
	want := []string{"a=a1", "b=newB", "b=oldB", "c=c1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}
