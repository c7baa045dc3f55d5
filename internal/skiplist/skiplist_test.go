package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func newList() *List { return New(bytes.Compare) }

func TestEmpty(t *testing.T) {
	l := newList()
	if l.Len() != 0 || l.Bytes() != 0 {
		t.Errorf("empty list: Len=%d Bytes=%d", l.Len(), l.Bytes())
	}
	if l.Contains([]byte("x")) {
		t.Error("empty list Contains returned true")
	}
	it := l.NewIterator()
	it.SeekToFirst()
	if it.Valid() {
		t.Error("iterator valid on empty list")
	}
	it.SeekGE([]byte("a"))
	if it.Valid() {
		t.Error("SeekGE valid on empty list")
	}
}

func TestInsertAndContains(t *testing.T) {
	l := newList()
	keys := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for _, k := range keys {
		l.Insert([]byte(k))
	}
	if l.Len() != len(keys) {
		t.Errorf("Len = %d", l.Len())
	}
	for _, k := range keys {
		if !l.Contains([]byte(k)) {
			t.Errorf("missing %q", k)
		}
	}
	if l.Contains([]byte("zulu")) {
		t.Error("Contains returned true for absent key")
	}
}

func TestOrderedIteration(t *testing.T) {
	l := newList()
	var want []string
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(1000000))
		if l.Contains([]byte(k)) {
			continue
		}
		l.Insert([]byte(k))
		want = append(want, k)
	}
	sort.Strings(want)

	it := l.NewIterator()
	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestSeekGE(t *testing.T) {
	l := newList()
	for _, k := range []string{"b", "d", "f"} {
		l.Insert([]byte(k))
	}
	cases := []struct{ seek, want string }{
		{"a", "b"}, {"b", "b"}, {"c", "d"}, {"d", "d"}, {"e", "f"}, {"f", "f"},
	}
	it := l.NewIterator()
	for _, tc := range cases {
		it.SeekGE([]byte(tc.seek))
		if !it.Valid() || string(it.Key()) != tc.want {
			t.Errorf("SeekGE(%q): got %q", tc.seek, it.Key())
		}
	}
	it.SeekGE([]byte("g"))
	if it.Valid() {
		t.Error("SeekGE past end is valid")
	}
}

// TestReseekAfterWalk: after a walk to the end, seeks back to earlier keys
// and SeekToFirst position the iterator afresh, and the walk from each yields
// every later key in order.
func TestReseekAfterWalk(t *testing.T) {
	l := newList()
	const n = 100
	for i := n - 1; i >= 0; i-- {
		l.Insert([]byte(fmt.Sprintf("k%03d", i)))
	}
	it := l.NewIterator()
	walk := func(op string, from int) {
		t.Helper()
		i := from
		for ; it.Valid(); it.Next() {
			if want := fmt.Sprintf("k%03d", i); string(it.Key()) != want {
				t.Fatalf("%s: got %q want %q", op, it.Key(), want)
			}
			i++
		}
		if i != n {
			t.Fatalf("%s: walk stopped at %d", op, i)
		}
	}
	it.SeekToFirst()
	walk("SeekToFirst", 0)
	for _, from := range []int{90, 40, 41, 0, 99} {
		it.SeekGE([]byte(fmt.Sprintf("k%03d", from)))
		walk(fmt.Sprintf("SeekGE(k%03d)", from), from)
		it.SeekGE([]byte(fmt.Sprintf("k%03d~", from-1))) // between two keys
		walk(fmt.Sprintf("SeekGE(k%03d~)", from-1), from)
	}
	it.SeekToFirst()
	walk("SeekToFirst after the end", 0)
}

func TestBytesAccounting(t *testing.T) {
	l := newList()
	l.Insert([]byte("abc"))
	l.Insert([]byte("defgh"))
	if l.Bytes() != 8 {
		t.Errorf("Bytes = %d, want 8", l.Bytes())
	}
}

// TestConcurrentReadsDuringWrites exercises the single-writer /
// many-readers contract under the race detector.
func TestConcurrentReadsDuringWrites(t *testing.T) {
	l := newList()
	const n = 2000
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				it := l.NewIterator()
				prev := []byte(nil)
				for it.SeekToFirst(); it.Valid(); it.Next() {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						t.Error("out-of-order keys observed by reader")
						return
					}
					prev = append(prev[:0], it.Key()...)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		l.Insert([]byte(fmt.Sprintf("key-%08d", i*7919%n)))
	}
	close(done)
	wg.Wait()
	if l.Len() != n {
		t.Errorf("Len = %d want %d", l.Len(), n)
	}
}

func BenchmarkInsert(b *testing.B) {
	l := newList()
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%012d", i*2654435761))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(keys[i])
	}
}

func BenchmarkSeekGE(b *testing.B) {
	l := newList()
	for i := 0; i < 100000; i++ {
		l.Insert([]byte(fmt.Sprintf("key-%012d", i)))
	}
	it := l.NewIterator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.SeekGE([]byte(fmt.Sprintf("key-%012d", i%100000)))
	}
}

// TestTowerAtSlabBoundary: a tower is carved whole from one slab. Whatever is
// left of the current slab — nothing, less than the tower, exactly the tower
// — a node of full height gets maxHeight links of its own, capped so that it
// cannot reach a neighbour's.
func TestTowerAtSlabBoundary(t *testing.T) {
	l := newList()
	l.Insert([]byte("a")) // starts both slabs
	for _, left := range []int{0, 1, maxHeight - 1, maxHeight, maxHeight + 1} {
		l.towers = l.towers[:left]
		old := l.towers
		n := l.newNode([]byte("k"), maxHeight)
		if len(n.next) != maxHeight || cap(n.next) != maxHeight {
			t.Fatalf("%d links left: tower has len %d cap %d, want %d", left, len(n.next), cap(n.next), maxHeight)
		}
		if left < maxHeight {
			if len(l.towers) != towerSlab-maxHeight {
				t.Fatalf("%d links left: %d links after the node, want a fresh slab less one tower", left, len(l.towers))
			}
		} else if &n.next[0] != &old[0] || len(l.towers) != left-maxHeight {
			t.Fatalf("%d links left: the tower did not come from the current slab", left)
		}
	}
}

// TestSlabsKeepNodesApart inserts across many slab changes and checks that no
// two nodes share a link cell and that the list is still one sorted chain of
// every key at level 0.
func TestSlabsKeepNodesApart(t *testing.T) {
	l := newList()
	const n = 20 * nodeSlab
	for i := 0; i < n; i++ {
		l.Insert([]byte(fmt.Sprintf("key-%08d", i*7919%n)))
	}
	cells := map[*atomic.Pointer[node]]bool{}
	count := 0
	var prev []byte
	for x := l.head.next[0].Load(); x != nil; x = x.next[0].Load() {
		if prev != nil && bytes.Compare(prev, x.key) >= 0 {
			t.Fatalf("%q follows %q", x.key, prev)
		}
		prev = x.key
		count++
		if len(x.next) != cap(x.next) {
			t.Fatalf("node %q: tower len %d cap %d", x.key, len(x.next), cap(x.next))
		}
		for i := range x.next {
			if cells[&x.next[i]] {
				t.Fatalf("node %q shares link cell %d with another node", x.key, i)
			}
			cells[&x.next[i]] = true
		}
	}
	if count != n || l.Len() != n {
		t.Fatalf("walked %d nodes, Len %d, want %d", count, l.Len(), n)
	}
}

// TestIteratorHeldAcrossSlabChange: nodes never move, so an iterator parked
// on one keeps its key and its place while the writer fills slab after slab.
func TestIteratorHeldAcrossSlabChange(t *testing.T) {
	l := newList()
	l.Insert([]byte("m"))
	it := l.NewIterator()
	it.SeekToFirst()
	held := it.Key()
	const n = 3 * nodeSlab
	for i := 0; i < n; i++ {
		l.Insert([]byte(fmt.Sprintf("a%05d", i)))
		l.Insert([]byte(fmt.Sprintf("z%05d", i)))
	}
	if !it.Valid() || string(it.Key()) != "m" || &it.Key()[0] != &held[0] {
		t.Fatalf("held iterator reads %q after %d inserts", it.Key(), 2*n)
	}
	for i := 0; i < n; i++ {
		it.Next()
		if want := fmt.Sprintf("z%05d", i); !it.Valid() || string(it.Key()) != want {
			t.Fatalf("step %d after the held key: got %q want %q", i, it.Key(), want)
		}
	}
	it.SeekGE([]byte(fmt.Sprintf("a%05d", n-1)))
	it.Next()
	if !it.Valid() || &it.Key()[0] != &held[0] {
		t.Fatalf("step from the last key before the held one: got %q want %q", it.Key(), "m")
	}
}

// TestInsertAllocsAmortised: nodes and towers come from slabs, so an insert
// costs one allocation in nodeSlab and 4/3 in towerSlab, not two.
func TestInsertAllocsAmortised(t *testing.T) {
	const n = 10000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i*7919%n))
	}
	perInsert := testing.AllocsPerRun(3, func() {
		l := newList()
		for _, k := range keys {
			l.Insert(k)
		}
	}) / n
	if perInsert > 0.05 {
		t.Errorf("%.4f allocations per insert, want <= 0.05", perInsert)
	}
}
