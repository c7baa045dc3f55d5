package block

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func buildBlock(t *testing.T, interval int, kvs ...string) *Reader {
	t.Helper()
	w := &Writer{Interval: interval}
	for i := 0; i < len(kvs); i += 2 {
		w.Add([]byte(kvs[i]), []byte(kvs[i+1]))
	}
	r, err := NewReader(bytes.Compare, w.Finish())
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r
}

func collect(t *testing.T, r *Reader) []string {
	t.Helper()
	it := r.Iter()
	var out []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		out = append(out, string(it.Key())+"="+string(it.Value()))
	}
	if err := it.Error(); err != nil {
		t.Fatalf("iter error: %v", err)
	}
	return out
}

func TestEmptyBlock(t *testing.T) {
	w := &Writer{}
	r, err := NewReader(bytes.Compare, w.Finish())
	if err != nil {
		t.Fatalf("NewReader on empty block: %v", err)
	}
	it := r.Iter()
	it.SeekToFirst()
	if it.Valid() {
		t.Error("empty block iterator valid")
	}
	it.SeekGE([]byte("x"))
	if it.Valid() {
		t.Error("SeekGE valid on empty block")
	}
}

func TestRoundTripWithPrefixCompression(t *testing.T) {
	r := buildBlock(t, 4,
		"apple", "1", "apple-pie", "2", "applet", "3", "banana", "4",
		"bandana", "5", "cat", "6")
	got := collect(t, r)
	want := []string{"apple=1", "apple-pie=2", "applet=3", "banana=4", "bandana=5", "cat=6"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestSeekGE(t *testing.T) {
	r := buildBlock(t, 2, "b", "1", "d", "2", "f", "3", "h", "4")
	it := r.Iter()
	cases := []struct{ seek, want string }{
		{"a", "b"}, {"b", "b"}, {"c", "d"}, {"f", "f"}, {"g", "h"}, {"h", "h"},
	}
	for _, tc := range cases {
		it.SeekGE([]byte(tc.seek))
		if !it.Valid() || string(it.Key()) != tc.want {
			t.Errorf("SeekGE(%q) landed on %q valid=%v", tc.seek, it.Key(), it.Valid())
		}
	}
	it.SeekGE([]byte("i"))
	if it.Valid() {
		t.Error("SeekGE past end valid")
	}
}

// TestReseekAfterWalk: a seek lands right wherever the iterator stands —
// mid-walk, past the end, or on a later restart run than the target's — and
// the walk that follows it yields every later entry in order.
func TestReseekAfterWalk(t *testing.T) {
	r := buildBlock(t, 2, "a", "1", "b", "2", "c", "3", "d", "4", "e", "5", "f", "6", "g", "7")
	all := []string{"a=1", "b=2", "c=3", "d=4", "e=5", "f=6", "g=7"}
	it := r.Iter()
	rest := func(op string, from int) {
		t.Helper()
		var got []string
		for ; it.Valid(); it.Next() {
			got = append(got, string(it.Key())+"="+string(it.Value()))
		}
		if err := it.Error(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(all[from:]) {
			t.Errorf("%s: walk got %v want %v", op, got, all[from:])
		}
	}
	it.SeekGE([]byte("f"))
	rest("SeekGE(f)", 5)
	it.SeekGE([]byte("b")) // from past the end back to an earlier restart run
	rest("SeekGE(b) after the end", 1)
	it.SeekToFirst()
	it.Next()
	it.Next()
	it.Next() // on d
	it.SeekGE([]byte("bb"))
	rest("SeekGE(bb) from d", 2)
	it.SeekToFirst()
	rest("SeekToFirst after the end", 0)
}

func TestEstimatedSizeGrows(t *testing.T) {
	w := &Writer{}
	if !w.Empty() {
		t.Error("fresh writer not empty")
	}
	prev := w.EstimatedSize()
	for i := 0; i < 20; i++ {
		w.Add([]byte(fmt.Sprintf("key%04d", i)), bytes.Repeat([]byte{'v'}, 10))
		if sz := w.EstimatedSize(); sz <= prev {
			t.Fatalf("EstimatedSize did not grow at entry %d", i)
		}
		prev = w.EstimatedSize()
	}
	enc := w.Finish()
	if len(enc) != prev {
		t.Errorf("Finish len %d != EstimatedSize %d", len(enc), prev)
	}
}

func TestWriterReset(t *testing.T) {
	w := &Writer{Interval: 2}
	w.Add([]byte("a"), []byte("1"))
	w.Finish()
	w.Reset()
	if !w.Empty() || w.Count() != 0 {
		t.Error("Reset did not clear writer")
	}
	w.Add([]byte("z"), []byte("9"))
	r, err := NewReader(bytes.Compare, w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, r)
	if len(got) != 1 || got[0] != "z=9" {
		t.Errorf("after reset got %v", got)
	}
}

func TestCorruptBlockRejected(t *testing.T) {
	if _, err := NewReader(bytes.Compare, []byte{1, 2}); err == nil {
		t.Error("short block accepted")
	}
	// Restart count claiming more entries than fit.
	bad := make([]byte, 8)
	bad[4] = 0xff
	if _, err := NewReader(bytes.Compare, bad); err == nil {
		t.Error("bogus restart count accepted")
	}
}

func TestCorruptEntrySurfacesError(t *testing.T) {
	w := &Writer{}
	w.Add([]byte("key"), []byte("value"))
	enc := w.Finish()
	enc[0] = 0xff // destroy the first varint
	enc[1] = 0xff
	enc[2] = 0xff
	r, err := NewReader(bytes.Compare, enc)
	if err != nil {
		return // also acceptable
	}
	it := r.Iter()
	it.SeekToFirst()
	if it.Valid() {
		t.Error("iterator valid over corrupt entry")
	}
	if it.Error() == nil {
		t.Error("no error surfaced for corrupt entry")
	}
}

// Property test: random sorted KVs round-trip through the block with every
// restart interval, and SeekGE agrees with a linear scan.
func TestQuickRoundTripAndSeek(t *testing.T) {
	f := func(seed int64, interval uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		keySet := map[string]string{}
		for i := 0; i < n; i++ {
			keySet[fmt.Sprintf("key-%04d", rng.Intn(500))] = fmt.Sprintf("v%d", i)
		}
		var sorted []string
		for k := range keySet {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)

		w := &Writer{Interval: int(interval%32) + 1}
		for _, k := range sorted {
			w.Add([]byte(k), []byte(keySet[k]))
		}
		r, err := NewReader(bytes.Compare, w.Finish())
		if err != nil {
			return len(sorted) == 0 // empty-input edge
		}
		it := r.Iter()
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if i >= len(sorted) || string(it.Key()) != sorted[i] || string(it.Value()) != keySet[sorted[i]] {
				return false
			}
			i++
		}
		if i != len(sorted) {
			return false
		}
		// Random seeks.
		for j := 0; j < 10; j++ {
			target := fmt.Sprintf("key-%04d", rng.Intn(600))
			it.SeekGE([]byte(target))
			wantIdx := sort.SearchStrings(sorted, target)
			if wantIdx == len(sorted) {
				if it.Valid() {
					return false
				}
			} else if !it.Valid() || string(it.Key()) != sorted[wantIdx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEachRestart: a block that restarts at every entry yields exactly the
// entries an iterator walks, each key at the offset it reports, and one that
// does not is refused.
func TestEachRestart(t *testing.T) {
	kvs := []string{"a", "1", "ab", "22", "abc", "", "b", "4444"}
	for _, interval := range []int{1, 2} {
		r := buildBlock(t, interval, kvs...)
		var got []string
		err := r.EachRestart(func(keyAt int, key, value []byte) error {
			if at := r.data[keyAt : keyAt+len(key)]; &at[0] != &key[0] {
				t.Errorf("key %q reported at offset %d, which holds %q", key, keyAt, at)
			}
			got = append(got, string(key)+"="+string(value))
			return nil
		})
		if interval > 1 {
			if err == nil || !strings.HasPrefix(err.Error(), "block: corrupt entry") {
				t.Errorf("interval %d: EachRestart = %v, %v, want the corrupt-entry error", interval, got, err)
			}
			continue
		}
		if err != nil || fmt.Sprint(got) != fmt.Sprint(collect(t, r)) {
			t.Errorf("interval 1: EachRestart = %v, %v, the iterator walks %v", got, err, collect(t, r))
		}
	}
	empty := buildBlock(t, 1)
	if err := empty.EachRestart(func(_ int, key, value []byte) error { return fmt.Errorf("entry %q", key) }); err != nil {
		t.Errorf("empty block: %v", err)
	}
}

func BenchmarkBlockAdd(b *testing.B) {
	val := bytes.Repeat([]byte{'v'}, 100)
	w := &Writer{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.EstimatedSize() > 4096 {
			w.Finish()
			w.Reset()
		}
		w.Add([]byte(fmt.Sprintf("key-%012d", i)), val)
	}
}

// BenchmarkBlockSeekGE seeks a 4 KiB data block at three value sizes: under
// 128 bytes every restart entry's lengths fit one byte each (restartEntry's
// fast path); at 128 bytes and over the value length takes two.
func BenchmarkBlockSeekGE(b *testing.B) {
	for _, vlen := range []int{20, 128, 1024} {
		b.Run(fmt.Sprintf("value=%dB", vlen), func(b *testing.B) {
			w := &Writer{}
			var targets [][]byte
			for i := 0; w.EstimatedSize() < 4<<10 || i < 2; i++ {
				k := trailerKey(fmt.Sprintf("user-key-%06d", i), 100)
				w.Add(k, bytes.Repeat([]byte{'v'}, vlen))
				targets = append(targets, k)
			}
			r, err := NewReader(trailerCmp, w.Finish())
			if err != nil {
				b.Fatal(err)
			}
			var it Iter
			it.Init(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it.SeekGE(targets[i%len(targets)])
			}
		})
	}
}
