package bloom

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

func key(i int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

func TestEmptyFilter(t *testing.T) {
	f := New(nil, 10)
	if f.MayContain([]byte("anything")) {
		t.Error("empty filter claims membership")
	}
	if Filter(nil).MayContain([]byte("x")) {
		t.Error("nil filter claims membership")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	for _, n := range []int{1, 10, 100, 1000, 10000} {
		keysList := make([][]byte, n)
		for i := range keysList {
			keysList[i] = key(i)
		}
		f := New(keysList, 10)
		for i := range keysList {
			if !f.MayContain(keysList[i]) {
				t.Fatalf("n=%d: false negative for key %d", n, i)
			}
		}
	}
}

func falsePositiveRate(t *testing.T, bitsPerKey int) float64 {
	t.Helper()
	const n = 10000
	keysList := make([][]byte, n)
	for i := range keysList {
		keysList[i] = key(i)
	}
	f := New(keysList, bitsPerKey)
	fp := 0
	for i := 0; i < n; i++ {
		if f.MayContain(key(i + 1000000000)) {
			fp++
		}
	}
	return float64(fp) / n
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	if r := falsePositiveRate(t, 10); r > 0.02 {
		t.Errorf("10 bits/key FP rate = %.4f, want < 2%%", r)
	}
}

// The paper's Fig 13: beyond ~16 bits/key, accuracy gains saturate. Verify
// monotone improvement up to that point.
func TestFalsePositiveRateImprovesWithBits(t *testing.T) {
	r4 := falsePositiveRate(t, 4)
	r8 := falsePositiveRate(t, 8)
	r16 := falsePositiveRate(t, 16)
	if !(r4 > r8 && r8 >= r16) {
		t.Errorf("FP rates not improving: 4b=%.4f 8b=%.4f 16b=%.4f", r4, r8, r16)
	}
	if r16 > 0.005 {
		t.Errorf("16 bits/key FP rate = %.4f, want < 0.5%%", r16)
	}
}

func TestFilterSizeScalesWithBitsPerKey(t *testing.T) {
	keysList := make([][]byte, 1000)
	for i := range keysList {
		keysList[i] = key(i)
	}
	prev := 0
	for _, b := range []int{8, 16, 32, 64, 128} {
		size := len(New(keysList, b))
		if size <= prev {
			t.Errorf("filter size with %d bits/key = %d, not larger than previous %d", b, size, prev)
		}
		prev = size
	}
}

func TestSmallFilterMinimumSize(t *testing.T) {
	f := New([][]byte{[]byte("one")}, 10)
	// 64-bit minimum plus probe-count byte.
	if len(f) != 9 {
		t.Errorf("tiny filter length = %d, want 9", len(f))
	}
}

func TestClampBitsPerKey(t *testing.T) {
	f := New([][]byte{[]byte("k")}, 0) // clamped to 1
	if !f.MayContain([]byte("k")) {
		t.Error("clamped filter lost its key")
	}
}

func TestHashDistinct(t *testing.T) {
	seen := map[uint32]string{}
	collisions := 0
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("key-%d", i)
		h := Hash([]byte(k))
		if _, dup := seen[h]; dup {
			collisions++
		}
		seen[h] = k
	}
	// ~100k keys in a 32-bit space: expected ≈ 1-2 collisions.
	if collisions > 20 {
		t.Errorf("%d hash collisions in 100k keys", collisions)
	}
}

func BenchmarkBuild10BitsPerKey(b *testing.B) {
	keysList := make([][]byte, 2048)
	for i := range keysList {
		keysList[i] = key(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(keysList, 10)
	}
}

func BenchmarkMayContain(b *testing.B) {
	keysList := make([][]byte, 2048)
	for i := range keysList {
		keysList[i] = key(i)
	}
	f := New(keysList, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(key(i % 4096))
	}
}

// filterFromKeys is the filter construction as it was when New walked the
// keys themselves: the reference FromHashes is held to, byte for byte.
func filterFromKeys(keysList [][]byte, bitsPerKey int) Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	k := uint8(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	bits := len(keysList) * bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nBytes := (bits + 7) / 8
	bits = nBytes * 8
	buf := make([]byte, nBytes+1)
	buf[nBytes] = k
	for _, key := range keysList {
		h := Hash(key)
		delta := h>>17 | h<<15
		for i := uint8(0); i < k; i++ {
			pos := h % uint32(bits)
			buf[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return buf
}

// TestFilterFromHashesMatchesNew: a filter built from the keys' hashes is the
// filter built from the keys — same bytes on disk — from the empty set and
// the 64-bit floor (0, 1 and 7 keys at 1 bit per key) to 100 000 keys, with
// duplicate keys counted twice as a table with two versions of a key does.
// The digest is of the 1 000-key, 10-bit filter as built before FromHashes
// existed.
func TestFilterFromHashesMatchesNew(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 100000} {
		keysList := make([][]byte, n)
		hashes := make([]uint32, n)
		for i := range keysList {
			keysList[i] = key(i - i%5/4) // every fifth key repeats its predecessor
			hashes[i] = Hash(keysList[i])
		}
		for _, bitsPerKey := range []int{0, 1, 10, 16} {
			want := filterFromKeys(keysList, bitsPerKey)
			if got := FromHashes(hashes, bitsPerKey); !bytes.Equal(got, want) {
				t.Errorf("%d keys, %d bits per key: FromHashes differs from the filter built from keys", n, bitsPerKey)
			}
			if got := New(keysList, bitsPerKey); !bytes.Equal(got, want) {
				t.Errorf("%d keys, %d bits per key: New differs from the filter built from keys", n, bitsPerKey)
			}
			if n == 1000 && bitsPerKey == 10 {
				const parent = "09ee43b6e05fa2b66e911d1cf3ef4499a4e4a8b2bd2514dbcd2d70f6706b27e5"
				if got := fmt.Sprintf("%x", sha256.Sum256(want)); got != parent {
					t.Errorf("1 000 keys, 10 bits per key: filter digest %s, want %s", got, parent)
				}
			}
		}
	}
}
