package compress

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// corpus returns inputs spanning the codec's interesting regimes: empty,
// tiny, highly repetitive, structured text, and incompressible noise.
func corpus() map[string][]byte {
	rng := rand.New(rand.NewSource(1))
	noise := make([]byte, 64<<10)
	rng.Read(noise)
	long := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 4000)
	runs := bytes.Repeat([]byte{0xab}, 70000)
	mixed := make([]byte, 0, 32<<10)
	for i := 0; i < 400; i++ {
		mixed = append(mixed, []byte("key-000")...)
		mixed = append(mixed, byte(i), byte(i>>8))
		mixed = append(mixed, noise[i*7:i*7+64]...)
	}
	return map[string][]byte{
		"empty":     nil,
		"one":       {42},
		"short":     []byte("hello"),
		"minmatch":  []byte("abcdabcdabcd"),
		"text":      []byte(strings.Repeat("compaction is lower-level driven ", 200)),
		"longtext":  long,
		"runs":      runs,
		"mixed":     mixed,
		"noise":     noise,
		"noise4k":   noise[:4096],
		"block4k":   long[:4096],
		"unaligned": long[:4099],
	}
}

func TestRoundTrip(t *testing.T) {
	for _, kind := range []Kind{None, LZ4} {
		for name, src := range corpus() {
			payload, got := Compress(kind, nil, src)
			if kind == None && got != None {
				t.Fatalf("%v/%s: codec None produced %v", kind, name, got)
			}
			if got == None && !bytes.Equal(payload, src) {
				t.Fatalf("%v/%s: raw fallback altered the data", kind, name)
			}
			out, err := Decompress(got, payload)
			if err != nil {
				t.Fatalf("%v/%s: decompress: %v", kind, name, err)
			}
			if !bytes.Equal(out, src) {
				t.Fatalf("%v/%s: round trip mismatch: %d bytes in, %d out", kind, name, len(src), len(out))
			}
		}
	}
}

func TestCompressibleInputsShrink(t *testing.T) {
	c := corpus()
	for _, name := range []string{"text", "longtext", "runs", "block4k"} {
		src := c[name]
		payload, got := Compress(LZ4, nil, src)
		if got != LZ4 {
			t.Errorf("%s: bailed out to %v on compressible input", name, got)
			continue
		}
		if len(payload) > len(src)-len(src)/8 {
			t.Errorf("%s: payload %d bytes does not clear the 12.5%% savings bar on %d",
				name, len(payload), len(src))
		}
	}
}

func TestIncompressibleBailout(t *testing.T) {
	c := corpus()
	for _, name := range []string{"noise", "noise4k", "one", "short", "empty"} {
		if payload, got := Compress(LZ4, nil, c[name]); got != None {
			t.Errorf("%s: stored compressed (%d bytes for %d) instead of bailing to raw",
				name, len(payload), len(c[name]))
		}
	}
}

// TestScratchReuse exercises the writer's buffer-recycling pattern: the
// same scratch slice across many blocks, each round trip intact.
func TestScratchReuse(t *testing.T) {
	var scratch []byte
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := rng.Intn(8 << 10)
		src := bytes.Repeat([]byte{byte(i), byte(i + 1), byte(i + 2)}, n/3+1)
		payload, got := Compress(LZ4, scratch, src)
		out, err := Decompress(got, payload)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("block %d: mismatch after scratch reuse", i)
		}
		if got != None {
			scratch = payload[:0]
		}
	}
}

// TestLZ4OutputIgnoresTableHistory: the match table is recycled uncleared, yet
// a block encodes to the same bytes whatever the table compressed before it —
// every corpus input after every other, after itself, and on a table whose base
// is about to overflow — and those bytes are the ones a fresh table produces.
func TestLZ4OutputIgnoresTableHistory(t *testing.T) {
	c := corpus()
	encode := func(tb *lz4Table, src []byte) []byte {
		out, ok := tb.compress(nil, src, len(src)+len(src)/255+16)
		if !ok {
			t.Fatalf("compress of %d bytes ran over its budget", len(src))
		}
		return out
	}
	for name, src := range c {
		want := encode(&lz4Table{base: 1}, src)
		for before, prior := range c {
			tb := &lz4Table{base: 1}
			encode(tb, prior)
			if got := encode(tb, src); !bytes.Equal(got, want) {
				t.Errorf("%s after %s: %d bytes, not the %d a fresh table gives", name, before, len(got), len(want))
			}
		}
		tb := &lz4Table{base: 1}
		encode(tb, src)
		tb.base = math.MaxInt32 - int32(len(src))/2
		if got := encode(tb, src); !bytes.Equal(got, want) || len(src) > 0 && tb.base != 1+int32(len(src)) {
			t.Errorf("%s at the end of the base range: %d bytes (want %d), base %d", name, len(got), len(want), tb.base)
		}
		out := make([]byte, len(src))
		if err := lz4Decompress(out, want); err != nil || !bytes.Equal(out, src) {
			t.Errorf("%s: round trip failed: %v", name, err)
		}
	}
	// The case a stale slot used to decide: a 4-gram at position q of noise,
	// copied to p. Past 64 misses the finder probes every other position, so it
	// skips some q of src and finds no match at p; a prior block whose own match
	// at 4 shifted that phase probed q and left it in the table, where a
	// trusted stale slot turns p into a match against q.
	noise := make([]byte, 256)
	rand.New(rand.NewSource(1)).Read(noise)
	prior := append([]byte(nil), noise...)
	copy(prior[4:8], prior[0:4])
	for q := 56; q < 80; q++ {
		for p := 150; p < 170; p++ {
			src := append([]byte(nil), noise...)
			copy(src[p:p+4], src[q:q+4])
			want := encode(&lz4Table{base: 1}, src)
			tb := &lz4Table{base: 1}
			encode(tb, prior)
			if got := encode(tb, src); !bytes.Equal(got, want) {
				t.Errorf("noise with [%d,+4) copied to %d, after a table that probed %d: %d bytes, not the %d a fresh table gives",
					q, p, q, len(got), len(want))
			}
		}
	}
}

func TestDecompressCorruptInputs(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh12345678"), 512)
	payload, got := Compress(LZ4, nil, src)
	if got != LZ4 {
		t.Fatal("expected compression to engage")
	}
	t.Run(LZ4.String(), func(t *testing.T) {
		for cut := 0; cut < len(payload); cut += 1 + len(payload)/97 {
			if _, err := Decompress(LZ4, payload[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes decoded cleanly", cut)
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation to %d: got %v, want ErrCorrupt", cut, err)
			}
		}
		// A length header that disagrees with the stream must be caught.
		grown := append([]byte{0xff, 0xff, 0x03}, payload[1:]...)
		if out, err := Decompress(LZ4, grown); err == nil && len(out) != len(src) {
			t.Fatalf("forged length header accepted: %d bytes out", len(out))
		}
		if _, err := Decompress(LZ4, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("empty payload: got %v, want ErrCorrupt", err)
		}
	})
	// The removed DEFLATE codec's kind decodes nothing, and says so.
	if _, err := Decompress(removedFlate, payload); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "flate (removed)") {
		t.Fatalf("flate kind: got %v, want ErrCorrupt naming the removed codec", err)
	}
	if _, err := Decompress(Kind(9), []byte{1, 2, 3}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind: got %v, want ErrCorrupt", err)
	}
}

func TestKindStringsAndValidity(t *testing.T) {
	cases := map[Kind]string{None: "none", LZ4: "lz4"}
	for k, want := range cases {
		if !k.Valid() || k.String() != want {
			t.Errorf("kind %d: valid=%v string=%q", k, k.Valid(), k)
		}
	}
	if removedFlate.Valid() || removedFlate.String() != "flate (removed)" {
		t.Errorf("kind 1: valid=%v string=%q, want the reserved removed codec", removedFlate.Valid(), removedFlate)
	}
	if Kind(3).Valid() || Kind(255).Valid() {
		t.Error("out-of-range kinds report valid")
	}
}

func BenchmarkLZ4Compress4K(b *testing.B) {
	src := corpus()["block4k"]
	b.SetBytes(int64(len(src)))
	var scratch []byte
	for i := 0; i < b.N; i++ {
		scratch, _ = Compress(LZ4, scratch, src)
	}
}

func BenchmarkLZ4Decompress4K(b *testing.B) {
	src := corpus()["block4k"]
	payload, kind := Compress(LZ4, nil, src)
	if kind != LZ4 {
		b.Fatal("input did not compress")
	}
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(kind, payload); err != nil {
			b.Fatal(err)
		}
	}
}
