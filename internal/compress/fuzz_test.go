package compress

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzLZ4Decode feeds arbitrary bytes to the LZ4-class decoder as the framed
// payload. The contract under fuzzing: decode either succeeds or returns
// ErrCorrupt — it never panics, never over-reads, and never writes outside
// the declared output.
func FuzzLZ4Decode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x10, 0x04, 0xab})                   // claims 16 raw bytes, tiny stream
	f.Add([]byte{0x04, 0xf0, 1, 2, 3, 4})             // literal nibble overrun
	f.Add([]byte{0x08, 0x0f, 0xff, 0xff, 0x00, 0x41}) // poisoned extension bytes
	good, kind := Compress(LZ4, nil, bytes.Repeat([]byte("abcdefgh"), 600))
	if kind == LZ4 {
		f.Add(good)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		out, err := Decompress(LZ4, payload)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("non-ErrCorrupt failure: %v", err)
		}
		if err == nil && out == nil {
			t.Fatal("success with nil output")
		}
	})
}

// FuzzCodecRoundTrip proves Compress∘Decompress is the identity for every
// codec on arbitrary inputs — including the bailout path, where the block
// is stored raw.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte("hello hello hello hello"), uint8(1))
	f.Add(bytes.Repeat([]byte{0}, 5000), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Fuzz(func(t *testing.T, src []byte, kindByte uint8) {
		kind := []Kind{None, LZ4}[kindByte%2]
		payload, used := Compress(kind, nil, src)
		if !used.Valid() {
			t.Fatalf("Compress returned invalid kind %d", used)
		}
		out, err := Decompress(used, payload)
		if err != nil {
			t.Fatalf("%v→%v: decompress of own output failed: %v", kind, used, err)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("%v→%v: round trip mismatch (%d in, %d out)", kind, used, len(src), len(out))
		}
	})
}
