package resp

import (
	"testing"
)

// repeatReader serves msg over and over, one copy (or what is left of one)
// per Read, as a socket delivering one reply at a time would.
type repeatReader struct {
	msg []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.msg[r.off:])
	r.off = (r.off + n) % len(r.msg)
	return n, nil
}

// replyReader is a Reader over an endless stream of msg, warmed so that its
// buffer has reached its working size.
func replyReader(msg string) *Reader {
	r := NewReader(&repeatReader{msg: []byte(msg)})
	for i := 0; i < 64; i++ {
		if _, err := r.ReadReply(); err != nil {
			panic(err)
		}
	}
	return r
}

// TestReadReplyAllocs pins what decoding a reply costs the client: a status
// the server sends on every write or PING is a shared value, so nothing; a
// bulk reply is the caller's copy of the payload and its box.
func TestReadReplyAllocs(t *testing.T) {
	for _, tc := range []struct {
		name, msg string
		want      float64
	}{
		{"ok", "+OK\r\n", 0},
		{"pong", "+PONG\r\n", 0},
		{"bulk", "$5\r\nvalue\r\n", 2},
	} {
		r := replyReader(tc.msg)
		got := testing.AllocsPerRun(100, func() {
			if _, err := r.ReadReply(); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.want {
			t.Errorf("%s: %.0f allocations per reply, want at most %.0f", tc.name, got, tc.want)
		}
	}
}

// BenchmarkReadReply decodes one reply of each shape a served workload reads
// back: a write's status, a GET's bulk value and an MGET's array.
func BenchmarkReadReply(b *testing.B) {
	value := make([]byte, 1<<10)
	for _, bc := range []struct {
		name  string
		reply func(w *Writer)
	}{
		{"status", func(w *Writer) { w.SimpleString("OK") }},
		{"bulk", func(w *Writer) { w.Bulk(value) }},
		{"array", func(w *Writer) {
			w.Array(16)
			for i := 0; i < 16; i++ {
				w.Bulk(value[:100])
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var msg sliceWriter
			w := NewWriter(&msg)
			bc.reply(w)
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			r := replyReader(string(msg))
			b.SetBytes(int64(len(msg)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.ReadReply(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sliceWriter collects what a Writer flushes.
type sliceWriter []byte

func (s *sliceWriter) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}
