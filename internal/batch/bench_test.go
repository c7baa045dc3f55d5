package batch

import (
	"fmt"
	"testing"
)

// BenchmarkSetEncode fills a reused batch with one pipelined burst's writes —
// 16 Sets of a 16-byte key and a 1 KiB value — and encodes it, as the server
// fills a segment and the commit leader encodes its WAL record.
func BenchmarkSetEncode(b *testing.B) {
	const n = 16
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
	}
	value := make([]byte, 1<<10)
	bt := New()
	b.SetBytes(int64(n * (len(keys[0]) + len(value))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bt.Reset()
		for _, k := range keys {
			bt.Set(k, value)
		}
		bt.SetSequence(1)
		if len(bt.Encode()) == 0 {
			b.Fatal("empty encoding")
		}
	}
}
