package vlog

import (
	"fmt"
	"testing"

	"repro/internal/vfs"
)

// BenchmarkWriterAppend appends 1 KiB values to an in-memory value log, as a
// commit that separates its values does (fsyncs are the caller's, apart).
func BenchmarkWriterAppend(b *testing.B) {
	l, err := Open(vfs.Mem(), "vl", Options{SegmentSize: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	w := l.NewWriter(0)
	defer w.Close()
	key, value := []byte(fmt.Sprintf("user%012d", 7)), make([]byte, 1<<10)
	b.SetBytes(int64(len(key) + len(value)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(key, value); err != nil {
			b.Fatal(err)
		}
	}
}
