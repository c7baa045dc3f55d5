package iterator

import (
	"fmt"
	"testing"

	"repro/internal/keys"
)

// BenchmarkMergingNext steps a merge of five sorted children whose keys
// interleave, as a scan over a memtable and four tables does, re-seeking to
// the first entry whenever the walk runs out; with "lazy" the fifth child
// stands on a bound until the walk reaches it, as an LDC slice window does.
func BenchmarkMergingNext(b *testing.B) {
	const children, perChild = 5, 2000
	for _, lazy := range []bool{false, true} {
		b.Run(fmt.Sprintf("lazy=%v", lazy), func(b *testing.B) {
			its := make([]Iterator, children)
			for c := range its {
				p := make([]KV, perChild)
				for i := range p {
					p[i] = KV{K: ik(fmt.Sprintf("key-%08d", i*children+c), 1), V: []byte("value")}
				}
				its[c] = NewSlice(icmp.Compare, p)
			}
			if lazy {
				// The last child's entries start halfway up the key space.
				p := make([]KV, perChild)
				for i := range p {
					p[i] = KV{K: ik(fmt.Sprintf("key-%08d", children*perChild+i), 1), V: []byte("value")}
				}
				lo := keys.MakeSearchKey(nil, []byte(fmt.Sprintf("key-%08d", children*perChild)), keys.MaxSeq)
				its[children-1] = &lazyChild{Iterator: NewSlice(icmp.Compare, p), lo: lo, self: children - 1}
			}
			m := NewMerging(icmp.Compare, its...)
			defer m.Close()
			m.SeekToFirst()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Next()
				if !m.Valid() {
					m.SeekToFirst()
				}
			}
		})
	}
}
