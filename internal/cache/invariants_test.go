//go:build invariants

package cache

import "testing"

// TestMischargeCaught verifies the invariants-build accounting check: a
// value must be charged exactly its length, so charging a decoded block the
// (smaller) on-disk compressed length is caught at Set.
func TestMischargeCaught(t *testing.T) {
	c := NewSharded(1<<20, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Set with charge != len(v) did not trip the invariant")
		}
	}()
	// 4 KiB decoded block mischarged at its 512-byte on-disk length.
	c.Set(Key{FileNum: 1}, make([]byte, 4096), 512)
}
