//go:build invariants

package batch

import (
	"bytes"
	"testing"

	"repro/internal/keys"
)

// TestResetPoisonsPayload: a slice kept out of a batch across Reset — the
// state a pooled batch is in when its previous user still holds an entry —
// reads 0xDD under the invariants build, never the next user's bytes.
func TestResetPoisonsPayload(t *testing.T) {
	b := New()
	b.Set([]byte("key"), []byte("value"))
	var kept []byte
	_ = b.Each(func(_ keys.Kind, _, value []byte) error {
		kept = value
		return nil
	})
	b.Reset()
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xDD}, len("value"))) {
		t.Fatalf("value kept across Reset reads %x, want it poisoned", kept)
	}
	b.Set([]byte("key"), []byte("fresh"))
	var got []byte
	_ = b.Each(func(_ keys.Kind, _, value []byte) error {
		got = value
		return nil
	})
	if string(got) != "fresh" {
		t.Fatalf("batch reused after Reset holds %q", got)
	}
}
