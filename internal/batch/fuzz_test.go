package batch

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/encoding"
	"repro/internal/keys"
)

type fuzzEntry struct {
	kind       keys.Kind
	key, value []byte
}

func entriesOf(t *testing.T, b *Batch) []fuzzEntry {
	t.Helper()
	var out []fuzzEntry
	if err := b.Each(func(kind keys.Kind, key, value []byte) error {
		out = append(out, fuzzEntry{kind, key, value})
		return nil
	}); err != nil {
		t.Fatalf("Each on a decoded batch: %v", err)
	}
	return out
}

// FuzzBatchDecode: Decode, which WAL replay feeds every record to, never
// panics and rejects only with ErrCorrupt. An accepted batch's Each visits
// exactly Count entries, and the batch rebuilt from those entries through
// Set, Delete, SetBlobRef and SetBlobRewrite encodes to bytes that decode to
// the same sequence and entries.
func FuzzBatchDecode(f *testing.F) {
	b := New()
	b.SetSequence(42)
	b.Set([]byte("k"), []byte("v"))
	b.Delete([]byte("gone"))
	b.SetBlobRef([]byte("big"), bytes.Repeat([]byte{1}, 20))
	b.SetBlobRewrite([]byte("moved"), 7, bytes.Repeat([]byte{2}, 20))
	f.Add(append([]byte(nil), b.Encode()...))
	f.Add(append([]byte(nil), New().Encode()...))
	// A rewrite whose payload is shorter than its 8-byte guard sequence: Decode
	// once accepted it, and applying it reads the guard past the payload.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, byte(keys.KindBlobRewrite), 1, 'k', 3, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, byte(keys.KindDelete), 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode rejected with %v, which does not wrap ErrCorrupt", err)
			}
			return
		}
		got := entriesOf(t, d)
		if len(got) != d.Count() {
			t.Fatalf("Each visited %d entries, Count is %d", len(got), d.Count())
		}
		r := New()
		for _, e := range got {
			switch e.kind {
			case keys.KindSet:
				r.Set(e.key, e.value)
			case keys.KindDelete:
				r.Delete(e.key)
			case keys.KindBlobRef:
				r.SetBlobRef(e.key, e.value)
			case keys.KindBlobRewrite:
				r.SetBlobRewrite(e.key, keys.Seq(encoding.Fixed64(e.value)), e.value[8:])
			default:
				t.Fatalf("accepted an entry of kind %d", e.kind)
			}
		}
		r.SetSequence(d.Sequence())
		again, err := Decode(append([]byte(nil), r.Encode()...))
		if err != nil {
			t.Fatalf("the rebuilt batch does not decode: %v", err)
		}
		if again.Sequence() != d.Sequence() {
			t.Fatalf("rebuilt sequence %d, decoded %d", again.Sequence(), d.Sequence())
		}
		rebuilt := entriesOf(t, again)
		if len(rebuilt) != len(got) {
			t.Fatalf("rebuilt batch has %d entries, decoded %d", len(rebuilt), len(got))
		}
		for i := range got {
			if rebuilt[i].kind != got[i].kind || !bytes.Equal(rebuilt[i].key, got[i].key) || !bytes.Equal(rebuilt[i].value, got[i].value) {
				t.Fatalf("entry %d: rebuilt %+v, decoded %+v", i, rebuilt[i], got[i])
			}
		}
	})
}
