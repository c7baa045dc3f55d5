package version

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/keys"
)

// FuzzDecodeEdit feeds arbitrary bytes to the MANIFEST edit decoder. It must
// never panic, and must reject what it cannot parse with ErrCorruptEdit. An
// edit it accepts re-encodes with AppendEncoded (after any prefix) to bytes
// that decode to an equal edit, and that encoding is stable: the decoder
// accepts fields in any order and repeats, the encoder writes one canonical
// form.
func FuzzDecodeEdit(f *testing.F) {
	full := &Edit{ComparerName: keys.BytewiseComparer{}.Name()}
	full.SetLogNum(7)
	full.SetNextFileNum(42)
	full.SetLastSeq(1000)
	full.SetNextLinkSeq(55)
	full.CompactPointers = append(full.CompactPointers, CompactPointer{Level: 2, Key: ik("ptr", 3)})
	full.DeleteFile(1, 10)
	full.AddFile(2, &FileMeta{
		Num: 11, Size: 2048, Smallest: ik("a", 5), Largest: ik("m", 9),
		Slices: []Slice{{FrozenNum: 3, Range: keys.KeyRange{Lo: []byte("b"), Hi: []byte("d")}, LinkSeq: 4, Bytes: 512}},
	})
	full.FreezeFile(&FrozenMeta{Num: 3, Size: 4096, Smallest: ik("b", 1), Largest: ik("z", 2)})
	full.AddSlice(2, 11, Slice{FrozenNum: 3, Range: keys.KeyRange{Lo: []byte("e"), Hi: []byte("f")}, LinkSeq: 6, Bytes: 100})
	f.Add(full.Encode())
	f.Add([]byte{})
	f.Add([]byte{tagLogNum, 1, tagLogNum, 2})                  // a repeated field: the last wins
	f.Add([]byte{tagComparer, 1, 'x', tagComparer, 0})         // an empty name after a name
	f.Add([]byte{tagDeletedFile, NumLevels, 1})                // a level out of range
	f.Add([]byte{tagNewFile, 1, 1, 0, 0, 0, 0xff, 0xff, 0x7f}) // a huge slice count

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEdit(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptEdit) {
				t.Fatalf("DecodeEdit: %v, not ErrCorruptEdit", err)
			}
			return
		}
		prefix := []byte("prefix")
		enc := e.AppendEncoded(bytes.Clone(prefix))
		if !bytes.HasPrefix(enc, prefix) {
			t.Fatalf("AppendEncoded overwrote its prefix: %q", enc)
		}
		enc = enc[len(prefix):]
		d, err := DecodeEdit(enc)
		if err != nil {
			t.Fatalf("re-encoded edit %x does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(d, e) {
			t.Fatalf("round trip changed the edit:\n got %+v\nwant %+v", d, e)
		}
		if again := d.Encode(); !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not stable: %x then %x", enc, again)
		}
	})
}
