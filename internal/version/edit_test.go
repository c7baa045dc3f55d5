package version

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/keys"
)

func ik(u string, seq keys.Seq) keys.InternalKey {
	return keys.MakeInternalKey(nil, []byte(u), seq, keys.KindSet)
}

func TestEditEncodeDecodeRoundTrip(t *testing.T) {
	e := &Edit{ComparerName: "ldc.BytewiseComparator"}
	e.SetLogNum(7)
	e.SetNextFileNum(42)
	e.SetLastSeq(1000)
	e.SetNextLinkSeq(55)
	e.CompactPointers = append(e.CompactPointers, CompactPointer{Level: 2, Key: ik("ptr", 3)})
	e.DeleteFile(1, 10)
	e.AddFile(2, &FileMeta{
		Num: 11, Size: 2048,
		Smallest: ik("a", 5), Largest: ik("m", 9),
		Slices: []Slice{{FrozenNum: 3, Range: keys.KeyRange{Lo: []byte("b"), Hi: []byte("d")}, LinkSeq: 4, Bytes: 512}},
	})
	e.FreezeFile(&FrozenMeta{Num: 3, Size: 4096, Smallest: ik("b", 1), Largest: ik("z", 2)})
	e.AddSlice(2, 11, Slice{FrozenNum: 3, Range: keys.KeyRange{Lo: []byte("e"), Hi: []byte("f")}, LinkSeq: 6, Bytes: 100})

	d, err := DecodeEdit(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d.ComparerName != e.ComparerName {
		t.Errorf("ComparerName = %q", d.ComparerName)
	}
	if !d.hasLogNum || d.LogNum != 7 || !d.hasNextFileNum || d.NextFileNum != 42 ||
		!d.hasLastSeq || d.LastSeq != 1000 || !d.hasNextLinkSeq || d.NextLinkSeq != 55 {
		t.Errorf("scalars wrong: %+v", d)
	}
	if len(d.CompactPointers) != 1 || d.CompactPointers[0].Level != 2 ||
		!bytes.Equal(d.CompactPointers[0].Key, e.CompactPointers[0].Key) {
		t.Errorf("compact pointers = %+v", d.CompactPointers)
	}
	if len(d.DeletedFiles) != 1 || d.DeletedFiles[0] != (DeletedFile{Level: 1, Num: 10}) {
		t.Errorf("deleted = %+v", d.DeletedFiles)
	}
	if len(d.NewFiles) != 1 {
		t.Fatalf("new files = %+v", d.NewFiles)
	}
	nf := d.NewFiles[0]
	if nf.Level != 2 || nf.Meta.Num != 11 || nf.Meta.Size != 2048 ||
		!bytes.Equal(nf.Meta.Smallest, ik("a", 5)) || len(nf.Meta.Slices) != 1 {
		t.Errorf("new file = %+v", nf.Meta)
	}
	s := nf.Meta.Slices[0]
	if s.FrozenNum != 3 || string(s.Range.Lo) != "b" || string(s.Range.Hi) != "d" ||
		s.LinkSeq != 4 || s.Bytes != 512 {
		t.Errorf("embedded slice = %+v", s)
	}
	if len(d.FrozenFiles) != 1 || d.FrozenFiles[0].Num != 3 || d.FrozenFiles[0].Size != 4096 {
		t.Errorf("frozen = %+v", d.FrozenFiles)
	}
	if len(d.NewSlices) != 1 || d.NewSlices[0].FileNum != 11 ||
		string(d.NewSlices[0].Slice.Range.Lo) != "e" {
		t.Errorf("new slices = %+v", d.NewSlices)
	}
}

func TestEmptyEditRoundTrip(t *testing.T) {
	e := &Edit{}
	d, err := DecodeEdit(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d.ComparerName != "" || d.hasLogNum || len(d.NewFiles) != 0 {
		t.Errorf("empty edit decoded as %+v", d)
	}
}

func TestDecodeEditRejectsCorrupt(t *testing.T) {
	e := &Edit{}
	e.AddFile(1, &FileMeta{Num: 1, Smallest: ik("a", 1), Largest: ik("b", 1)})
	enc := e.Encode()
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeEdit(enc[:cut]); err == nil {
			// Some prefixes happen to decode as valid shorter edits only if
			// they end exactly on a field boundary; a truncated trailing
			// field must error.
			continue
		} else if !errors.Is(err, ErrCorruptEdit) {
			t.Fatalf("cut=%d: err=%v, not ErrCorruptEdit", cut, err)
		}
	}
	if _, err := DecodeEdit([]byte{0xee, 0x01}); err == nil {
		t.Error("unknown tag accepted")
	}
}

func TestParseFileName(t *testing.T) {
	cases := []struct {
		name string
		typ  FileType
		num  uint64
	}{
		{"CURRENT", TypeCurrent, 0},
		{"MANIFEST-000005", TypeManifest, 5},
		{"000123.sst", TypeTable, 123},
		{"000007.log", TypeLog, 7},
		{"SHARD-0-000007.log", TypeUnknown, 0}, // the retired shared-directory WAL name
		{"000009.tmp", TypeTemp, 9},
		{"LOCK", TypeUnknown, 0},
		{"xyz.sst", TypeUnknown, 0},
		{"MANIFEST-abc", TypeUnknown, 0},
	}
	for _, tc := range cases {
		typ, num := ParseFileName(tc.name)
		if typ != tc.typ || num != tc.num {
			t.Errorf("ParseFileName(%q) = %v,%d want %v,%d", tc.name, typ, num, tc.typ, tc.num)
		}
	}
}

func TestFileNameRoundTrip(t *testing.T) {
	dir := "/db"
	for _, tc := range []struct {
		path string
		typ  FileType
		num  uint64
	}{
		{TableFileName(dir, 12), TypeTable, 12},
		{ManifestFileName(dir, 9), TypeManifest, 9},
		{CurrentFileName(dir), TypeCurrent, 0},
	} {
		base := tc.path[len(dir)+1:]
		typ, num := ParseFileName(base)
		if typ != tc.typ || num != tc.num {
			t.Errorf("%q parsed as %v,%d", base, typ, num)
		}
	}
}
