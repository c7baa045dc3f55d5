package version

import (
	"errors"
	"fmt"

	"repro/internal/encoding"
	"repro/internal/keys"
)

// ErrCorruptEdit reports a malformed version edit in the MANIFEST.
var ErrCorruptEdit = errors.New("version: corrupt manifest edit")

// Edit tags, persisted in the MANIFEST. Values are stable across releases.
const (
	tagComparer       = 1
	tagLogNum         = 2
	tagNextFileNum    = 3
	tagLastSeq        = 4
	tagCompactPointer = 5
	tagDeletedFile    = 6
	tagNewFile        = 7
	tagFrozenFile     = 8 // LDC: file moved to the frozen region
	tagNewSlice       = 9 // LDC: slice linked onto a lower-level file
	tagNextLinkSeq    = 10
)

// DeletedFile names a file removed from a level.
type DeletedFile struct {
	Level int
	Num   uint64
}

// NewFile places a file in a level.
type NewFile struct {
	Level int
	Meta  *FileMeta
}

// NewSlice attaches a slice to the file FileNum at Level.
type NewSlice struct {
	Level   int
	FileNum uint64
	Slice   Slice
}

// CompactPointer records the round-robin compaction cursor for a level.
type CompactPointer struct {
	Level int
	Key   keys.InternalKey
}

// Edit is one atomic metadata transition. Zero value is an empty edit;
// setters populate optional fields.
type Edit struct {
	ComparerName    string
	hasLogNum       bool
	LogNum          uint64
	hasNextFileNum  bool
	NextFileNum     uint64
	hasLastSeq      bool
	LastSeq         keys.Seq
	hasNextLinkSeq  bool
	NextLinkSeq     uint64
	CompactPointers []CompactPointer
	DeletedFiles    []DeletedFile
	NewFiles        []NewFile
	FrozenFiles     []*FrozenMeta
	NewSlices       []NewSlice
}

// SetLogNum records the WAL number whose contents are reflected.
func (e *Edit) SetLogNum(n uint64) { e.hasLogNum, e.LogNum = true, n }

// SetNextFileNum records the file-number allocator watermark.
func (e *Edit) SetNextFileNum(n uint64) { e.hasNextFileNum, e.NextFileNum = true, n }

// SetLastSeq records the highest sequence number used.
func (e *Edit) SetLastSeq(s keys.Seq) { e.hasLastSeq, e.LastSeq = true, s }

// SetNextLinkSeq records the LDC link-sequence allocator watermark.
func (e *Edit) SetNextLinkSeq(n uint64) { e.hasNextLinkSeq, e.NextLinkSeq = true, n }

// AddFile appends a new file record.
func (e *Edit) AddFile(level int, meta *FileMeta) {
	e.NewFiles = append(e.NewFiles, NewFile{Level: level, Meta: meta})
}

// DeleteFile appends a deletion record.
func (e *Edit) DeleteFile(level int, num uint64) {
	e.DeletedFiles = append(e.DeletedFiles, DeletedFile{Level: level, Num: num})
}

// FreezeFile appends a frozen-region record. The file must also be deleted
// from its level in the same edit.
func (e *Edit) FreezeFile(fm *FrozenMeta) {
	e.FrozenFiles = append(e.FrozenFiles, fm)
}

// AddSlice appends a slice-link record.
func (e *Edit) AddSlice(level int, fileNum uint64, s Slice) {
	e.NewSlices = append(e.NewSlices, NewSlice{Level: level, FileNum: fileNum, Slice: s})
}

// Encode serializes the edit as one MANIFEST record.
func (e *Edit) Encode() []byte { return e.AppendEncoded(nil) }

// AppendEncoded appends the edit's MANIFEST record to b.
func (e *Edit) AppendEncoded(b []byte) []byte {
	if e.ComparerName != "" {
		b = encoding.PutUvarint(b, tagComparer)
		b = encoding.PutLengthPrefixed(b, []byte(e.ComparerName))
	}
	if e.hasLogNum {
		b = encoding.PutUvarint(b, tagLogNum)
		b = encoding.PutUvarint(b, e.LogNum)
	}
	if e.hasNextFileNum {
		b = encoding.PutUvarint(b, tagNextFileNum)
		b = encoding.PutUvarint(b, e.NextFileNum)
	}
	if e.hasLastSeq {
		b = encoding.PutUvarint(b, tagLastSeq)
		b = encoding.PutUvarint(b, uint64(e.LastSeq))
	}
	if e.hasNextLinkSeq {
		b = encoding.PutUvarint(b, tagNextLinkSeq)
		b = encoding.PutUvarint(b, e.NextLinkSeq)
	}
	for _, cp := range e.CompactPointers {
		b = encoding.PutUvarint(b, tagCompactPointer)
		b = encoding.PutUvarint(b, uint64(cp.Level))
		b = encoding.PutLengthPrefixed(b, cp.Key)
	}
	for _, df := range e.DeletedFiles {
		b = encoding.PutUvarint(b, tagDeletedFile)
		b = encoding.PutUvarint(b, uint64(df.Level))
		b = encoding.PutUvarint(b, df.Num)
	}
	for _, nf := range e.NewFiles {
		b = encoding.PutUvarint(b, tagNewFile)
		b = encoding.PutUvarint(b, uint64(nf.Level))
		b = encoding.PutUvarint(b, nf.Meta.Num)
		b = encoding.PutUvarint(b, uint64(nf.Meta.Size))
		b = encoding.PutLengthPrefixed(b, nf.Meta.Smallest)
		b = encoding.PutLengthPrefixed(b, nf.Meta.Largest)
		b = encoding.PutUvarint(b, uint64(len(nf.Meta.Slices)))
		for _, s := range nf.Meta.Slices {
			b = encodeSliceBody(b, s)
		}
	}
	for _, ff := range e.FrozenFiles {
		b = encoding.PutUvarint(b, tagFrozenFile)
		b = encoding.PutUvarint(b, ff.Num)
		b = encoding.PutUvarint(b, uint64(ff.Size))
		b = encoding.PutLengthPrefixed(b, ff.Smallest)
		b = encoding.PutLengthPrefixed(b, ff.Largest)
	}
	for _, ns := range e.NewSlices {
		b = encoding.PutUvarint(b, tagNewSlice)
		b = encoding.PutUvarint(b, uint64(ns.Level))
		b = encoding.PutUvarint(b, ns.FileNum)
		b = encodeSliceBody(b, ns.Slice)
	}
	return b
}

func encodeSliceBody(b []byte, s Slice) []byte {
	b = encoding.PutUvarint(b, s.FrozenNum)
	b = encoding.PutLengthPrefixed(b, s.Range.Lo)
	b = encoding.PutLengthPrefixed(b, s.Range.Hi)
	b = encoding.PutUvarint(b, s.LinkSeq)
	return encoding.PutUvarint(b, uint64(s.Bytes))
}

type editDecoder struct {
	b []byte
}

func (d *editDecoder) uvarint() (uint64, error) {
	v, n := encoding.Uvarint(d.b)
	if n == 0 {
		return 0, ErrCorruptEdit
	}
	d.b = d.b[n:]
	return v, nil
}

// level reads a level number, which indexes fixed arrays in the builder and
// the Set, so one out of range is corruption.
func (d *editDecoder) level() (int, error) {
	v, err := d.uvarint()
	if err == nil && v >= NumLevels {
		err = fmt.Errorf("%w: level %d", ErrCorruptEdit, v)
	}
	return int(v), err
}

func (d *editDecoder) bytes() ([]byte, error) {
	v, n := encoding.GetLengthPrefixed(d.b)
	if n == 0 {
		return nil, ErrCorruptEdit
	}
	d.b = d.b[n:]
	return append([]byte(nil), v...), nil
}

func (d *editDecoder) slice() (Slice, error) {
	var s Slice
	var err error
	if s.FrozenNum, err = d.uvarint(); err != nil {
		return s, err
	}
	if s.Range.Lo, err = d.bytes(); err != nil {
		return s, err
	}
	if s.Range.Hi, err = d.bytes(); err != nil {
		return s, err
	}
	if s.LinkSeq, err = d.uvarint(); err != nil {
		return s, err
	}
	b, err := d.uvarint()
	if err != nil {
		return s, err
	}
	s.Bytes = int64(b)
	return s, nil
}

// DecodeEdit parses one MANIFEST record.
func DecodeEdit(data []byte) (*Edit, error) {
	d := editDecoder{b: data}
	e := &Edit{}
	for len(d.b) > 0 {
		tag, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagComparer:
			name, err := d.bytes()
			if err != nil {
				return nil, err
			}
			e.ComparerName = string(name)
		case tagLogNum:
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			e.SetLogNum(v)
		case tagNextFileNum:
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			e.SetNextFileNum(v)
		case tagLastSeq:
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			e.SetLastSeq(keys.Seq(v))
		case tagNextLinkSeq:
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			e.SetNextLinkSeq(v)
		case tagCompactPointer:
			lvl, err := d.level()
			if err != nil {
				return nil, err
			}
			k, err := d.bytes()
			if err != nil {
				return nil, err
			}
			e.CompactPointers = append(e.CompactPointers,
				CompactPointer{Level: lvl, Key: k})
		case tagDeletedFile:
			lvl, err := d.level()
			if err != nil {
				return nil, err
			}
			num, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			e.DeleteFile(lvl, num)
		case tagNewFile:
			lvl, err := d.level()
			if err != nil {
				return nil, err
			}
			fm := &FileMeta{}
			if fm.Num, err = d.uvarint(); err != nil {
				return nil, err
			}
			sz, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			fm.Size = int64(sz)
			s, err := d.bytes()
			if err != nil {
				return nil, err
			}
			fm.Smallest = s
			l, err := d.bytes()
			if err != nil {
				return nil, err
			}
			fm.Largest = l
			nSlices, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			for i := uint64(0); i < nSlices; i++ {
				sl, err := d.slice()
				if err != nil {
					return nil, err
				}
				fm.Slices = append(fm.Slices, sl)
			}
			e.AddFile(lvl, fm)
		case tagFrozenFile:
			fm := &FrozenMeta{}
			var err error
			if fm.Num, err = d.uvarint(); err != nil {
				return nil, err
			}
			sz, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			fm.Size = int64(sz)
			s, err := d.bytes()
			if err != nil {
				return nil, err
			}
			fm.Smallest = s
			l, err := d.bytes()
			if err != nil {
				return nil, err
			}
			fm.Largest = l
			e.FreezeFile(fm)
		case tagNewSlice:
			lvl, err := d.level()
			if err != nil {
				return nil, err
			}
			num, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			sl, err := d.slice()
			if err != nil {
				return nil, err
			}
			e.AddSlice(lvl, num, sl)
		default:
			return nil, fmt.Errorf("%w: unknown tag %d", ErrCorruptEdit, tag)
		}
	}
	return e, nil
}
