// Package batch implements the atomic write batch: the unit of WAL logging
// and memtable application. Its wire encoding (sequence, count, then one
// tagged entry per operation) is exactly what is written as a WAL record,
// so recovery replays batches byte-for-byte.
//
//	header:  fixed64 sequence | fixed32 count
//	entry:   kind byte | varint-len key [| varint-len value]   (value iff Set)
package batch

import (
	"errors"
	"fmt"

	"repro/internal/encoding"
	"repro/internal/invariants"
	"repro/internal/keys"
)

const headerLen = 12

// ErrCorrupt reports a malformed batch encoding.
var ErrCorrupt = errors.New("batch: corrupt encoding")

// Batch collects operations to apply atomically.
type Batch struct {
	data  []byte
	count uint32
}

// New returns an empty batch.
func New() *Batch {
	return &Batch{data: make([]byte, headerLen)}
}

func (b *Batch) init() {
	if len(b.data) == 0 {
		b.data = make([]byte, headerLen)
	}
}

// Set records a key/value insertion.
func (b *Batch) Set(key, value []byte) {
	b.init()
	b.data = append(b.data, byte(keys.KindSet))
	b.data = encoding.PutLengthPrefixed(b.data, key)
	b.data = encoding.PutLengthPrefixed(b.data, value)
	b.count++
}

// Delete records a tombstone for key.
func (b *Batch) Delete(key []byte) {
	b.init()
	b.data = append(b.data, byte(keys.KindDelete))
	b.data = encoding.PutLengthPrefixed(b.data, key)
	b.count++
}

// SetBlobRef records a value-log pointer entry: the value payload is the
// encoded pointer (segment, offset, length), not the user value.
func (b *Batch) SetBlobRef(key, ptr []byte) {
	b.init()
	b.data = append(b.data, byte(keys.KindBlobRef))
	b.data = encoding.PutLengthPrefixed(b.data, key)
	b.data = encoding.PutLengthPrefixed(b.data, ptr)
	b.count++
}

// SetBlobRewrite records a guarded vlog GC pointer rewrite. The value
// payload is the guard sequence followed by the new pointer; commit applies
// it as a KindBlobRef only if the key has not been written past the guard
// sequence, and WAL replay always drops it.
func (b *Batch) SetBlobRewrite(key []byte, readSeq keys.Seq, ptr []byte) {
	b.init()
	b.data = append(b.data, byte(keys.KindBlobRewrite))
	b.data = encoding.PutLengthPrefixed(b.data, key)
	payload := make([]byte, 0, 8+len(ptr))
	payload = encoding.PutFixed64(payload, uint64(readSeq))
	payload = append(payload, ptr...)
	b.data = encoding.PutLengthPrefixed(b.data, payload)
	b.count++
}

// Count reports the number of operations.
func (b *Batch) Count() int { return int(b.count) }

// Empty reports whether the batch has no operations.
func (b *Batch) Empty() bool { return b.count == 0 }

// Size reports the encoded size in bytes.
func (b *Batch) Size() int {
	b.init()
	return len(b.data)
}

// Reset clears the batch for reuse. Slices handed out by Encode and Each
// are dead from here on; under -tags invariants the cleared payload is
// overwritten so a caller that kept one reads 0xDD, not the next batch.
func (b *Batch) Reset() {
	b.init()
	if invariants.Enabled {
		for i := headerLen; i < len(b.data); i++ {
			b.data[i] = 0xDD
		}
	}
	b.data = b.data[:headerLen]
	b.count = 0
}

// SetSequence stamps the batch with its first sequence number; operation i
// gets sequence seq+i.
func (b *Batch) SetSequence(seq keys.Seq) {
	b.init()
	encoding.PutFixed64(b.data[:0], uint64(seq))
}

// Sequence returns the stamped first sequence number.
func (b *Batch) Sequence() keys.Seq {
	b.init()
	return keys.Seq(encoding.Fixed64(b.data))
}

// Encode finalizes the header and returns the wire bytes. The slice aliases
// the batch; it is valid until the next mutation.
func (b *Batch) Encode() []byte {
	b.init()
	encoding.PutFixed32(b.data[8:8], b.count)
	return b.data
}

// Decode parses wire bytes (e.g. a recovered WAL record) into a batch. The
// input is retained.
func Decode(data []byte) (*Batch, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	b := &Batch{data: data, count: encoding.Fixed32(data[8:])}
	// Validate by walking all entries.
	n := 0
	err := b.Each(func(kind keys.Kind, key, value []byte) error {
		n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n != int(b.count) {
		return nil, fmt.Errorf("%w: header count %d, found %d entries", ErrCorrupt, b.count, n)
	}
	return b, nil
}

// Each invokes fn for every operation in order. It stops on the first error.
func (b *Batch) Each(fn func(kind keys.Kind, key, value []byte) error) error {
	b.init()
	p := b.data[headerLen:]
	for len(p) > 0 {
		kind := keys.Kind(p[0])
		switch kind {
		case keys.KindSet, keys.KindDelete, keys.KindBlobRef, keys.KindBlobRewrite:
		default:
			return fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
		}
		p = p[1:]
		key, n := encoding.GetLengthPrefixed(p)
		if n == 0 {
			return fmt.Errorf("%w: truncated key", ErrCorrupt)
		}
		p = p[n:]
		var value []byte
		if kind != keys.KindDelete {
			var vn int
			value, vn = encoding.GetLengthPrefixed(p)
			if vn == 0 {
				return fmt.Errorf("%w: truncated value", ErrCorrupt)
			}
			if kind == keys.KindBlobRewrite && len(value) < 8 {
				return fmt.Errorf("%w: rewrite payload of %d bytes has no guard sequence", ErrCorrupt, len(value))
			}
			p = p[vn:]
		}
		if err := fn(kind, key, value); err != nil {
			return err
		}
	}
	return nil
}

// Append concatenates other's operations onto b.
func (b *Batch) Append(other *Batch) {
	b.init()
	other.init()
	b.data = append(b.data, other.data[headerLen:]...)
	b.count += other.count
}
