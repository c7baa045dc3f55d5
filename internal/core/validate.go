package core

import (
	"errors"
	"fmt"

	"repro/internal/compaction"
)

// ErrInvalidOptions tags every configuration rejection; callers test for it
// with errors.Is and read the wrapped detail for the specific field.
var ErrInvalidOptions = errors.New("ldc: invalid options")

// Validate rejects nonsensical configurations before they turn into
// confusing runtime behaviour (a table smaller than its block, a value-log
// segment that cannot hold one value).
// Zero values mean "use the default" throughout Options, so Validate rejects
// explicit negatives and relations that are inconsistent after defaulting.
// Open calls it; so does the server's config validation.
func (o Options) Validate() error {
	type field struct {
		name string
		v    int64
	}
	for _, f := range []field{
		{"MemTableSize", o.MemTableSize},
		{"SSTableSize", o.SSTableSize},
		{"Fanout", int64(o.Fanout)},
		{"SliceLinkThreshold", int64(o.SliceLinkThreshold)},
		{"BlockSize", int64(o.BlockSize)},
		{"BlockCacheSize", o.BlockCacheSize},
		{"Shards", int64(o.Shards)},
		{"BlobThreshold", o.BlobThreshold},
		{"BlobSegmentSize", o.BlobSegmentSize},
	} {
		// BloomBitsPerKey is deliberately absent: negative there means
		// "disable filters".
		if f.v < 0 {
			return fmt.Errorf("%w: %s is negative (%d); use 0 for the default", ErrInvalidOptions, f.name, f.v)
		}
	}
	// Enums, not sizes. An unknown policy must not quietly run as UDC; a
	// format value outside the registry would be stamped into on-disk
	// trailers/footers and make the table unreadable, so reject it here
	// rather than at the first flush.
	if o.Policy != compaction.UDC && o.Policy != compaction.LDC {
		return fmt.Errorf("%w: unknown Policy %d (use compaction.UDC or LDC)", ErrInvalidOptions, int(o.Policy))
	}
	if !o.Compression.Valid() {
		return fmt.Errorf("%w: unsupported Compression %v (use compress.None or LZ4)",
			ErrInvalidOptions, o.Compression)
	}

	// Relational checks run on the defaulted view, so setting one size
	// explicitly cannot silently invert a relation against a default.
	d := o.withDefaults()
	if int64(d.BlockSize) > d.SSTableSize {
		return fmt.Errorf("%w: BlockSize %d exceeds SSTableSize %d",
			ErrInvalidOptions, d.BlockSize, d.SSTableSize)
	}
	// Value-separation knobs. A threshold above the table size is
	// self-defeating: every value that could fill a table is already out of
	// the tree.
	if o.BlobThreshold > d.SSTableSize {
		return fmt.Errorf("%w: BlobThreshold %d exceeds SSTableSize %d",
			ErrInvalidOptions, o.BlobThreshold, d.SSTableSize)
	}
	if o.BlobThreshold > 0 && o.BlobSegmentSize > 0 && o.BlobSegmentSize < o.BlobThreshold {
		return fmt.Errorf("%w: BlobSegmentSize %d is below BlobThreshold %d (a segment could not hold one value)",
			ErrInvalidOptions, o.BlobSegmentSize, o.BlobThreshold)
	}
	return nil
}
