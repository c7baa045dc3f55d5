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
// GC that never collects, triggers that stop writes before slowing them).
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
		{"L0CompactionTrigger", int64(o.L0CompactionTrigger)},
		{"L0SlowdownTrigger", int64(o.L0SlowdownTrigger)},
		{"L0StopTrigger", int64(o.L0StopTrigger)},
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

	// Relational checks run on the defaulted view, so setting one trigger
	// explicitly cannot silently invert the ladder against a default.
	d := o.withDefaults()
	if d.L0CompactionTrigger > d.L0SlowdownTrigger {
		return fmt.Errorf("%w: L0CompactionTrigger %d exceeds L0SlowdownTrigger %d",
			ErrInvalidOptions, d.L0CompactionTrigger, d.L0SlowdownTrigger)
	}
	if d.L0SlowdownTrigger > d.L0StopTrigger {
		return fmt.Errorf("%w: L0SlowdownTrigger %d exceeds L0StopTrigger %d",
			ErrInvalidOptions, d.L0SlowdownTrigger, d.L0StopTrigger)
	}
	if int64(d.BlockSize) > d.SSTableSize {
		return fmt.Errorf("%w: BlockSize %d exceeds SSTableSize %d",
			ErrInvalidOptions, d.BlockSize, d.SSTableSize)
	}
	// Value-separation knobs. A threshold above the table size is
	// self-defeating (every value that could fill a table is already out of
	// the tree); a GC threshold outside (0,1] — NaN included, which every
	// comparison would wave through — either never collects or demands more
	// than all bytes dead. Explicit GC tuning with separation disabled is
	// almost certainly a typo'd config, so reject it rather than silently
	// never separating.
	if o.BlobThreshold > d.SSTableSize {
		return fmt.Errorf("%w: BlobThreshold %d exceeds SSTableSize %d",
			ErrInvalidOptions, o.BlobThreshold, d.SSTableSize)
	}
	if o.BlobGCThreshold != 0 && !(o.BlobGCThreshold > 0 && o.BlobGCThreshold <= 1) {
		return fmt.Errorf("%w: BlobGCThreshold %v outside (0, 1]",
			ErrInvalidOptions, o.BlobGCThreshold)
	}
	if o.BlobThreshold == 0 && o.BlobGCThreshold != 0 {
		return fmt.Errorf("%w: BlobGCThreshold %v set while BlobThreshold is 0 (value separation disabled)",
			ErrInvalidOptions, o.BlobGCThreshold)
	}
	if o.BlobThreshold > 0 && o.BlobSegmentSize > 0 && o.BlobSegmentSize < o.BlobThreshold {
		return fmt.Errorf("%w: BlobSegmentSize %d is below BlobThreshold %d (a segment could not hold one value)",
			ErrInvalidOptions, o.BlobSegmentSize, o.BlobThreshold)
	}
	return nil
}
