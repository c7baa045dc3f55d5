package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/compaction"
	"repro/internal/compress"
	"repro/internal/vfs"
)

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
		want string // substring expected in the error
	}{
		{"negative MemTableSize", func(o *Options) { o.MemTableSize = -1 }, "MemTableSize"},
		{"negative SSTableSize", func(o *Options) { o.SSTableSize = -4096 }, "SSTableSize"},
		{"negative Fanout", func(o *Options) { o.Fanout = -2 }, "Fanout"},
		{"negative SliceLinkThreshold", func(o *Options) { o.SliceLinkThreshold = -1 }, "SliceLinkThreshold"},
		{"negative BlockSize", func(o *Options) { o.BlockSize = -512 }, "BlockSize"},
		{"negative BlockCacheSize", func(o *Options) { o.BlockCacheSize = -1 }, "BlockCacheSize"},
		{"block bigger than table", func(o *Options) { o.BlockSize, o.SSTableSize = 1<<20, 64<<10 }, "BlockSize"},
		{"block alone bigger than default table", func(o *Options) { o.BlockSize = 4 << 20 }, "SSTableSize"},
		{"table alone smaller than default block", func(o *Options) { o.SSTableSize = 2 << 10 }, "BlockSize"},
		{"unknown Policy", func(o *Options) { o.Policy = compaction.Policy(2) }, "Policy"},
		{"negative Policy", func(o *Options) { o.Policy = compaction.Policy(-1) }, "Policy"},
		{"unknown Compression", func(o *Options) { o.Compression = compress.Kind(3) }, "Compression"},
		{"wild Compression", func(o *Options) { o.Compression = compress.Kind(255) }, "Compression"},
		{"removed flate Compression", func(o *Options) { o.Compression = compress.Kind(1) }, "flate (removed)"},
		{"negative Shards", func(o *Options) { o.Shards = -1 }, "Shards"},
		{"wildly negative Shards", func(o *Options) { o.Shards = -64 }, "Shards"},
		{"negative BlobThreshold", func(o *Options) { o.BlobThreshold = -1 }, "BlobThreshold"},
		{"negative BlobSegmentSize", func(o *Options) { o.BlobSegmentSize = -4096 }, "BlobSegmentSize"},
		{"blob threshold above table size", func(o *Options) {
			o.SSTableSize, o.BlobThreshold = 64<<10, 128<<10
		}, "BlobThreshold"},
		{"blob threshold alone above default table size", func(o *Options) { o.BlobThreshold = 4 << 20 }, "BlobThreshold"},
		{"segment smaller than one value", func(o *Options) {
			o.BlobThreshold, o.BlobSegmentSize = 8<<10, 4<<10
		}, "BlobSegmentSize"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var o Options
			tc.mut(&o)
			err := o.Validate()
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("Validate() = %v, want ErrInvalidOptions", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			// Open must refuse the same configuration.
			o.FS = vfs.Mem()
			if _, err := Open("/bad", o); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("Open() = %v, want ErrInvalidOptions", err)
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"zero value (all defaults)", Options{}},
		{"explicit defaults", Options{
			MemTableSize: 4 << 20, SSTableSize: 2 << 20, Fanout: 10,
			BlockSize: 4 << 10, BloomBitsPerKey: 10, BlockCacheSize: 8 << 20,
		}},
		{"LDC policy", Options{Policy: compaction.LDC}},
		{"bloom disabled via negative", Options{BloomBitsPerKey: -1}},
		{"block size equal to table size", Options{BlockSize: 64 << 10, SSTableSize: 64 << 10}},
		{"lz4 blocks", Options{Compression: compress.LZ4}},
		{"one shard", Options{Shards: 1}},
		{"power-of-two shards", Options{Shards: 8}},
		{"non-power-of-two shards (rounded up)", Options{Shards: 5}},
		{"huge shards (clamped)", Options{Shards: 100000}},
		{"separation with defaults", Options{BlobThreshold: 1024}},
		{"separation fully tuned", Options{BlobThreshold: 1024, BlobSegmentSize: 4 << 20}},
		{"blob threshold equal to table size", Options{SSTableSize: 64 << 10, BlobThreshold: 64 << 10}},
		{"segment exactly one value", Options{BlobThreshold: 8 << 10, BlobSegmentSize: 8 << 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.o.Validate(); err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
		})
	}
}

// TestNormalizeShards pins the defaulting rule: non-positive means one
// shard, everything else rounds up to the next power of two and clamps at
// MaxShards (mirroring cache.ClampShards' snap-to-power-of-two behavior).
func TestNormalizeShards(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8},
		{9, 16}, {100, 128}, {256, 256}, {257, MaxShards}, {1 << 20, MaxShards},
	}
	for _, tc := range cases {
		if got := normalizeShards(tc.in); got != tc.want {
			t.Errorf("normalizeShards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	// The effective count must be observable on an open database.
	opts := smallOpts(compaction.LDC)
	opts.Shards = 3
	db, err := Open("/rounded", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.NumShards(); got != 4 {
		t.Errorf("NumShards() = %d after Shards=3, want 4 (rounded up)", got)
	}
}
