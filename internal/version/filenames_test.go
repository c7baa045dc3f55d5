package version

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"
)

// TestFileNamesMatchPrintf pins the one-pass names to the fmt and filepath
// form they replace, byte for byte, at the padding edges and the largest
// number, in clean and uncleaned directories; and each name parses back to
// its type and number.
func TestFileNamesMatchPrintf(t *testing.T) {
	nums := []uint64{0, 7, 999_999, 1_000_000, math.MaxUint64}
	dirs := []string{"/db", "db", "/db/shard-1", "", ".", "/", "db/", "./db", "/a/../b", "a//b"}
	for _, dir := range dirs {
		for _, num := range nums {
			for _, tc := range []struct {
				got, want string
				typ       FileType
			}{
				{TableFileName(dir, num), filepath.Join(dir, fmt.Sprintf("%06d.sst", num)), TypeTable},
				{LogFileName(dir, num), filepath.Join(dir, fmt.Sprintf("%06d.log", num)), TypeLog},
				{ManifestFileName(dir, num), filepath.Join(dir, fmt.Sprintf("MANIFEST-%06d", num)), TypeManifest},
				{TempFileName(dir, num), filepath.Join(dir, fmt.Sprintf("%06d.tmp", num)), TypeTemp},
			} {
				if tc.got != tc.want {
					t.Errorf("dir %q num %d: %q, want %q", dir, num, tc.got, tc.want)
				}
				if typ, n := ParseFileName(filepath.Base(tc.got)); typ != tc.typ || n != num {
					t.Errorf("%q parses as %v %d, want %v %d", tc.got, typ, n, tc.typ, num)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = TableFileName("/db/shard-0", 123456) }); allocs != 1 {
		t.Errorf("TableFileName allocates %.0f times, want 1", allocs)
	}
}
