package checksum

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

func TestCRC32CMatchesStdlib(t *testing.T) {
	table := crc32.MakeTable(crc32.Castagnoli)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 64, 4096} {
		data := make([]byte, n)
		rng.Read(data)
		want := crc32.Update(crc32.Checksum(data, table), table, []byte{0x02})
		if got := Sum(CRC32C, data, 0x02); got != want {
			t.Errorf("len %d: Sum=%08x stdlib=%08x", n, got, want)
		}
	}
}

func TestSumCoversTrailingByte(t *testing.T) {
	data := []byte("block contents")
	if Sum(CRC32C, data, 0) == Sum(CRC32C, data, 1) {
		t.Error("trailing byte not covered")
	}
}

func TestSumSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 4096)
	rng.Read(data)
	base := Sum(CRC32C, data, 0)
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(len(data))
		bit := byte(1) << uint(rng.Intn(8))
		data[i] ^= bit
		if Sum(CRC32C, data, 0) == base {
			t.Errorf("flip of bit %d at byte %d undetected", bit, i)
		}
		data[i] ^= bit
	}
}

// TestKindStrings: the removed kind keeps its name, so the error that
// rejects a table written with it says what the table needs.
func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{CRC32C: "crc32c", 1: "xxh3 (removed)", 200: "checksum(200)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func BenchmarkSum4K(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(9)).Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Sum(CRC32C, data, 0)
	}
}
