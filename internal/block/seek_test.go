package block

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refSeekGE is the seek SeekGE replaced, kept as the reference: it decodes
// every restart key the binary search looks at into it.key and compares the
// copy.
func refSeekGE(it *Iter, target []byte) {
	if it.err != nil {
		return
	}
	lo, hi := 0, it.r.numRestarts-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		it.seekRestart(mid)
		if it.err != nil {
			return
		}
		if it.r.cmp(it.key, target) <= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.seekRestart(lo)
	for it.Valid() && it.r.cmp(it.key, target) < 0 {
		it.Next()
	}
}

// trailerCmp orders keys the way the engine orders internal keys — user key
// ascending, then the 8-byte trailer descending — without assuming, as the
// real comparer does, that a key is long enough to have a trailer: the keys
// of a damaged block are whatever the damage made them.
func trailerCmp(a, b []byte) int {
	if len(a) < 8 || len(b) < 8 {
		return bytes.Compare(a, b)
	}
	if c := bytes.Compare(a[:len(a)-8], b[:len(b)-8]); c != 0 {
		return c
	}
	at, bt := binary.LittleEndian.Uint64(a[len(a)-8:]), binary.LittleEndian.Uint64(b[len(b)-8:])
	switch {
	case at > bt:
		return -1
	case at < bt:
		return +1
	}
	return 0
}

func trailerKey(ukey string, seq uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte(ukey), seq<<8|1)
}

// seekBlock builds a block of n entries from rng: user keys over a small
// alphabet, so that neighbours share prefixes, the empty key among them, and
// up to three versions of a user key with descending sequence numbers. It
// returns the encoded block, its keys in order, and seek targets: every key,
// and for each a target just below and just above it — together they fall
// below the first entry, between entries, on entries and above the last.
func seekBlock(rng *rand.Rand, interval, n int) (enc []byte, keys, targets [][]byte) {
	users := map[string]bool{}
	if rng.Intn(2) == 0 {
		users[""] = true
	}
	for len(users) < n {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = "abc"[rng.Intn(3)]
		}
		users[string(b)] = true
	}
	sorted := make([]string, 0, len(users))
	for u := range users {
		sorted = append(sorted, u)
	}
	sort.Strings(sorted)
	w := &Writer{Interval: interval}
	for _, u := range sorted {
		seq := uint64(rng.Intn(1000) + 10)
		for v := rng.Intn(3); v >= 0 && len(keys) < n; v-- {
			k := trailerKey(u, seq)
			seq -= uint64(rng.Intn(3) + 1)
			val := make([]byte, rng.Intn(40))
			rng.Read(val)
			w.Add(k, val)
			keys = append(keys, k)
			targets = append(targets, k, trailerKey(u, seq+1000), trailerKey(u+"\x00", seq))
		}
	}
	targets = append(targets, trailerKey("", 1<<40), trailerKey("d", 0), nil)
	return bytes.Clone(w.Finish()), keys, targets
}

// checkSeekMatchesReference seeks every target with SeekGE and with the
// reference, each on an iterator of its own, and requires the same outcome:
// the same entry, key and value bytes, or both past the end.
func checkSeekMatchesReference(t *testing.T, enc []byte, targets [][]byte) {
	t.Helper()
	r, err := NewReader(trailerCmp, enc)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var got, want Iter
	got.Init(r)
	want.Init(r)
	for _, target := range targets {
		got.SeekGE(target)
		refSeekGE(&want, target)
		if got.Error() != nil || want.Error() != nil {
			t.Fatalf("SeekGE(%q) on an intact block: %v, reference %v", target, got.Error(), want.Error())
		}
		if got.Valid() != want.Valid() {
			t.Fatalf("SeekGE(%q) valid=%v, reference %v", target, got.Valid(), want.Valid())
		}
		if got.Valid() && (!bytes.Equal(got.Key(), want.Key()) || !bytes.Equal(got.Value(), want.Value()) || got.offset != want.offset) {
			t.Fatalf("SeekGE(%q) at %q=%x (offset %d), reference %q=%x (offset %d)",
				target, got.Key(), got.Value(), got.offset, want.Key(), want.Value(), want.offset)
		}
	}
}

// checkSeekSurvivesDamage seeks a block that may be damaged: whatever the
// bytes, a seek ends in the corrupt-entry error or on a position whose key
// and value can be read, and so does a walk on from there. EachRestart, too,
// ends in that error or in entries it can hand out.
func checkSeekSurvivesDamage(t *testing.T, enc []byte, targets [][]byte) {
	t.Helper()
	r, err := NewReader(trailerCmp, enc)
	if err != nil {
		return // the trailer took the damage
	}
	if err := r.EachRestart(func(keyAt int, key, value []byte) error {
		if keyAt < 0 || keyAt+len(key) > len(enc) || !bytes.Equal(enc[keyAt:keyAt+len(key)], key) {
			t.Fatalf("EachRestart reports a %d-byte key at offset %d of a %d-byte block, which holds other bytes there", len(key), keyAt, len(enc))
		}
		return nil
	}); err != nil && !strings.HasPrefix(err.Error(), "block: corrupt entry") {
		t.Fatalf("EachRestart on a damaged block: %v", err)
	}
	var it Iter
	for _, target := range targets {
		it.Init(r)
		it.SeekGE(target)
		for steps := 0; it.Valid() && steps < 4; steps++ {
			_, _ = it.Key(), it.Value()
			it.Next()
		}
		if err := it.Error(); err != nil && !strings.HasPrefix(err.Error(), "block: corrupt entry") {
			t.Fatalf("SeekGE(%q) on a damaged block: %v", target, err)
		}
	}
}

func TestSeekGEMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for _, interval := range []int{1, 2, 16} {
			rng := rand.New(rand.NewSource(seed))
			enc, _, targets := seekBlock(rng, interval, 1+rng.Intn(60))
			checkSeekMatchesReference(t, enc, targets)
		}
	}
}

func TestSeekGEOnDamagedBlock(t *testing.T) {
	for _, interval := range []int{1, 2, 16} {
		enc, _, targets := seekBlock(rand.New(rand.NewSource(int64(interval))), interval, 24)
		for i := range enc {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				enc[i] ^= mask
				checkSeekSurvivesDamage(t, enc, targets)
				enc[i] ^= mask
			}
		}
	}
}

// FuzzBlockSeekGE: on an intact block SeekGE and the reference land on the
// same entry for the fuzzer's target as for the built ones; with one byte of
// the block changed, SeekGE errs or lands somewhere readable.
func FuzzBlockSeekGE(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(10), []byte("ab"), uint16(0), uint8(0))
	f.Add(int64(2), uint8(2), uint8(40), []byte{}, uint16(7), uint8(0x80))
	f.Add(int64(3), uint8(16), uint8(60), trailerKey("abc", 5), uint16(300), uint8(0xff))
	f.Fuzz(func(t *testing.T, seed int64, interval, n uint8, target []byte, flipAt uint16, flipMask uint8) {
		enc, _, targets := seekBlock(rand.New(rand.NewSource(seed)), int(interval%17), 1+int(n%64))
		targets = append(targets, target)
		checkSeekMatchesReference(t, enc, targets)
		if flipMask != 0 {
			enc[int(flipAt)%len(enc)] ^= flipMask
			checkSeekSurvivesDamage(t, enc, targets)
		}
	})
}
