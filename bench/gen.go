package main

import (
	"bytes"
	"math/rand"

	"repro/internal/ycsb"
)

// The engine sees only generated keys and values. Keys are the paper's
// 16-byte form ("u" + 15 decimal digits, so numeric order is byte order);
// a value is a pure function of (key index, version), which is what lets an
// oracle that stores one version number per key check every answer exactly.

const keyLen = 16

// putKey renders key index idx into dst[:keyLen] without allocating.
func putKey(dst []byte, idx int64) {
	dst[0] = 'u'
	for i := keyLen - 1; i >= 1; i-- {
		dst[i] = byte('0' + idx%10)
		idx /= 10
	}
}

// keyIndex parses a key rendered by putKey; ok is false for anything else.
func keyIndex(key []byte) (idx int64, ok bool) {
	if len(key) != keyLen || key[0] != 'u' {
		return 0, false
	}
	for _, c := range key[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + int64(c-'0')
	}
	return idx, true
}

// mix64 is splitmix64's finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillValue fills dst with the incompressible value of (idx, ver).
func fillValue(dst []byte, idx int64, ver uint32) {
	state := mix64(uint64(idx)<<32 | uint64(ver))
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		state = mix64(state)
		dst[i], dst[i+1], dst[i+2], dst[i+3] = byte(state), byte(state>>8), byte(state>>16), byte(state>>24)
		dst[i+4], dst[i+5], dst[i+6], dst[i+7] = byte(state>>32), byte(state>>40), byte(state>>48), byte(state>>56)
	}
	for state = mix64(state); i < len(dst); i++ {
		dst[i] = byte(state)
		state >>= 8
	}
}

// valueSizer gives the size of the value of (idx, ver).
type valueSizer func(idx int64, ver uint32) int

func fixedSize(n int) valueSizer { return func(int64, uint32) int { return n } }

// smallMostly is served_durable's mix: 90 % small values that stay in the
// tree, 10 % large ones that cross BlobThreshold into the value log.
func smallMostly(small, large int) valueSizer {
	return func(idx int64, ver uint32) int {
		if mix64(uint64(idx)*31+uint64(ver))%10 == 0 {
			return large
		}
		return small
	}
}

// oracle is the exact expected state: ver[idx] is the number of times key
// idx has been written (0 = absent). Clients own disjoint key parities, so
// each touches only its own slots and the slice needs no lock.
type oracle struct {
	ver  []uint32
	size valueSizer
	buf  []byte // scratch for the expected value; one oracle view per client
}

// view returns an oracle sharing o's versions with its own scratch buffer.
func (o *oracle) view() *oracle { return &oracle{ver: o.ver, size: o.size} }

// value returns the value of (idx, ver). The result aliases o.buf.
func (o *oracle) value(idx int64, ver uint32) []byte {
	n := o.size(idx, ver)
	if cap(o.buf) < n {
		o.buf = make([]byte, n)
	}
	o.buf = o.buf[:n]
	fillValue(o.buf, idx, ver)
	return o.buf
}

// matches reports whether got is exactly key idx's current value.
func (o *oracle) matches(idx int64, got []byte, present, full bool) bool {
	return o.matchesVer(idx, o.ver[idx], got, present, full)
}

// matchesVer reports whether got is exactly version ver of key idx (0 =
// absent). full false checks presence and length only, the cheap check
// applied to every read; full true also regenerates and compares the bytes.
func (o *oracle) matchesVer(idx int64, ver uint32, got []byte, present, full bool) bool {
	if ver == 0 || !present {
		return ver == 0 && !present
	}
	if len(got) != o.size(idx, ver) {
		return false
	}
	return !full || bytes.Equal(got, o.value(idx, ver))
}

// liveBytes sums key+value bytes over present keys: the denominator of
// space_amp.
func (o *oracle) liveBytes() (n int64) {
	for idx, ver := range o.ver {
		if ver != 0 {
			n += int64(keyLen + o.size(int64(idx), ver))
		}
	}
	return n
}

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opScan
)

func (k opKind) String() string { return [...]string{"put", "get", "scan"}[k] }

// stream is one client's op sequence: the same (seed, client) always yields
// the same ops. Client c of C draws only key indexes ≡ c (mod C).
type stream struct {
	rng            *rand.Rand
	gen            ycsb.Generator
	client, stride int64
	putBelow       float64 // P(put)
	getBelow       float64 // P(put) + P(get); the rest are scans
}

func newStream(w *workload, seed int64, client int, keys int64) *stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	own := (keys - int64(client) + int64(w.clients) - 1) / int64(w.clients)
	var gen ycsb.Generator
	if w.zipfTheta > 0 {
		gen = ycsb.NewZipfian(rng, own, w.zipfTheta)
	} else {
		gen = ycsb.NewUniform(rng, own)
	}
	return &stream{
		rng: rng, gen: gen, client: int64(client), stride: int64(w.clients),
		putBelow: w.putShare, getBelow: w.putShare + w.getShare,
	}
}

func (s *stream) next() (opKind, int64) {
	kind := opScan
	if u := s.rng.Float64(); u < s.putBelow {
		kind = opPut
	} else if u < s.getBelow {
		kind = opGet
	}
	return kind, s.gen.Next()*s.stride + s.client
}

// preloadOrder visits [0, n) in a seeded random order, so that every
// memtable of the preload spans the whole key range and the preloaded tree
// has overlapping tables, like a tree built by real traffic, whatever the
// seed. (A fixed-stride walk would be cheaper, but it degenerates into the
// disjoint runs of a sorted load for any seed whose stride falls near 0, n/2
// or n.)
func preloadOrder(n, seed int64, visit func(idx int64)) {
	for _, idx := range rand.New(rand.NewSource(seed ^ 0x70726c64)).Perm(int(n)) {
		visit(int64(idx))
	}
}
