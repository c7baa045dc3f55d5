// Package ycsb reimplements the YCSB workload machinery the paper
// evaluates with: key generators (uniform and Zipfian, including the large
// Zipf constants of Fig 11), the paper's workload mixes (Table III), and a
// runner that drives a store while recording latency histograms, per-second
// timelines, and throughput.
package ycsb

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Generator produces item indexes in [0, n).
type Generator interface {
	// Next returns the next item index.
	Next() int64
}

// NewUniform returns a uniform generator over [0, n).
func NewUniform(rng *rand.Rand, n int64) Generator {
	return &uniformGen{rng: rng, n: n}
}

type uniformGen struct {
	rng *rand.Rand
	n   int64
}

func (u *uniformGen) Next() int64 { return u.rng.Int63n(u.n) }

// NewZipfian returns a Zipfian generator over [0, n) with the given
// constant (theta). Item ranks are scrambled across the key space, as in
// YCSB's ScrambledZipfianGenerator, so popular keys are spread out rather
// than clustered at the low end.
//
// Two samplers cover the full constant range: the Gray et al. algorithm
// YCSB uses for theta < 1, and the stdlib's rejection sampler (math/rand
// Zipf) for theta > 1 — the paper's Fig 11 sweeps constants 1, 2, and 5.
func NewZipfian(rng *rand.Rand, n int64, theta float64) Generator {
	if theta >= 0.999 {
		s := theta
		if s < 1.001 {
			s = 1.001
		}
		return &stdZipfGen{z: rand.NewZipf(rng, s, 1, uint64(n-1)), n: n}
	}
	return newGrayZipf(rng, n, theta)
}

// stdZipfGen wraps math/rand's Zipf (valid for s > 1) with rank scrambling.
type stdZipfGen struct {
	z *rand.Zipf
	n int64
}

func (g *stdZipfGen) Next() int64 { return scramble(int64(g.z.Uint64()), g.n) }

// grayZipf is the classic YCSB zipfian sampler (Gray et al., "Quickly
// generating billion-record synthetic databases"), valid for theta < 1.
type grayZipf struct {
	rng               *rand.Rand
	n                 int64
	theta             float64
	alpha, zetan, eta float64
	zeta2             float64
}

func newGrayZipf(rng *rand.Rand, n int64, theta float64) *grayZipf {
	g := &grayZipf{rng: rng, n: n, theta: theta}
	g.zeta2 = zetaStatic(2, theta)
	g.zetan = zetaStatic(n, theta)
	g.alpha = 1.0 / (1.0 - theta)
	g.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - g.zeta2/g.zetan)
	return g
}

func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func (g *grayZipf) Next() int64 {
	u := g.rng.Float64()
	uz := u * g.zetan
	var rank int64
	switch {
	case uz < 1.0:
		rank = 0
	case uz < 1.0+math.Pow(0.5, g.theta):
		rank = 1
	default:
		rank = int64(float64(g.n) * math.Pow(g.eta*u-g.eta+1, g.alpha))
	}
	if rank >= g.n {
		rank = g.n - 1
	}
	return scramble(rank, g.n)
}

// scramble hashes a rank into the item space so hot items are spread out.
func scramble(rank, n int64) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(rank >> (8 * i))
	}
	h.Write(buf[:])
	return int64(h.Sum64() % uint64(n))
}

// Key renders item index i as the paper's 16-byte key.
func Key(i int64) []byte {
	return []byte(fmt.Sprintf("u%015d", i))
}

// Value builds a deterministic pseudo-random value of the given size
// (the paper uses 1 KiB). The bytes are xorshift output — incompressible by
// construction, the worst case for any block codec.
func Value(i int64, size int) []byte {
	v := make([]byte, size)
	fillRandom(v, uint64(i))
	return v
}

// CompressibleValue builds a deterministic value whose leading
// (1-ratio)·size bytes are pseudo-random and whose tail is a repeated
// 32-byte fragment, giving block codecs roughly the requested fraction of
// redundancy. ratio is clamped to [0, 1]; 0 degenerates to Value. Real
// stored data (JSON, URLs, log lines) sits between the two extremes, which
// is what the format benchmarks sweep.
func CompressibleValue(i int64, size int, ratio float64) []byte {
	if ratio <= 0 {
		return Value(i, size)
	}
	if ratio > 1 {
		ratio = 1
	}
	v := make([]byte, size)
	randLen := int(float64(size) * (1 - ratio))
	fillRandom(v[:randLen], uint64(i))
	// The repeated fragment varies per key (so cross-value dedup is not the
	// thing being measured) but tiles within the value.
	var frag [32]byte
	fillRandom(frag[:], uint64(i)^0xa076_1d64_78bd_642f)
	for j := randLen; j < size; j++ {
		v[j] = frag[(j-randLen)%len(frag)]
	}
	return v
}

// fillRandom fills v with xorshift64 output seeded deterministically.
func fillRandom(v []byte, seed uint64) {
	state := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for j := range v {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		v[j] = byte(state)
	}
}
