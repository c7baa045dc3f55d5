package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// samples holds every latency of one class exactly, in nanoseconds. The
// repo's histogram has geometric buckets, which would quantise a percentile
// to the same value run after run; exact order statistics do not.
type samples struct {
	ns     []uint32
	sorted bool
}

func newSamples(capacity int64) *samples { return &samples{ns: make([]uint32, 0, capacity)} }

func (s *samples) add(d time.Duration) {
	if d > math.MaxUint32 {
		d = math.MaxUint32 // 4.29 s; nothing here is that slow
	}
	s.ns = append(s.ns, uint32(d))
	s.sorted = false
}

func (s *samples) n() int { return len(s.ns) }

func (s *samples) merge(o *samples) {
	s.ns = append(s.ns, o.ns...)
	s.sorted = false
}

func (s *samples) sort() {
	if !s.sorted {
		slices.Sort(s.ns)
		s.sorted = true
	}
}

// percentileUS returns the p-th percentile in microseconds, linearly
// interpolated between the two nearest order statistics.
func (s *samples) percentileUS(p float64) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	s.sort()
	pos := p / 100 * float64(len(s.ns)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(s.ns) {
		hi = len(s.ns) - 1
	}
	frac := pos - float64(lo)
	return (float64(s.ns[lo])*(1-frac) + float64(s.ns[hi])*frac) / 1e3
}

// bandUS returns the mean, in microseconds, of the order statistics whose
// percentile rank lies within half of p: bandUS(97.5, 2.4) averages p95.1 to
// p99.9. The end-to-end p50 and p99 metrics are band means. On the
// simulated device an op either sleeps for a millisecond or more or does not
// sleep at all, so latency distributions are bimodal, and a single order
// statistic that lands on the cliff between the modes moves several-fold
// when the slow share moves by a tenth of a point (mixed_rwb's plain put p99
// read 135 to 925 us over ten seeds). A band mean moves in proportion to the
// slow share; away from a cliff it agrees with the order statistic.
func (s *samples) bandUS(p, half float64) float64 {
	n := len(s.ns)
	if n == 0 {
		return 0
	}
	s.sort()
	lo := int((p - half) / 100 * float64(n))
	hi := int((p+half)/100*float64(n)) + 1
	lo, hi = max(lo, 0), min(hi, n)
	var sum int64
	for _, v := range s.ns[lo:hi] {
		sum += int64(v)
	}
	return float64(sum) / float64(hi-lo) / 1e3
}

// p50US and p99US are the end-to-end metrics' percentiles. The p50 is the
// interquartile mean, p25 to p75: mixed_rwb's scans sleep on the device from
// about their 60th percentile up, and a p45-to-p55 band crossed that cliff
// in some runs and not in others (653 us +-9 % over eight seeds, the
// interquartile mean 857 us +-3.5 %). The p99 is the tail mean, p95.1 to
// p99.9: it holds three times the samples of a p98.2-to-p99.8 band, leaves
// out the few slowest ops, which belong to the host, and repeated within 2 %
// on fill_wo where that narrower band moved 5.5 %.
func (s *samples) p50US() float64 { return s.bandUS(50, 25) }
func (s *samples) p99US() float64 { return s.bandUS(97.5, 2.4) }

func (s *samples) maxUS() float64 {
	if len(s.ns) == 0 {
		return 0
	}
	s.sort()
	return float64(s.ns[len(s.ns)-1]) / 1e3
}

// slowerThanPct is the share, in percent, of samples above limit.
func (s *samples) slowerThanPct(limit time.Duration) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	s.sort()
	i := sort.Search(len(s.ns), func(i int) bool { return time.Duration(s.ns[i]) > limit })
	return 100 * float64(len(s.ns)-i) / float64(len(s.ns))
}

func (s *samples) sumNS() (sum int64) {
	for _, v := range s.ns {
		sum += int64(v)
	}
	return sum
}

// sliceMedianUS is the p50 (as p50US defines it) of one slice of a client's
// latencies, which stay in arrival order until the run is folded.
func sliceMedianUS(ns []uint32) float64 {
	s := samples{ns: slices.Clone(ns)}
	return s.p50US()
}

// quantile returns the q-th quantile (0 to 1) of v, linearly interpolated;
// 0 for an empty v. It sorts v in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	hi := min(lo+1, len(v)-1)
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[hi]*frac
}

// timeline accumulates mean latency per fixed slot of wall time; the ratio
// of its highest to its lowest slot mean is the paper's Fig 1 fluctuation
// factor.
type timeline struct {
	slot time.Duration
	sum  []int64
	cnt  []int64
}

func newTimeline(slot time.Duration) *timeline { return &timeline{slot: slot} }

func (t *timeline) add(sinceStart, d time.Duration) {
	i := int(sinceStart / t.slot)
	for len(t.sum) <= i {
		t.sum = append(t.sum, 0)
		t.cnt = append(t.cnt, 0)
	}
	t.sum[i] += int64(d)
	t.cnt[i]++
}

func (t *timeline) merge(o *timeline) {
	for i := range o.sum {
		for len(t.sum) <= i {
			t.sum = append(t.sum, 0)
			t.cnt = append(t.cnt, 0)
		}
		t.sum[i] += o.sum[i]
		t.cnt[i] += o.cnt[i]
	}
}

// fluctuation is max ÷ min of the slot means, over non-empty slots.
func (t *timeline) fluctuation() float64 {
	lo, hi := math.Inf(1), 0.0
	for i, n := range t.cnt {
		if n == 0 {
			continue
		}
		m := float64(t.sum[i]) / float64(n)
		lo, hi = math.Min(lo, m), math.Max(hi, m)
	}
	if hi == 0 || math.IsInf(lo, 1) || lo == 0 {
		return 0
	}
	return hi / lo
}
