package ycsb

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
)

func TestUniformCoversSpace(t *testing.T) {
	g := NewUniform(rand.New(rand.NewSource(1)), 100)
	seen := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 95 {
		t.Errorf("uniform covered only %d/100 items", len(seen))
	}
}

func zipfSkew(t *testing.T, theta float64) float64 {
	t.Helper()
	g := NewZipfian(rand.New(rand.NewSource(2)), 10000, theta)
	counts := map[int64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		v := g.Next()
		if v < 0 || v >= 10000 {
			t.Fatalf("theta=%v: out of range %d", theta, v)
		}
		counts[v]++
	}
	// Fraction of accesses hitting the top 1% of items.
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	top := 0
	limit := len(freqs) / 100
	if limit == 0 {
		limit = 1
	}
	for i := 0; i < limit; i++ {
		top += freqs[i]
	}
	return float64(top) / n
}

func TestZipfianSkewGrowsWithTheta(t *testing.T) {
	low := zipfSkew(t, 0.5)
	mid := zipfSkew(t, 0.99)
	high := zipfSkew(t, 2)
	extreme := zipfSkew(t, 5)
	if !(low < mid && mid < high && high <= extreme) {
		t.Errorf("skew not monotone: θ0.5=%.3f θ0.99=%.3f θ2=%.3f θ5=%.3f",
			low, mid, high, extreme)
	}
	if extreme < 0.9 {
		t.Errorf("θ=5 top-1%% share = %.3f, want heavily concentrated", extreme)
	}
}

func TestKeyFormat(t *testing.T) {
	k := Key(42)
	if len(k) != 16 {
		t.Errorf("key length = %d, want 16 (paper's 16-B keys)", len(k))
	}
	if !bytes.Equal(Key(42), Key(42)) || bytes.Equal(Key(1), Key(2)) {
		t.Error("keys not deterministic/distinct")
	}
	// Keys must sort numerically for scans.
	if bytes.Compare(Key(9), Key(10)) >= 0 {
		t.Error("key ordering broken")
	}
}

func TestValueDeterministicAndSized(t *testing.T) {
	v := Value(7, 1024)
	if len(v) != 1024 {
		t.Errorf("value size = %d", len(v))
	}
	if !bytes.Equal(v, Value(7, 1024)) {
		t.Error("value not deterministic")
	}
	if bytes.Equal(Value(7, 64), Value(8, 64)) {
		t.Error("values for distinct keys identical")
	}
}

func TestWorkloadDefaults(t *testing.T) {
	w := RWB(1000, 500)
	if w.Ops != 1000 || w.KeySpace != 500 || w.WriteRatio != 0.5 {
		t.Errorf("RWB = %+v", w)
	}
	if w.Preload != 250 {
		t.Errorf("Preload = %d, want half the key space", w.Preload)
	}
	if w.ValueSize != 1024 || w.ScanLength != 100 {
		t.Errorf("defaults: value=%d scan=%d", w.ValueSize, w.ScanLength)
	}
	wo := WO(1000, 500)
	if wo.Preload != 250 {
		t.Errorf("WO preload = %d, want the YCSB load phase", wo.Preload)
	}
}

// memStore is a trivial thread-safe store for runner tests.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte

	writes, reads, scans int
}

func newMemStore() *memStore { return &memStore{m: map[string][]byte{}} }

func (s *memStore) ops() Ops {
	return Ops{
		Write: func(k, v []byte) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.m[string(k)] = append([]byte(nil), v...)
			s.writes++
			return nil
		},
		Read: func(k []byte) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.reads++
			return nil
		},
		Scan: func(start []byte, limit int) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.scans++
			return nil
		},
	}
}

func TestRunMixesOperations(t *testing.T) {
	s := newMemStore()
	w := WH(4000, 1000)
	w.Preload = 100
	if err := Load(s.ops(), w, RunnerOptions{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if s.writes != 100 {
		t.Fatalf("preload wrote %d", s.writes)
	}
	res, err := Run(s.ops(), w, RunnerOptions{Seed: 5, Clients: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 4000 {
		t.Errorf("Ops = %d", res.Ops)
	}
	wr := float64(res.WriteHist.Count()) / float64(res.Ops)
	if wr < 0.65 || wr > 0.75 {
		t.Errorf("write ratio = %.3f, want ≈0.7", wr)
	}
	if res.ScanHist.Count() != 0 {
		t.Errorf("point workload performed %d scans", res.ScanHist.Count())
	}
	if res.Throughput <= 0 {
		t.Error("zero throughput")
	}
}

func TestRunScanWorkloadUsesScans(t *testing.T) {
	s := newMemStore()
	w := ScnRWB(2000, 500)
	w.Preload = 0
	res, err := Run(s.ops(), w, RunnerOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScanHist.Count() == 0 || s.scans == 0 {
		t.Error("SCN workload performed no scans")
	}
	if res.ReadHist.Count() != 0 {
		t.Errorf("SCN workload performed %d point reads", res.ReadHist.Count())
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	o := Ops{
		Write: func(k, v []byte) error { return boom },
		Read:  func(k []byte) error { return boom },
		Scan:  func(start []byte, limit int) error { return boom },
	}
	w := WO(100, 100)
	if _, err := Run(o, w, RunnerOptions{}); !errors.Is(err, boom) {
		t.Errorf("Run err = %v", err)
	}
}

func TestRunTimeline(t *testing.T) {
	s := newMemStore()
	w := WO(500, 100)
	res, err := Run(s.ops(), w, RunnerOptions{TimelineSlot: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline == nil || len(res.Timeline.Series()) == 0 {
		t.Error("timeline not recorded")
	}
}

func TestRunReproducible(t *testing.T) {
	run := func() int {
		s := newMemStore()
		w := RWB(1000, 200)
		w.Preload = 0
		Run(s.ops(), w, RunnerOptions{Seed: 77, Clients: 1})
		return s.writes
	}
	if run() != run() {
		t.Error("same seed produced different op mixes")
	}
}

func TestCompressibleValue(t *testing.T) {
	// Deterministic: same inputs, same bytes.
	a := CompressibleValue(42, 1024, 0.5)
	b := CompressibleValue(42, 1024, 0.5)
	if !bytes.Equal(a, b) {
		t.Fatal("CompressibleValue is not deterministic")
	}
	if len(a) != 1024 {
		t.Fatalf("len = %d, want 1024", len(a))
	}
	// Distinct keys get distinct values.
	if bytes.Equal(a, CompressibleValue(43, 1024, 0.5)) {
		t.Fatal("different keys produced identical values")
	}
	// Ratio 0 degenerates to the incompressible generator.
	if !bytes.Equal(CompressibleValue(7, 256, 0), Value(7, 256)) {
		t.Fatal("ratio 0 should equal Value()")
	}
	// The redundancy is real: the requested fraction actually compresses.
	for _, ratio := range []float64{0.25, 0.5, 0.9} {
		v := CompressibleValue(1, 4096, ratio)
		payload, kind := compress.Compress(compress.LZ4, nil, v)
		if kind != compress.LZ4 {
			t.Fatalf("ratio %v: lz4 bailed out on a value with %v redundancy", ratio, ratio)
		}
		saved := 1 - float64(len(payload))/float64(len(v))
		if saved < ratio/2 {
			t.Errorf("ratio %v: lz4 saved only %.0f%%", ratio, saved*100)
		}
	}
	// And the incompressible default really is: lz4 must store it raw.
	if _, kind := compress.Compress(compress.LZ4, nil, Value(1, 4096)); kind != compress.None {
		t.Error("pure-random Value compressed; generator is broken")
	}
}
