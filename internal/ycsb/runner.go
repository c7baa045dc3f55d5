package ycsb

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/histogram"
)

// Ops adapts a store to the runner. Read should swallow not-found (absent
// keys are expected under random lookups); every returned error aborts the
// run.
type Ops struct {
	Write func(key, value []byte) error
	Read  func(key []byte) error
	Scan  func(start []byte, limit int) error
}

// RunnerOptions tunes the measurement loop.
type RunnerOptions struct {
	// Clients is the number of concurrent client goroutines (default 2).
	Clients int
	// Seed makes runs reproducible.
	Seed int64
	// TimelineSlot, when non-zero, records a mean-latency timeline with the
	// given slot width (Fig 1).
	TimelineSlot time.Duration
}

func (r RunnerOptions) withDefaults() RunnerOptions {
	if r.Clients <= 0 {
		r.Clients = 2
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	return r
}

// Result aggregates one run's measurements.
type Result struct {
	Workload   Workload
	Duration   time.Duration
	Ops        int64
	Throughput float64 // requests per second

	Hist      *histogram.Histogram // all requests
	ReadHist  *histogram.Histogram
	WriteHist *histogram.Histogram
	ScanHist  *histogram.Histogram
	Timeline  *histogram.Timeline // nil unless requested
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %.0f ops/s, mean=%v p99=%v p99.9=%v",
		r.Workload.Name, r.Throughput, r.Hist.Mean(),
		r.Hist.Percentile(99), r.Hist.Percentile(99.9))
}

// Load performs the preload phase: sequential-ish unique inserts of
// w.Preload keys so read workloads have data to find.
func Load(ops Ops, w Workload, ro RunnerOptions) error {
	w = w.withDefaults()
	ro = ro.withDefaults()
	if w.Preload <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(ro.Seed))
	perm := rng.Perm(int(w.KeySpace))
	for i := int64(0); i < w.Preload; i++ {
		idx := int64(perm[int(i)%len(perm)])
		if err := ops.Write(Key(idx), w.value(idx)); err != nil {
			return fmt.Errorf("ycsb: preload: %w", err)
		}
	}
	return nil
}

// Run drives the workload and measures it.
func Run(ops Ops, w Workload, ro RunnerOptions) (*Result, error) {
	w = w.withDefaults()
	ro = ro.withDefaults()

	res := &Result{
		Workload:  w,
		Hist:      &histogram.Histogram{},
		ReadHist:  &histogram.Histogram{},
		WriteHist: &histogram.Histogram{},
		ScanHist:  &histogram.Histogram{},
	}
	if ro.TimelineSlot > 0 {
		res.Timeline = histogram.NewTimeline(ro.TimelineSlot)
	}

	perClient := w.Ops / int64(ro.Clients)
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < ro.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(ro.Seed + int64(c)*7919))
			var gen Generator
			switch w.Dist.Kind {
			case "zipfian":
				gen = NewZipfian(rng, w.KeySpace, w.Dist.Theta)
			default:
				gen = NewUniform(rng, w.KeySpace)
			}
			n := perClient
			if c == ro.Clients-1 {
				n += w.Ops % int64(ro.Clients)
			}
			for i := int64(0); i < n; i++ {
				errMu.Lock()
				stop := firstErr != nil
				errMu.Unlock()
				if stop {
					return
				}
				idx := gen.Next()
				var kind OpKind
				switch {
				case rng.Float64() < w.WriteRatio:
					kind = OpWrite
				case w.ScanQueries:
					kind = OpScan
				default:
					kind = OpRead
				}
				opStart := time.Now()
				var err error
				switch kind {
				case OpWrite:
					err = ops.Write(Key(idx), w.value(idx))
				case OpScan:
					err = ops.Scan(Key(idx), w.ScanLength)
				default:
					err = ops.Read(Key(idx))
				}
				lat := time.Since(opStart)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				res.Hist.Record(lat)
				switch kind {
				case OpWrite:
					res.WriteHist.Record(lat)
				case OpScan:
					res.ScanHist.Record(lat)
				default:
					res.ReadHist.Record(lat)
				}
				if res.Timeline != nil {
					res.Timeline.Record(lat)
				}
			}
		}(c)
	}
	wg.Wait()
	res.Duration = time.Since(start)
	res.Ops = res.Hist.Count()
	if res.Duration > 0 {
		res.Throughput = float64(res.Ops) / res.Duration.Seconds()
	}
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}
