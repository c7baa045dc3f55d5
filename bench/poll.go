package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
)

// pollStats are the gauges only a poller can see: the tree's shape and the
// write controller's state between the two counter snapshots, plus the
// process's own peaks.
type pollStats struct {
	samples        int
	l0FilesMax     int
	frozenBytesMax int64
	frozenFilesMax int
	stoppedSamples int
	heapPeakBytes  uint64
	goroutinesMax  int
	end            core.Profile
}

// startPoller samples db every 100 ms until the returned stop function is
// called, which also takes a final sample. Disabled, it samples only at
// stop: the end-of-run shape costs one call.
func startPoller(db *core.DB, enabled bool) (stop func() pollStats) {
	var ps pollStats
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	sample := func() {
		prof := db.CurrentProfile()
		ps.samples++
		ps.l0FilesMax = max(ps.l0FilesMax, prof.Levels[0].Files)
		ps.frozenBytesMax = max(ps.frozenBytesMax, prof.FrozenBytes)
		ps.frozenFilesMax = max(ps.frozenFilesMax, prof.FrozenFiles)
		if db.Stats().WriteState == "stopped" {
			ps.stoppedSamples++
		}
		metrics.Read(heap)
		if heap[0].Value.Kind() == metrics.KindUint64 {
			ps.heapPeakBytes = max(ps.heapPeakBytes, heap[0].Value.Uint64())
		}
		ps.goroutinesMax = max(ps.goroutinesMax, runtime.NumGoroutine())
		ps.end = prof
	}
	if !enabled {
		return func() pollStats { sample(); return ps }
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-quit:
				return
			}
		}
	}()
	return func() pollStats {
		close(quit)
		<-done
		sample()
		return ps
	}
}
