package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// gauges are the Stats integer fields that may go down: the value log's
// current shape, which GC shrinks.
var gauges = map[string]bool{"VlogSegments": true, "VlogTotalBytes": true, "VlogDeadBytes": true}

// sharedFolds are the Stats integer fields DB.Stats takes from the one
// thing the shards share, the block cache, rather than from their sum; they
// are zero per shard.
var sharedFolds = map[string]bool{"BlockCacheHits": true, "BlockCacheMisses": true}

// intFields calls fn with the name and value of every integer field of s.
func intFields(s Stats, fn func(name string, v int64)) {
	sv := reflect.ValueOf(s)
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Field(i); f.CanInt() {
			fn(sv.Type().Field(i).Name, f.Int())
		}
	}
}

// checkNoDecrease fails t for every cumulative integer counter of now that is
// below its value in was.
func checkNoDecrease(t *testing.T, what string, was, now Stats) {
	t.Helper()
	old := map[string]int64{}
	intFields(was, func(name string, v int64) { old[name] = v })
	intFields(now, func(name string, v int64) {
		if !gauges[name] && v < old[name] {
			t.Errorf("%s: %s went down %d -> %d", what, name, old[name], v)
		}
	})
}

// TestCumulativeCountersNeverDecrease reads tables from several goroutines,
// then overwrites the key space until compaction has deleted the tables the
// reads touched, and checks after every phase that no cumulative counter of
// Stats or of any ShardStats entry went down: the reads of a deleted table
// stay counted.
func TestCumulativeCountersNeverDecrease(t *testing.T) {
	opts := shardOpts(2)
	opts.SSTableSize = 16 << 10
	opts.BlobThreshold = 256
	db := openTestDB(t, opts)
	defer db.Close()

	const n, readers = 2000, 4
	big := bytes.Repeat([]byte("b"), 300) // separated: the Gets resolve it
	put := func(gen int) {
		for i := 0; i < n; i++ {
			v := value(i + gen)
			if i%50 == 0 {
				v = big
			}
			if err := db.Put(key(i), v); err != nil {
				t.Fatal(err)
			}
		}
		db.WaitIdle()
	}
	put(0)
	prev, prevPer := db.Stats(), db.ShardStats()
	check := func(phase string) {
		t.Helper()
		s, per := db.Stats(), db.ShardStats()
		checkNoDecrease(t, phase+": Stats", prev, s)
		for i := range per {
			checkNoDecrease(t, fmt.Sprintf("%s: ShardStats[%d]", phase, i), prevPer[i], per[i])
		}
		prev, prevPer = s, per
	}

	var gets atomic.Int64
	for gen := 1; gen <= 4; gen++ {
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 500; i++ {
					if _, err := db.Get(key(rng.Intn(n))); err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
						return
					}
					gets.Add(1)
				}
			}(int64(gen*readers + r))
		}
		wg.Wait()
		check("reads")
		put(gen * n)
		check("overwrites")
	}

	s := db.Stats()
	if s.Gets != gets.Load() || s.BlockReads == 0 || s.CompressedBytesRead == 0 || s.BlobResolves == 0 || s.ObsoleteDeleted == 0 {
		t.Fatalf("the test did not read tables and delete them: Gets %d of %d, BlockReads %d, CompressedBytesRead %d, BlobResolves %d, ObsoleteDeleted %d",
			s.Gets, gets.Load(), s.BlockReads, s.CompressedBytesRead, s.BlobResolves, s.ObsoleteDeleted)
	}
}

// TestEveryCounterHasAStatsField: snapshot copies the live block into Stats
// by field name, so a counter without an integer Stats field of its name
// would never be reported.
func TestEveryCounterHasAStatsField(t *testing.T) {
	stats := reflect.TypeOf(Stats{})
	live := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(counters{})) {
		if f.Type != reflect.TypeOf(atomic.Int64{}) {
			continue
		}
		live++
		if !f.IsExported() {
			t.Errorf("counter %s is unexported: snapshot cannot copy it", f.Name)
		}
		if sf, ok := stats.FieldByName(f.Name); !ok || len(sf.Index) != 1 || sf.Type.Kind() != reflect.Int64 {
			t.Errorf("counter %s has no int64 Stats field of its name", f.Name)
		}
	}
	if live != len(counterFields) {
		t.Errorf("%d live counters, %d matched to a Stats field", live, len(counterFields))
	}
}
