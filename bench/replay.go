package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/batch"
	"repro/internal/block"
	"repro/internal/bloom"
	"repro/internal/cache"
	"repro/internal/checksum"
	"repro/internal/iosched"
	"repro/internal/iterator"
	"repro/internal/keys"
	"repro/internal/memtable"
	"repro/internal/resp"
	"repro/internal/sstable"
	"repro/internal/vfs"
	"repro/internal/vlog"
	"repro/internal/wal"
)

// Layer replay: the engine's leaf packages are called directly, through
// their public functions, with the workload's own first replayOps inputs.
// It is how the benchmark says what one call into each layer costs without
// a single span inside the program. Each step builds its own private
// substrate (memtable, WAL writer, table writer and reader with a private
// cache, merging iterator, vlog writer, RESP reader and writer) on a bare
// in-memory filesystem, so nothing here touches the simulated device.

const replayOps = 20_000

// cost is one replayed call's price.
type cost struct{ ns, allocs float64 }

// timed runs fn once and reports its cost per call, for n calls inside fn.
func timed(n int, fn func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if n == 0 {
		return cost{}
	}
	return cost{ns: float64(d) / float64(n), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n)}
}

type kv struct{ key, val []byte }

// replay returns per-layer metric values keyed by metric name.
func replay(w *workload, sz sizing, seed int64) (map[string]float64, error) {
	n := int(min(replayOps, sz.ops))
	out := map[string]float64{}
	icmp := keys.InternalComparer{User: keys.BytewiseComparer{}}

	// The workload's own stream (client 0). Values are what a write of that
	// key would carry, whatever the op was, so read-only workloads replay
	// the write-side layers on the data their reads were served from.
	var ops []kv
	gen := timed(n, func() {
		st := newStream(w, seed, 0, sz.keys)
		ops = make([]kv, n)
		for i := range ops {
			_, idx := st.next()
			k, v := make([]byte, keyLen), make([]byte, w.size(idx, 1))
			putKey(k, idx)
			fillValue(v, idx, 1)
			ops[i] = kv{k, v}
		}
	})
	// The stream builds into fresh slices here (two allocations per op that
	// the measured loop, which reuses its buffers, does not make).
	out["ycsb.gen_ns_per_op"], out["ycsb.gen_allocs_per_op"] = gen.ns, gen.allocs

	// Sorted, de-duplicated view for the table-shaped layers.
	sorted := slices.Clone(ops)
	slices.SortFunc(sorted, func(a, b kv) int { return bytes.Compare(a.key, b.key) })
	sorted = slices.CompactFunc(sorted, func(a, b kv) bool { return bytes.Equal(a.key, b.key) })
	ikeys := make([]keys.InternalKey, len(sorted))
	for i, e := range sorted {
		ikeys[i] = keys.MakeInternalKey(nil, e.key, keys.Seq(i+1), keys.KindSet)
	}
	maxSeq := keys.Seq(len(sorted) + 1)

	// --- batch
	var records [][]byte
	c := timed(n, func() {
		b := batch.New()
		records = make([][]byte, 0, n)
		for i, e := range ops {
			b.Reset()
			b.Set(e.key, e.val)
			b.SetSequence(keys.Seq(i + 1))
			records = append(records, bytes.Clone(b.Encode()))
		}
	})
	out["batch.encode_ns_per_op"], out["batch.allocs_per_op"] = c.ns, c.allocs

	// --- wal
	mem := vfs.Mem()
	f, err := mem.Create("replay.log")
	if err != nil {
		return nil, err
	}
	lw := wal.NewWriter(f)
	c = timed(n, func() {
		for _, r := range records {
			if err == nil {
				err = lw.AddRecord(r)
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("replay wal: %w", err)
	}
	out["wal.append_ns_per_record"], out["wal.append_allocs_per_record"] = c.ns, c.allocs

	// --- vlog
	vl, err := vlog.Open(mem, "vlog", vlog.Options{})
	if err != nil {
		return nil, fmt.Errorf("replay vlog: %w", err)
	}
	vw := vl.NewWriter(0)
	c = timed(n, func() {
		for _, e := range ops {
			if err == nil {
				_, err = vw.Append(e.key, e.val)
			}
		}
	})
	if cerr := vw.Close(); err == nil {
		err = cerr
	}
	if cerr := vl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("replay vlog: %w", err)
	}
	out["vlog.append_ns_per_record"] = c.ns

	// --- memtable (+skiplist)
	mt := memtable.New(icmp)
	c = timed(n, func() {
		for i, e := range ops {
			mt.Add(keys.Seq(i+1), keys.KindSet, e.key, e.val)
		}
	})
	out["memtable.add_ns_per_op"], out["memtable.add_allocs_per_op"] = c.ns, c.allocs
	misses := 0
	c = timed(n, func() {
		for _, e := range ops {
			if _, _, found := mt.Get(e.key, keys.Seq(n+1)); !found {
				misses++
			}
		}
	})
	if misses != 0 {
		return nil, fmt.Errorf("replay memtable: %d of %d keys not found", misses, n)
	}
	out["memtable.get_ns_per_op"] = c.ns

	// --- sstable build
	wopts := sstable.WriterOptions{Cmp: icmp, BlockSize: 4 << 10, BloomBitsPerKey: 10}
	build := func(name string, from, step int) error {
		f, err := mem.Create(name)
		if err != nil {
			return err
		}
		tw := sstable.NewWriter(f, wopts)
		for i := from; i < len(sorted); i += step {
			if err := tw.Add(ikeys[i], sorted[i].val); err != nil {
				return err
			}
		}
		if _, err := tw.Finish(); err != nil {
			return err
		}
		return f.Close()
	}
	c = timed(len(sorted), func() { err = build("all.sst", 0, 1) })
	if err != nil {
		return nil, fmt.Errorf("replay sstable build: %w", err)
	}
	out["sstable.build_ns_per_entry"], out["sstable.build_allocs_per_entry"] = c.ns, c.allocs

	// --- sstable probe: hit = block found in the (private, warmed) block
	// cache; miss = no cache, so every probe reads, verifies and decodes.
	open := func(name string, fileNum uint64, bc *cache.Cache) (*sstable.Reader, error) {
		f, err := mem.Open(name)
		if err != nil {
			return nil, err
		}
		return sstable.OpenReader(f, sstable.ReaderOptions{Cmp: icmp, Cache: bc, FileNum: fileNum, VerifyChecksums: true})
	}
	probe := func(r *sstable.Reader) cost {
		return timed(len(sorted), func() {
			for _, e := range sorted {
				if _, _, found, gerr := r.Get(e.key, maxSeq); err == nil && (gerr != nil || !found) {
					err = fmt.Errorf("probe %q: found=%v err=%v", e.key, found, gerr)
				}
			}
		})
	}
	hot, err := open("all.sst", 1, cache.New(256<<20))
	if err != nil {
		return nil, fmt.Errorf("replay sstable open: %w", err)
	}
	probe(hot) // warm the private cache
	c = probe(hot)
	out["sstable.probe_hit_ns"], out["sstable.probe_hit_allocs"] = c.ns, c.allocs
	cold, err := open("all.sst", 2, nil)
	if err != nil {
		return nil, fmt.Errorf("replay sstable open: %w", err)
	}
	c = probe(cold)
	out["sstable.probe_miss_ns"] = c.ns
	if err != nil {
		return nil, fmt.Errorf("replay sstable: %w", err)
	}
	entries := 0
	c = timed(len(sorted), func() {
		it := hot.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			entries++
		}
		err = it.Close()
	})
	if err != nil || entries != len(sorted) {
		return nil, fmt.Errorf("replay sstable iterate: %d of %d entries, err %v", entries, len(sorted), err)
	}
	out["sstable.iter_ns_per_entry"] = c.ns
	hot.Close()
	cold.Close()

	// --- block, bloom, checksum
	var bw block.Writer
	inBlock := 0
	for ; inBlock < len(sorted) && bw.EstimatedSize() < 4<<10; inBlock++ {
		bw.Add(ikeys[inBlock], sorted[inBlock].val)
	}
	br, err := block.NewReader(icmp.Compare, bw.Finish())
	if err != nil {
		return nil, fmt.Errorf("replay block: %w", err)
	}
	const seeks = replayOps
	c = timed(seeks, func() {
		var it block.Iter
		it.Init(br)
		for i := 0; i < seeks; i++ {
			it.SeekGE(ikeys[i%inBlock])
			if !it.Valid() {
				misses++
			}
		}
	})
	out["block.seek_ns"] = c.ns
	ukeys := make([][]byte, len(sorted))
	for i, e := range sorted {
		ukeys[i] = e.key
	}
	filter := bloom.New(ukeys, 10)
	c = timed(len(ukeys), func() {
		for _, k := range ukeys {
			if !filter.MayContain(k) {
				misses++
			}
		}
	})
	out["bloom.maycontain_ns"] = c.ns
	if misses != 0 {
		return nil, fmt.Errorf("replay block/bloom: %d false negatives", misses)
	}
	page := make([]byte, 4<<10)
	fillValue(page, 1, 1)
	var sink uint32
	c = timed(seeks, func() {
		for i := 0; i < seeks; i++ {
			sink += checksum.Sum(checksum.CRC32C, page, byte(i))
		}
	})
	out["checksum.sum4k_ns"] = c.ns

	// --- cache
	bc := cache.New(int64(seeks) * 8 << 10)
	c = timed(seeks, func() {
		for i := 0; i < seeks; i++ {
			bc.Set(cache.Key{FileNum: 1, Offset: uint64(i) << 12}, page, 4<<10)
		}
	})
	out["cache.set_ns"] = c.ns
	c = timed(seeks, func() {
		for i := 0; i < seeks; i++ {
			if _, ok := bc.Get(cache.Key{FileNum: 1, Offset: uint64(i) << 12}); !ok {
				misses++
			}
		}
	})
	if misses != 0 {
		return nil, fmt.Errorf("replay cache: %d misses in a cache sized to hold everything", misses)
	}
	out["cache.get_hit_ns"] = c.ns

	// --- iterator: NewMerging over four table iterators and one memtable,
	// the five taking every fifth entry each.
	small := memtable.New(icmp)
	for i := 4; i < len(sorted); i += 5 {
		small.Add(keys.Seq(i+1), keys.KindSet, sorted[i].key, sorted[i].val)
	}
	children := []iterator.Iterator{small.NewIterator()}
	for t := 0; t < 4; t++ {
		name := fmt.Sprintf("part%d.sst", t)
		if err := build(name, t, 5); err != nil {
			return nil, fmt.Errorf("replay merge build: %w", err)
		}
		r, err := open(name, uint64(10+t), nil)
		if err != nil {
			return nil, fmt.Errorf("replay merge open: %w", err)
		}
		defer r.Close()
		children = append(children, r.NewIterator())
	}
	entries = 0
	c = timed(len(sorted), func() {
		it := iterator.NewMerging(icmp.Compare, children...)
		for it.SeekToFirst(); it.Valid(); it.Next() {
			entries++
		}
		err = it.Close()
	})
	if err != nil || entries != len(sorted) {
		return nil, fmt.Errorf("replay merge: %d of %d entries, err %v", entries, len(sorted), err)
	}
	out["iterator.merge_ns_per_entry"], out["iterator.merge_allocs_per_entry"] = c.ns, c.allocs

	// --- resp
	var wire, cmd []byte
	c = timed(n, func() {
		for _, e := range ops {
			if err == nil {
				cmd, err = resp.AppendCommand(cmd[:0], "SET", e.key, e.val)
			}
		}
	})
	out["resp.encode_ns_per_cmd"] = c.ns
	for _, e := range ops {
		if err == nil {
			wire, err = resp.AppendCommand(wire, "SET", e.key, e.val)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("replay resp encode: %w", err)
	}
	parsed := 0
	c = timed(n, func() {
		rd := resp.NewReader(bytes.NewReader(wire))
		for parsed < n {
			if _, err = rd.ReadCommand(); err != nil {
				return
			}
			parsed++
		}
	})
	if err != nil {
		return nil, fmt.Errorf("replay resp parse: %d of %d commands: %w", parsed, n, err)
	}
	out["resp.parse_ns_per_cmd"], out["resp.parse_allocs_per_cmd"] = c.ns, c.allocs

	// --- iosched: the limiter is off in every workload, so what the write
	// path pays per block is Wait's early return.
	var off *iosched.Limiter
	c = timed(seeks, func() {
		for i := 0; i < seeks; i++ {
			off.Wait(iosched.TierFlush, 4<<10)
		}
	})
	out["iosched.wait_fastpath_ns"] = c.ns
	_ = sink
	return out, nil
}
