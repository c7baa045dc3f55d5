package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/span"
	"repro/bench/tracefs"
	"repro/internal/batch"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/ssdsim"
	"repro/internal/vfs"
)

const dbDir = "db"

// latency classes a client can time.
const (
	latPut = iota
	latGet
	latScan
	latBurst // served only: one pipelined round trip
	numLat
)

// passConfig is everything that determines one pass over a workload.
type passConfig struct {
	w    *workload
	sz   sizing
	seed int64
	// The store is built at least setups times, and up to setupsMax times
	// while less than setupSpend has gone into building; the last is kept.
	setups, setupsMax int

	rec     *span.Recorder // nil = untraced
	opEvery int            // traced: span every opEvery-th op (or burst)
	fsEvery int            // traced: span every fsEvery-th file read or write
}

// engine is one built store plus the handles the benchmark measures it by.
type engine struct {
	mem  vfs.FS
	tfs  *tracefs.FS
	dev  *ssdsim.Device
	opts core.Options
	db   *core.DB

	srv     *server.Server
	srvDone chan error
	conns   []*client.Client
}

// snapshot is one reading of every outside-visible counter set.
type snapshot struct {
	stats  core.Stats
	shards []core.Stats
	dev    ssdsim.Stats
	fs     tracefs.Counters
	srv    server.Metrics
}

func (e *engine) snapshot() snapshot {
	s := snapshot{stats: e.db.Stats(), shards: e.db.ShardStats(), dev: e.dev.Snapshot(), fs: e.tfs.Snapshot()}
	if e.srv != nil {
		s.srv = e.srv.Metrics()
	}
	return s
}

// pass is what one pass measured.
type pass struct {
	cfg passConfig

	setupS   []float64 // one per set-up repetition
	wall     time.Duration
	drain    time.Duration
	reopenMS float64

	lat     [numLat]*samples
	unitLat *samples // see unit
	tl      *timeline
	// Per slice of a client's ops, every client's slices pooled: the time
	// per unit of client work (an op; a burst when served) and each latency
	// class's median.
	sliceUnitUS []float64
	sliceP50US  [numLat][]float64

	attempted, failed atomic.Int64
	bursts            int64
	scanPairs         int64

	before, after         snapshot
	totalBytes, liveBytes int64
	mallocs               uint64
	gcCycles              uint32
	gcPauseNS             uint64
	cpu                   time.Duration
	poll                  pollStats
	root, phaseSpan       span.ID // traced: the workload span and the phase now running
}

func (p *pass) fail(format string, args ...any) {
	if p.failed.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "FAILED OP [%s]: %s\n", p.cfg.w.name, fmt.Sprintf(format, args...))
	}
}

// unit returns the latency of the client's unit of work: the pipelined
// burst when served, else every op regardless of kind.
func (p *pass) unit() *samples {
	if p.unitLat == nil {
		p.unitLat = p.lat[latBurst]
		if !p.cfg.w.served {
			p.unitLat = newSamples(0)
			for _, s := range p.lat[:latBurst] {
				if p.unitLat.n() == 0 {
					p.unitLat = s // a single-kind workload: share, do not copy
				} else if s.n() > 0 {
					all := newSamples(int64(p.unitLat.n() + s.n()))
					all.merge(p.unitLat)
					all.merge(s)
					p.unitLat = all
				}
			}
		}
	}
	return p.unitLat
}

// runPass builds the store, measures, drains, and verifies.
func runPass(cfg passConfig) (*pass, error) {
	w := cfg.w
	if n := runtime.NumCPU(); w.clients > n {
		return nil, fmt.Errorf("%s needs %d client goroutines but the host has %d CPUs: the load generator would contend with itself", w.name, w.clients, n)
	}
	if w.putShare+w.getShare < 1 && w.preloaded < 1 {
		return nil, fmt.Errorf("%s scans a partly loaded key space: scan results would not be predictable", w.name)
	}
	p := &pass{cfg: cfg, tl: newTimeline(100 * time.Millisecond)}
	for i := range p.lat {
		p.lat[i] = newSamples(0)
	}
	p.root = cfg.rec.Begin("workload."+w.name, 0)
	defer cfg.rec.Finish(p.root)

	// --- set-up: several times, so setup_s is a median, keeping the last.
	var e *engine
	var or *oracle
	p.phase("setup")
	for spent := time.Duration(0); len(p.setupS) < cfg.setups || (len(p.setupS) < cfg.setupsMax && spent < setupSpend); {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("closing discarded set-up: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		e, or, err = setUp(cfg, p)
		if err != nil {
			e.close() // whatever part of it was built; the set-up error is the one to report
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		p.setupS = append(p.setupS, d.Seconds())
	}
	defer e.close() // error paths only; the success path closes in verify

	// --- measure
	e.tfs.SetSyncCost(w.syncCost)
	p.before = e.snapshot()
	stopPoll := startPoller(e.db, cfg.rec != nil)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	p.phase("measure")
	p.measure(e, or)

	// --- drain: background work the measured ops caused is theirs to pay
	// for — in write_amp, allocations and CPU — but not in throughput. How
	// much of it lands before the last op and how much after is timing;
	// counting through the drain makes the totals repeat.
	p.phase("drain")
	t0 := time.Now()
	e.db.WaitIdle()
	p.drain = time.Since(t0)
	cpu1 := processCPU()
	runtime.ReadMemStats(&m1)
	p.mallocs, p.gcCycles, p.gcPauseNS = m1.Mallocs-m0.Mallocs, m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	p.cpu = cpu1 - cpu0
	p.poll = stopPoll()
	p.after = e.snapshot()
	p.totalBytes, _ = vfs.TotalBytes(e.mem)
	p.liveBytes = or.liveBytes()

	// --- verify: Close, reopen, read every oracle key.
	p.phase("verify")
	if err := p.verify(e, or); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	p.phase("")
	return p, nil
}

// phase closes the current phase span and opens the named one ("" = none).
func (p *pass) phase(name string) {
	rec := p.cfg.rec
	if rec == nil {
		return
	}
	rec.Finish(p.phaseSpan)
	p.phaseSpan = 0
	if name != "" {
		p.phaseSpan = rec.Begin("phase."+name, p.root)
	}
}

// setUp opens an empty store on a fresh simulated device, preloads it,
// quiesces it, and warms it; for a served workload it also starts the server
// and dials the clients.
func setUp(cfg passConfig, p *pass) (*engine, *oracle, error) {
	w := cfg.w
	e := &engine{mem: vfs.Mem()}
	e.tfs = tracefs.New(e.mem)
	if cfg.rec != nil {
		e.tfs.Trace(cfg.rec, cfg.fsEvery)
		e.tfs.SetParent(p.phaseSpan)
	}
	e.dev = ssdsim.NewDevice(ssdsim.DefaultProfile())
	e.opts = w.engineOptions(ssdsim.Wrap(e.tfs, e.dev))
	db, err := core.Open(dbDir, e.opts)
	if err != nil {
		return nil, nil, err
	}
	e.db = db

	or := &oracle{ver: make([]uint32, cfg.sz.keys), size: w.size}
	if cfg.sz.preloaded > 0 {
		b := batch.New()
		var key [keyLen]byte
		var val []byte
		var applyErr error
		flush := func() {
			if applyErr == nil && !b.Empty() {
				applyErr = db.Apply(b)
			}
			b.Reset()
		}
		preloadOrder(cfg.sz.preloaded, cfg.seed, func(idx int64) {
			putKey(key[:], idx)
			or.ver[idx] = 1
			n := w.size(idx, 1)
			if cap(val) < n {
				val = make([]byte, n)
			}
			fillValue(val[:n], idx, 1)
			b.Set(key[:], val[:n])
			if b.Count() == 64 {
				flush()
			}
		})
		flush()
		if applyErr != nil {
			return e, nil, fmt.Errorf("preload: %w", applyErr)
		}
		if err := db.Flush(); err != nil {
			return e, nil, fmt.Errorf("preload flush: %w", err)
		}
		db.WaitIdle()
	}
	if w.warm {
		var key [keyLen]byte
		for idx := int64(0); idx < cfg.sz.preloaded; idx++ {
			putKey(key[:], idx)
			if _, err := db.Get(key[:]); err != nil {
				return e, nil, fmt.Errorf("warm get %d: %w", idx, err)
			}
		}
	}
	if w.served {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return e, nil, err
		}
		e.srv, err = server.New(db, server.Config{Addr: ln.Addr().String()})
		if err != nil {
			ln.Close()
			return e, nil, err
		}
		e.srvDone = make(chan error, 1)
		go func() { e.srvDone <- e.srv.Serve(ln) }()
		for c := 0; c < w.clients; c++ {
			conn, err := client.Dial(ln.Addr().String())
			if err != nil {
				return e, nil, err
			}
			e.conns = append(e.conns, conn)
		}
	}
	return e, or, nil
}

// close tears the engine down: connections, then the server (whose Shutdown
// closes the DB), or the DB itself when embedded. Idempotent.
func (e *engine) close() error {
	if e == nil {
		return nil
	}
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	if e.srv != nil {
		err := e.srv.Shutdown()
		if serr := <-e.srvDone; !errors.Is(serr, server.ErrServerClosed) && err == nil {
			err = serr
		}
		e.srv, e.db = nil, nil
		return err
	}
	if e.db != nil {
		db := e.db
		e.db = nil
		return db.Close()
	}
	return nil
}

// clientState is one client's private half of the measured phase.
type clientState struct {
	lat       [numLat]*samples
	tl        *timeline
	marks     []sliceMark
	scanPairs int64
	bursts    int64
	end       time.Time
}

// sliceMark closes one slice of a client's ops: when its last op ended, and
// how many latencies of each class the client had recorded by then.
type sliceMark struct {
	at time.Duration // since the measured phase began
	n  [numLat]int
}

// mark closes a slice whose last op ran from begin for d.
func (cs *clientState) mark(begin time.Time, d time.Duration, t0 time.Time) {
	m := sliceMark{at: begin.Sub(t0) + d}
	for k, s := range cs.lat {
		m.n[k] = s.n()
	}
	cs.marks = append(cs.marks, m)
}

// foldSlices turns a client's slice marks into per-slice readings: the time
// per unit of work, and the median of every latency class the slice holds.
func (p *pass) foldSlices(cs *clientState, sliceLen int64) {
	prev := sliceMark{}
	for _, m := range cs.marks {
		p.sliceUnitUS = append(p.sliceUnitUS, float64(m.at-prev.at)/1e3/float64(sliceLen))
		for k, s := range cs.lat {
			if m.n[k] > prev.n[k] {
				p.sliceP50US[k] = append(p.sliceP50US[k], sliceMedianUS(s.ns[prev.n[k]:m.n[k]]))
			}
		}
		prev = m
	}
}

// measure runs the clients to completion and folds their results into p.
func (p *pass) measure(e *engine, or *oracle) {
	w, sz := p.cfg.w, p.cfg.sz
	perClient := sz.ops / int64(w.clients)
	units := perClient // per client: ops, or bursts when served
	if w.served {
		units /= int64(w.burst)
	}
	sliceLen := max(1, units/int64(w.slices))
	states := make([]*clientState, w.clients)
	start := make(chan struct{})
	var t0 time.Time
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		cs := &clientState{tl: newTimeline(p.tl.slot)}
		for i := range cs.lat {
			cs.lat[i] = newSamples(0)
		}
		if w.served {
			cs.lat[latBurst] = newSamples(perClient / int64(w.burst))
		} else {
			cs.lat[latPut] = newSamples(int64(float64(perClient)*w.putShare) + 1024)
			cs.lat[latGet] = newSamples(int64(float64(perClient)*w.getShare) + 1024)
		}
		states[c] = cs
		st := newStream(w, p.cfg.seed, c, sz.keys)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			if w.served {
				p.servedClient(e.conns[c], st, or.view(), cs, c, perClient, sliceLen, t0)
			} else {
				p.embeddedClient(e.db, st, or.view(), cs, c, perClient, sliceLen, t0)
			}
			cs.end = time.Now()
		}(c)
	}
	t0 = time.Now()
	close(start)
	wg.Wait()
	for _, cs := range states {
		if d := cs.end.Sub(t0); d > p.wall {
			p.wall = d
		}
		p.foldSlices(cs, sliceLen)
		for i := range p.lat {
			p.lat[i].merge(cs.lat[i])
		}
		p.tl.merge(cs.tl)
		p.scanPairs += cs.scanPairs
		p.bursts += cs.bursts
	}
}

// embeddedClient is one closed-loop client calling the engine directly. The
// clock for an op starts after its key and value are built.
func (p *pass) embeddedClient(db *core.DB, st *stream, or *oracle, cs *clientState, c int, n, sliceLen int64, t0 time.Time) {
	rec, every, parent := p.cfg.rec, int64(p.cfg.opEvery), p.phaseSpan
	keys := p.cfg.sz.keys
	var key, want [keyLen]byte
	val := make([]byte, 0, 4096)
	for i := int64(0); i < n; i++ {
		kind, idx := st.next()
		putKey(key[:], idx)
		var begin time.Time
		var d time.Duration
		p.attempted.Add(1)
		switch kind {
		case opPut:
			ver := or.ver[idx] + 1
			val = val[:or.size(idx, ver)]
			fillValue(val, idx, ver)
			begin = time.Now()
			err := db.Put(key[:], val)
			d = time.Since(begin)
			if err != nil {
				p.fail("put %d: %v", idx, err)
			} else {
				or.ver[idx] = ver
			}
			cs.lat[latPut].add(d)
		case opGet:
			begin = time.Now()
			got, err := db.Get(key[:])
			d = time.Since(begin)
			switch {
			case err != nil && !errors.Is(err, core.ErrNotFound):
				p.fail("get %d: %v", idx, err)
			case !or.matches(idx, got, err == nil, i%64 == 0):
				p.fail("get %d: wrong value (len %d, version %d)", idx, len(got), or.ver[idx])
			}
			cs.lat[latGet].add(d)
		case opScan:
			begin = time.Now()
			kvs, err := db.Scan(key[:], scanLen)
			d = time.Since(begin)
			wantN := min(int64(scanLen), keys-idx)
			switch {
			case err != nil:
				p.fail("scan %d: %v", idx, err)
			case int64(len(kvs)) != wantN:
				p.fail("scan %d: %d pairs, want %d", idx, len(kvs), wantN)
			default:
				// Every scan: the range's two ends. Every 64th: every key,
				// and the value of each key this client owns (another
				// client's keys would be changing under it).
				full := i%64 == 0
				for j := range kvs {
					if !full && j != 0 && j != len(kvs)-1 {
						continue
					}
					at := idx + int64(j)
					putKey(want[:], at)
					if !bytes.Equal(kvs[j].Key, want[:]) {
						p.fail("scan %d: pair %d is key %q", idx, j, kvs[j].Key)
					} else if full && at%st.stride == st.client && !or.matches(at, kvs[j].Value, true, true) {
						p.fail("scan %d: pair %d has a wrong value", idx, j)
					}
				}
			}
			cs.scanPairs += int64(len(kvs))
			cs.lat[latScan].add(d)
		}
		cs.tl.add(begin.Sub(t0), d)
		if (i+1)%sliceLen == 0 {
			cs.mark(begin, d, t0)
		}
		if rec != nil && i%every == 0 {
			s := rec.At(begin)
			rec.Add("op."+kind.String(), parent, uint64(int64(c)*n+i+1), s, s+int64(d))
		}
	}
}

// servedClient is one closed-loop connection sending pipelined bursts. The
// clock covers one burst's round trip: write all commands, read all replies.
func (p *pass) servedClient(conn *client.Client, st *stream, or *oracle, cs *clientState, c int, n, sliceLen int64, t0 time.Time) {
	rec, every, parent := p.cfg.rec, int64(p.cfg.opEvery), p.phaseSpan
	burst := p.cfg.w.burst
	type expect struct {
		kind opKind
		idx  int64
		ver  uint32
	}
	exp := make([]expect, burst)
	var key [keyLen]byte
	val := make([]byte, 0, 4096)
	pipe := conn.Pipeline()
	for b := int64(0); b < n/int64(burst); b++ {
		build := time.Now()
		for j := range exp {
			kind, idx := st.next()
			putKey(key[:], idx)
			if kind == opPut {
				ver := or.ver[idx] + 1
				val = val[:or.size(idx, ver)]
				fillValue(val, idx, ver)
				pipe.Do("SET", key[:], val)
				or.ver[idx] = ver
			} else {
				pipe.Do("GET", key[:])
			}
			exp[j] = expect{kind, idx, or.ver[idx]}
		}
		begin := time.Now()
		replies, err := pipe.Exec()
		d := time.Since(begin)
		p.attempted.Add(int64(burst))
		if err != nil || len(replies) != burst {
			p.fail("burst %d: %d replies, err %v", b, len(replies), err)
			p.failed.Add(int64(burst - 1))
			return // the connection's framing is gone; the rest cannot be trusted
		}
		for j, x := range exp {
			switch r := replies[j].(type) {
			case string:
				if x.kind != opPut || r != "OK" {
					p.fail("burst %d cmd %d: reply %q", b, j, r)
				}
			case []byte:
				if x.kind != opGet || !or.matchesVer(x.idx, x.ver, r, r != nil, (b*int64(burst)+int64(j))%64 == 0) {
					p.fail("burst %d cmd %d: get %d wrong value (len %d, version %d)", b, j, x.idx, len(r), x.ver)
				}
			default:
				p.fail("burst %d cmd %d: reply %v", b, j, r)
			}
		}
		cs.bursts++
		cs.lat[latBurst].add(d)
		cs.tl.add(begin.Sub(t0), d)
		if (b+1)%sliceLen == 0 {
			cs.mark(begin, d, t0)
		}
		if rec != nil && b%every == 0 {
			op := uint64(int64(c)*n/int64(burst) + b + 1)
			s := rec.At(begin)
			id := rec.Add("burst", parent, op, rec.At(build), rec.Now())
			rec.Add("client.roundtrip", id, op, s, s+int64(d))
		}
	}
}

// verify closes the store, reopens it from the same filesystem, and reads
// every oracle key; then walks the whole key space in order and checks that
// exactly the written keys exist.
func (p *pass) verify(e *engine, or *oracle) error {
	e.tfs.SetParent(p.phaseSpan)
	t0 := time.Now()
	if err := e.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	opts := e.opts
	db, err := core.Open(dbDir, opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	p.reopenMS = float64(time.Since(t0)) / 1e6
	e.db = db

	var key [keyLen]byte
	for idx := range or.ver {
		putKey(key[:], int64(idx))
		got, err := db.Get(key[:])
		p.attempted.Add(1)
		switch {
		case err != nil && !errors.Is(err, core.ErrNotFound):
			p.fail("verify get %d: %v", idx, err)
		case !or.matches(int64(idx), got, err == nil, true):
			p.fail("verify get %d: wrong value after reopen (len %d, version %d)", idx, len(got), or.ver[idx])
		}
	}

	it, err := db.NewIterator(nil)
	if err != nil {
		return fmt.Errorf("verify iterator: %w", err)
	}
	next := int64(0)
	advance := func() {
		for next < int64(len(or.ver)) && or.ver[next] == 0 {
			next++
		}
	}
	advance()
	p.attempted.Add(1)
	for it.SeekToFirst(); it.Valid(); it.Next() {
		idx, ok := keyIndex(it.Key())
		if !ok || idx != next {
			p.fail("verify walk: found key %q, expected index %d", it.Key(), next)
			break
		}
		next++
		advance()
	}
	if err := it.Error(); err != nil {
		p.fail("verify walk: %v", err)
	} else if next != int64(len(or.ver)) && p.failed.Load() == 0 {
		p.fail("verify walk: ended before key index %d", next)
	}
	if err := it.Close(); err != nil {
		return fmt.Errorf("verify iterator close: %w", err)
	}
	return e.close()
}

// processCPU is user+system CPU time consumed by this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
