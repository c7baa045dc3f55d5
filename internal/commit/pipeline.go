package commit

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/invariants"
)

// ErrPipelineClosed is the default error returned by Commit after Close;
// Options.ClosedError substitutes the store's own.
var ErrPipelineClosed = errors.New("commit: pipeline closed")

// Env is the store machinery a Pipeline drives. Neither callback is invoked
// while the pipeline's internal lock is held, so both may take the store
// mutex freely.
type Env struct {
	// MakeRoom blocks until the store admits a write group (the
	// Controller); called once per group by its leader before the group is
	// formed, so writers arriving during a stall still join it.
	MakeRoom func() error
	// Commit durably applies one formed group: stamp its sequence range,
	// append its single record to the WAL, fsync if sync, and apply it to
	// the memtable — with the fsync outside the store mutex.
	Commit func(g *batch.Group, sync bool) error
}

// Options tunes a Pipeline.
type Options struct {
	// MaxGroupBytes stops the leader draining followers once the group's
	// encoded record reaches this size (default 1 MiB).
	MaxGroupBytes int
	// ClosedError is returned by commits after Close (default
	// ErrPipelineClosed).
	ClosedError error
}

// Metrics is a snapshot of the pipeline's counters.
type Metrics struct {
	Groups     int64 // write groups committed
	Batches    int64 // member batches committed (≥ Groups)
	GroupBytes int64 // encoded bytes committed
	SyncNanos  int64 // reserved for the store's WAL-sync time (not set here)
}

// writer is one queued commit request. A writer belongs to the committer
// that took it until that committer has read its result under p.mu, which is
// where it goes back on the free list — so nobody sets or reads the result of
// a writer that has been handed to another committer.
type writer struct {
	b    *batch.Batch
	sync bool
	done bool
	err  error
}

// Pipeline is the group-commit front end, RocksDB write-group style:
// concurrent committers enqueue; the writer at the head of the queue
// becomes the group leader, waits for admission, drains the queue into one
// group, commits it as a single WAL record, and wakes its followers. At
// most one group is in flight, which serializes WAL appends and memtable
// application without any caller holding the store mutex across an fsync.
type Pipeline struct {
	env       Env
	maxBytes  int
	closedErr error

	mu      invariants.Mutex
	cond    *sync.Cond
	queue   []*writer // waiting committers; queue[0] is the next leader
	free    []*writer // recycled writers
	leading bool      // a leader is building or committing a group
	closed  bool

	// group and followers are the in-flight group's, reused from one leader
	// to the next: while leading is set only that leader touches them (the
	// followers under mu), and it resets them before it gives leading up.
	group     batch.Group
	followers []*writer

	groups     atomic.Int64
	batches    atomic.Int64
	groupBytes atomic.Int64
}

// NewPipeline builds a pipeline over env.
func NewPipeline(env Env, opts Options) *Pipeline {
	if opts.MaxGroupBytes <= 0 {
		opts.MaxGroupBytes = 1 << 20
	}
	if opts.ClosedError == nil {
		opts.ClosedError = ErrPipelineClosed
	}
	p := &Pipeline{env: env, maxBytes: opts.MaxGroupBytes, closedErr: opts.ClosedError}
	p.mu.Rank("commit.pipeline.mu", 35)
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Metrics snapshots the group counters.
func (p *Pipeline) Metrics() Metrics {
	return Metrics{
		Groups:     p.groups.Load(),
		Batches:    p.batches.Load(),
		GroupBytes: p.groupBytes.Load(),
	}
}

// Commit enqueues b and blocks until it is durably applied (as leader or
// follower of a group) or fails. sync requests an fsync before return; a
// sync batch never rides a non-sync leader's group, so the request is
// honored by its own group's leader.
func (p *Pipeline) Commit(b *batch.Batch, sync bool) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return p.closedErr
	}
	var w *writer
	if n := len(p.free); n > 0 {
		w, p.free = p.free[n-1], p.free[:n-1]
	} else {
		w = new(writer)
	}
	*w = writer{b: b, sync: sync}
	p.queue = append(p.queue, w)
	for !w.done && !(len(p.queue) > 0 && p.queue[0] == w && !p.leading) {
		p.cond.Wait()
	}
	if w.done {
		err := w.err
		p.recycle(w)
		p.mu.Unlock()
		return err
	}
	// Leader: claim the in-flight slot and leave the queue; followers keep
	// enqueueing while this group waits for admission.
	p.leading = true
	p.dequeue(1)
	p.mu.Unlock()

	err := p.env.MakeRoom()
	if err == nil {
		p.group.Add(b)
		p.drainFollowers(sync)
		err = p.env.Commit(&p.group, sync)
		if err == nil {
			p.groups.Add(1)
			p.batches.Add(int64(p.group.Len()))
			p.groupBytes.Add(int64(p.group.Size()))
		}
		// The members go back to their callers when those wake: drop them
		// first.
		p.group.Reset()
	}

	p.mu.Lock()
	for i, f := range p.followers {
		f.done, f.err = true, err
		p.followers[i] = nil
	}
	p.followers = p.followers[:0]
	p.recycle(w)
	p.leading = false
	p.cond.Broadcast()
	p.mu.Unlock()
	return err
}

// recycle puts a writer whose committer is done with it on the free list.
// Caller holds p.mu.
func (p *Pipeline) recycle(w *writer) {
	w.b = nil
	p.free = append(p.free, w)
}

// dequeue removes the first n queued writers in place, so the queue keeps
// its capacity. Caller holds p.mu.
func (p *Pipeline) dequeue(n int) {
	m := copy(p.queue, p.queue[n:])
	clear(p.queue[m:])
	p.queue = p.queue[:m]
}

// drainFollowers moves queued writers into the leader's group, stopping at
// the byte cap or — when the leader is non-sync — at the first sync writer,
// which must lead its own group to get its fsync (LevelDB's rule; a sync
// leader may absorb non-sync followers, upgrading their durability).
func (p *Pipeline) drainFollowers(leaderSync bool) {
	p.mu.Lock()
	n := 0
	for n < len(p.queue) && p.group.Size() < p.maxBytes {
		f := p.queue[n]
		if f.sync && !leaderSync {
			break
		}
		p.followers = append(p.followers, f)
		p.group.Add(f.b)
		n++
	}
	p.dequeue(n)
	p.mu.Unlock()
}

// Close fails all queued writers and every later Commit with the closed
// error, then waits for an in-flight group to finish. The in-flight
// leader's own fate is decided by its environment (a closing store fails
// admission; a group already admitted commits normally).
func (p *Pipeline) Close() {
	p.mu.Lock()
	p.closed = true
	for _, w := range p.queue {
		w.done, w.err = true, p.closedErr
	}
	p.dequeue(len(p.queue))
	p.cond.Broadcast()
	for p.leading {
		p.cond.Wait()
	}
	p.mu.Unlock()
}
