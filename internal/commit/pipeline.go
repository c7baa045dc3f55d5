package commit

import (
	"errors"
	"sync"

	"repro/internal/batch"
	"repro/internal/invariants"
)

// ErrClosed is returned by Commit after Close. The store exports it as its
// own ErrClosed, so a commit refused here and a read refused by the store
// fail with the same error.
var ErrClosed = errors.New("ldc: database closed")

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
	// the memtable — with the fsync outside the store mutex. Once the
	// record is appended Commit may call release, which lets the next group
	// form and append while this one is still syncing, and tells the group's
	// writers their batches are appended; the pipeline releases the slot
	// itself when Commit returns without having done so. Groups that overlap
	// this way must still publish in the order they appended, and that order
	// is Commit's to keep.
	Commit func(g *batch.Group, sync bool, release func()) error
}

// MaxGroupBytes stops a leader draining followers once the group's encoded
// record reaches it. The server applies a connection's pipelined writes in
// bursts of the same size, so a burst never outgrows one group.
const MaxGroupBytes = 1 << 20

// writer is one queued commit request. A writer belongs to the committer
// that took it until that committer has read its result under p.mu, which is
// where it goes back on the free list — so nobody sets or reads the result of
// a writer that has been handed to another committer.
type writer struct {
	b        *batch.Batch
	sync     bool
	done     bool
	err      error
	appended func() // Commit's callback; nil once called
}

// group is one formed write group: the members' merged batch and the
// followers to wake with its outcome. A group belongs to its leader from
// formation until the followers are woken, then goes back on the pipeline's
// free list; release is bound once, when the group is made, so handing it to
// Env.Commit costs nothing.
type group struct {
	batch     batch.Group
	leader    *writer
	followers []*writer
	released  bool // the leader slot was given up (under p.mu)
	release   func()
}

// Pipeline is the group-commit front end, RocksDB write-group style:
// concurrent committers enqueue; the writer at the head of the queue
// becomes the group leader, waits for admission, drains the queue into one
// group, commits it as a single WAL record, and wakes its followers. One
// leader at a time holds the slot that forms a group and appends its record;
// a sync group gives the slot up once its record is appended (Env.Commit's
// release), so the next group forms and appends while earlier ones are
// still in their fsyncs. Several groups may thus be in flight; Close waits
// for all of them.
type Pipeline struct {
	env Env

	mu      invariants.Mutex
	cond    *sync.Cond
	queue   []*writer // waiting committers; queue[0] is the next leader
	free    []*writer // recycled writers
	leading bool      // a leader is forming a group or appending its record
	formed  int       // groups formed and not yet finished
	closed  bool

	// groups are the recycled groups: a leader takes one under mu and puts
	// it back, reset, once its followers are woken.
	groups []*group
}

// NewPipeline builds a pipeline over env.
func NewPipeline(env Env) *Pipeline {
	p := &Pipeline{env: env}
	p.mu.Rank("commit.pipeline.mu", 35)
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Commit enqueues b and blocks until it is durably applied (as leader or
// follower of a group) or fails. sync requests an fsync before return; a
// sync batch never rides a non-sync leader's group, so the request is
// honored by its own group's leader.
//
// appended, if not nil, is called exactly once, before Commit returns: when
// b's group gives the leader slot up after appending its record (so b holds
// its sequence range, and a batch committed after the call is appended
// after b), or else when Commit returns for any other reason — a non-sync
// group, an admission error, Close. It runs under the pipeline's lock, so it
// must not block or call back into the pipeline.
func (p *Pipeline) Commit(b *batch.Batch, sync bool, appended func()) error {
	p.mu.Lock()
	if p.closed {
		if appended != nil {
			appended()
		}
		p.mu.Unlock()
		return ErrClosed
	}
	var w *writer
	if n := len(p.free); n > 0 {
		w, p.free = p.free[n-1], p.free[:n-1]
	} else {
		w = new(writer)
	}
	*w = writer{b: b, sync: sync, appended: appended}
	p.queue = append(p.queue, w)
	for !w.done && !(len(p.queue) > 0 && p.queue[0] == w && !p.leading) {
		p.cond.Wait()
	}
	if w.done {
		err := w.err
		p.notifyLocked(w) // a follower was told at its group's release; Close turns writers away untold
		p.recycle(w)
		p.mu.Unlock()
		return err
	}
	// Leader: claim the slot, leave the queue and take a group; followers
	// keep enqueueing while this group waits for admission.
	p.leading = true
	p.formed++
	p.dequeue(1)
	g := p.newGroupLocked()
	g.leader = w
	p.mu.Unlock()

	err := p.env.MakeRoom()
	if err == nil {
		g.batch.Add(b)
		p.drainFollowers(g, sync)
		err = p.env.Commit(&g.batch, sync, g.release)
		// The members go back to their callers when those wake: drop them
		// first.
		g.batch.Reset()
	}

	p.mu.Lock()
	p.releaseLocked(g)
	for i, f := range g.followers {
		f.done, f.err = true, err
		g.followers[i] = nil
	}
	g.followers = g.followers[:0]
	g.leader = nil
	g.released = false
	p.groups = append(p.groups, g)
	p.formed--
	p.recycle(w)
	p.cond.Broadcast()
	p.mu.Unlock()
	return err
}

// newGroupLocked takes a group off the free list, or makes one. Caller holds
// p.mu.
func (p *Pipeline) newGroupLocked() *group {
	if n := len(p.groups); n > 0 {
		g := p.groups[n-1]
		p.groups = p.groups[:n-1]
		return g
	}
	g := new(group)
	g.release = func() {
		p.mu.Lock()
		p.releaseLocked(g)
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	return g
}

// releaseLocked gives up the leader slot g holds, once, and tells g's
// writers their batches are appended. Caller holds p.mu and wakes the
// waiters.
func (p *Pipeline) releaseLocked(g *group) {
	if !g.released {
		g.released = true
		p.leading = false
		p.notifyLocked(g.leader)
		for _, f := range g.followers {
			p.notifyLocked(f)
		}
	}
}

// notifyLocked calls w's appended callback if it has not been called yet.
// Caller holds p.mu.
func (p *Pipeline) notifyLocked(w *writer) {
	if w.appended != nil {
		w.appended()
		w.appended = nil
	}
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

// drainFollowers moves queued writers into the leader's group g, stopping at
// the byte cap or — when the leader is non-sync — at the first sync writer,
// which must lead its own group to get its fsync (LevelDB's rule; a sync
// leader may absorb non-sync followers, upgrading their durability).
func (p *Pipeline) drainFollowers(g *group, leaderSync bool) {
	p.mu.Lock()
	n := 0
	for n < len(p.queue) && g.batch.Size() < MaxGroupBytes {
		f := p.queue[n]
		if f.sync && !leaderSync {
			break
		}
		g.followers = append(g.followers, f)
		g.batch.Add(f.b)
		n++
	}
	p.dequeue(n)
	p.mu.Unlock()
}

// Close fails all queued writers and every later Commit with the closed
// error, then waits for every formed group to finish. The fate of a group
// already formed is decided by its environment (a closing store fails
// admission; a group already admitted commits normally).
func (p *Pipeline) Close() {
	p.mu.Lock()
	p.closed = true
	for _, w := range p.queue {
		w.done, w.err = true, ErrClosed
	}
	p.dequeue(len(p.queue))
	p.cond.Broadcast()
	for p.formed > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}
