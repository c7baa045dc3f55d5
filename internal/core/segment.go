package core

import (
	"sync"

	"repro/internal/batch"
	"repro/internal/keys"
)

// This file holds the two halves of a pipelined client stream (the server's
// connection loop): a Segment, a write batch whose commit runs on while the
// stream goes on, and a ReadPoint, the sequence a read in the stream answers
// at, with ReadLatest, its read of the latest state. None is a method of DB,
// so the public package, which aliases DB, does not grow them.

// Segment is a write batch committed ahead of its acknowledgement. Submit
// returns once every shard the batch touches has appended the batch's WAL
// record, so its sequence range is assigned; the fsyncs and publishes finish
// on goroutines of the segment's own until Wait joins them. A stream that
// submits segments one after another gets them assigned, and so published,
// in that order, while their fsyncs run side by side.
//
// Segments are pooled on their DB: a segment holds its batch, a sub-batch,
// an error slot and a commit body per shard, all made once, so a stream that
// keeps submitting allocates none of it again. Multi-shard Applies borrow
// the same scratch. Shard commits copy what they keep (WAL record, memtable
// entries, separated values), so a segment is free again once Wait returns.
type Segment struct {
	db *DB
	b  *batch.Batch // the caller fills it between NewSegment and Submit

	subs     []*batch.Batch // per-shard sub-batches of a split batch
	errs     []error
	commit   []func()       // commit[i] commits shard i's part; bound once
	whole    int            // the shard that commits b itself, unsplit; -1: none
	notify   func()         // appended.Done, bound once
	appended sync.WaitGroup // shard commits not yet appended
	done     sync.WaitGroup // shard commits not yet returned
}

func newSegment(db *DB) *Segment {
	n := len(db.shards)
	s := &Segment{db: db, b: batch.New(), subs: make([]*batch.Batch, n), errs: make([]error, n),
		commit: make([]func(), n), whole: -1}
	s.notify = s.appended.Done
	for i := range s.subs {
		i := i
		s.subs[i] = batch.New()
		s.commit[i] = func() {
			defer s.done.Done()
			b := s.subs[i]
			if i == s.whole {
				b = s.b
			}
			s.errs[i] = db.shards[i].commit(b, s.notify)
		}
	}
	return s
}

// NewSegment takes a segment with an empty batch from db's pool.
func NewSegment(db *DB) *Segment { return db.segments.Get().(*Segment) }

// Batch is the segment's batch, for the caller to fill before Submit.
func (s *Segment) Batch() *batch.Batch { return s.b }

// Submit starts committing the batch and returns once every shard it touches
// has assigned its part a sequence range (its WAL record is appended) or
// failed. A read point taken after Submit returns is at or past every
// sequence of the batch on its shard. The batch must not be touched until
// Wait returns.
func (s *Segment) Submit() {
	if s.b.Empty() {
		return
	}
	first, multi := s.db.route(s.b)
	if multi {
		s.split(s.b)
	} else {
		s.whole = first
	}
	s.launch(-1)
	s.appended.Wait()
}

// Wait blocks until every shard commit of the segment has returned and
// reports the lowest-numbered failing shard's error. It returns the segment
// to the pool: the caller must not use it again. Waiting for a segment never
// submitted discards its batch.
func (s *Segment) Wait() error {
	s.done.Wait()
	var err error
	for i, sb := range s.subs {
		if err == nil {
			err = s.errs[i]
		}
		s.errs[i] = nil
		sb.Reset()
	}
	s.b.Reset()
	s.whole = -1
	s.db.segments.Put(s)
	return err
}

// split copies b's entries into per-shard sub-batches, keeping their order
// within each shard (a key's updates all land in one sub-batch, in batch
// order).
func (s *Segment) split(b *batch.Batch) {
	_ = b.Each(func(kind keys.Kind, key, value []byte) error {
		sb := s.subs[s.db.shardIndex(key)]
		if kind == keys.KindDelete {
			sb.Delete(key)
		} else {
			sb.Set(key, value)
		}
		return nil
	})
}

// launch starts a goroutine per shard with a part to commit, skipping shard
// skip, which the caller commits itself.
func (s *Segment) launch(skip int) {
	for i, sb := range s.subs {
		if i != skip && (i == s.whole || !sb.Empty()) {
			s.appended.Add(1)
			s.done.Add(1)
			go s.commit[i]()
		}
	}
}

// ReadPoint is where a read in a pipelined stream answers: one shard's
// sequence, registered in that shard's snapshot list from the moment it is
// taken until the read is done, so compaction keeps the versions it sees.
type ReadPoint struct {
	st  *store
	seq keys.Seq
}

// TakeReadPoint returns the read point of key for a stream that has writes
// submitted and not yet acknowledged: its shard's last assigned sequence.
// Every batch submitted before the call is at or below the point on that
// shard and every batch submitted after it is above, and a write already
// acknowledged to anyone was published, hence assigned, before it — so a
// read at the point sees the stream's earlier writes, none of its later ones,
// and everything acknowledged before the read was sent. The point is
// registered in the same critical section that reads it; Read or Release it.
// On a closed store the point is its final sequence, and Read fails with
// ErrClosed.
func TakeReadPoint(db *DB, key []byte) ReadPoint {
	st := db.shardOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.snapshots.add(st.lastAlloc)
	return ReadPoint{st: st, seq: st.lastAlloc}
}

// Read waits until the point's shard has published through the point, or
// fails with the store's error, then reads key at the point and releases it.
// key must be the key the point was taken for. The value is returned as it
// lies in the store (a memtable record, a data block, the block cache's copy
// of a separated value): read-only, to be copied, not written.
func (p ReadPoint) Read(key []byte) ([]byte, error) {
	defer p.Release()
	if err := p.st.awaitPublished(p.seq); err != nil {
		return nil, err
	}
	return p.st.getAt(key, &p.seq, false)
}

// Release drops the point's registration without reading.
func (p ReadPoint) Release() { p.st.snapshots.release(p.seq) }

// ReadLatest is DB.Get for a stream with nothing owed, which copies the
// value into its reply at once: the same read, counted and sampled the same
// way, but the value comes back as ReadPoint.Read returns it, read-only.
func ReadLatest(db *DB, key []byte) ([]byte, error) {
	return db.shardOf(key).getAt(key, nil, false)
}

// LiveReadPoints counts the read points and snapshots registered on db's
// shards now: what holds compaction to the versions a reader still needs.
// A stream that has answered or released every point it took leaves none.
func LiveReadPoints(db *DB) int {
	n := 0
	for _, st := range db.shards {
		n += st.snapshots.len()
	}
	return n
}

// awaitPublished blocks until the published sequence reaches seq, or returns
// the error that poisoned the store: a poisoned store publishes nothing more,
// and every group that took a sequence range either publishes it or poisons
// the store (fatal wakes the waiters).
func (db *store) awaitPublished(seq keys.Seq) error {
	if db.set.LastSeq() >= seq {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for db.set.LastSeq() < seq {
		if db.bgErr != nil {
			return db.bgErr
		}
		db.publishCond.Wait()
	}
	return nil
}
