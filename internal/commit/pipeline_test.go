package commit

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/invariants"
	"repro/internal/keys"
)

// recordingEnv journals every committed group for assertions. Its gate, when
// set, blocks inside Commit so tests can pile followers onto the queue.
type recordingEnv struct {
	mu       sync.Mutex
	groups   [][]keys.Seq // per group: each member's stamped start sequence
	sizes    []int        // member count per group
	syncs    []bool
	nextSeq  keys.Seq
	makeRoom func() error

	gate     chan struct{} // non-nil: Commit waits for a tick per group
	entered  chan struct{} // signaled when Commit is reached
	roomErr  error
	roomHits int
}

func newRecordingEnv() *recordingEnv {
	return &recordingEnv{nextSeq: 1}
}

func (r *recordingEnv) env() Env {
	return Env{
		MakeRoom: func() error {
			r.mu.Lock()
			r.roomHits++
			err := r.roomErr
			r.mu.Unlock()
			return err
		},
		Commit: func(g *batch.Group, sync bool, _ func()) error {
			if r.entered != nil {
				r.entered <- struct{}{}
			}
			if r.gate != nil {
				<-r.gate
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			g.SetSequence(r.nextSeq)
			r.nextSeq += keys.Seq(g.Count())
			r.sizes = append(r.sizes, g.Len())
			r.syncs = append(r.syncs, sync)
			return nil
		},
	}
}

func oneOp(key string) *batch.Batch {
	b := batch.New()
	b.Set([]byte(key), []byte("v"))
	return b
}

func TestSingleWriterSingleGroup(t *testing.T) {
	r := newRecordingEnv()
	p := NewPipeline(r.env())
	b := oneOp("a")
	if err := p.Commit(b, false, nil); err != nil {
		t.Fatal(err)
	}
	if len(r.sizes) != 1 || r.sizes[0] != 1 {
		t.Fatalf("groups = %v, want one group of one", r.sizes)
	}
	if b.Sequence() != 1 {
		t.Fatalf("batch sequence = %d, want 1", b.Sequence())
	}
	if r.roomHits != 1 {
		t.Fatalf("MakeRoom called %d times, want 1", r.roomHits)
	}
}

// TestFollowersJoinLeadersGroup blocks the first group inside Commit, piles
// up writers, and verifies they all commit as one following group with
// contiguous member sequences.
func TestFollowersJoinLeadersGroup(t *testing.T) {
	r := newRecordingEnv()
	r.gate = make(chan struct{})
	r.entered = make(chan struct{}, 16)
	p := NewPipeline(r.env())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Commit(oneOp("leader"), false, nil)
	}()
	<-r.entered // first group is mid-commit

	const followers = 8
	batches := make([]*batch.Batch, followers)
	for i := range batches {
		batches[i] = oneOp(fmt.Sprintf("f%d", i))
	}
	for i := range batches {
		wg.Add(1)
		go func(b *batch.Batch) {
			defer wg.Done()
			if err := p.Commit(b, false, nil); err != nil {
				t.Error(err)
			}
		}(batches[i])
	}
	// Wait until all followers are queued behind the blocked group.
	deadline := time.After(5 * time.Second)
	for {
		p.mu.Lock()
		n := len(p.queue)
		p.mu.Unlock()
		if n == followers {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d/%d followers queued", n, followers)
		case <-time.After(time.Millisecond):
		}
	}
	r.gate <- struct{}{} // release group 1
	<-r.entered          // group 2 formed
	r.gate <- struct{}{} // release group 2
	wg.Wait()

	if len(r.sizes) != 2 || r.sizes[0] != 1 || r.sizes[1] != followers {
		t.Fatalf("group sizes = %v, want [1 %d]", r.sizes, followers)
	}
	// Member sequences must tile the group's range contiguously.
	seen := map[keys.Seq]bool{}
	for _, b := range batches {
		seen[b.Sequence()] = true
	}
	for s := keys.Seq(2); s < 2+followers; s++ {
		if !seen[s] {
			t.Fatalf("no member stamped with sequence %d; got %v", s, seen)
		}
	}
}

// TestSyncWriterNeverRidesNonSyncGroup pins LevelDB's rule at the draining
// step: a batch that asked for fsync is not absorbed by a leader that will
// not fsync, while a sync leader absorbs non-sync followers (upgrading
// their durability).
func TestSyncWriterNeverRidesNonSyncGroup(t *testing.T) {
	r := newRecordingEnv()
	p := NewPipeline(r.env())
	mkQueue := func() []*writer {
		return []*writer{
			{b: oneOp("f1"), sync: false},
			{b: oneOp("f2"), sync: true},
			{b: oneOp("f3"), sync: false},
		}
	}

	// Non-sync leader: drains up to, but not including, the sync writer.
	p.queue = mkQueue()
	g := p.newGroupLocked()
	g.batch.Add(oneOp("leader"))
	p.drainFollowers(g, false)
	followers := g.followers
	if len(followers) != 1 || followers[0].sync {
		t.Fatalf("non-sync leader drained %d followers (sync=%v), want 1 non-sync",
			len(followers), followers[0].sync)
	}
	if len(p.queue) != 2 || !p.queue[0].sync {
		t.Fatalf("queue after drain = %d writers, head sync=%v; want the sync writer leading next",
			len(p.queue), p.queue[0].sync)
	}

	// Sync leader: absorbs everything.
	p.queue = mkQueue()
	g.batch.Reset()
	g.batch.Add(oneOp("leader"))
	g.followers = g.followers[:0]
	p.drainFollowers(g, true)
	followers = g.followers
	if len(followers) != 3 || len(p.queue) != 0 {
		t.Fatalf("sync leader drained %d followers, %d left; want 3, 0", len(followers), len(p.queue))
	}
}

func TestMaxGroupBytesCapsDraining(t *testing.T) {
	r := newRecordingEnv()
	r.gate = make(chan struct{})
	r.entered = make(chan struct{}, 64)
	p := NewPipeline(r.env())
	big := func(key string) *batch.Batch {
		b := batch.New()
		b.Set([]byte(key), make([]byte, 300<<10))
		return b
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p.Commit(big("g1"), false, nil) }()
	<-r.entered

	const n = 6
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); p.Commit(big(fmt.Sprintf("w%d", i)), false, nil) }(i)
	}
	for {
		p.mu.Lock()
		queued := len(p.queue)
		p.mu.Unlock()
		if queued == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	allDone := make(chan struct{})
	go func() { wg.Wait(); close(allDone) }()
	r.gate <- struct{}{} // release the first group
	for running := true; running; {
		select {
		case <-r.entered:
			r.gate <- struct{}{}
		case <-allDone:
			running = false
		}
	}
	// Each batch carries a 300 KiB value: the 1 MiB cap stops draining once
	// the group holds 4 members.
	for i, s := range r.sizes[1:] {
		if s > 4 {
			t.Fatalf("group %d has %d members despite the %d-byte cap (sizes %v)", i+1, s, MaxGroupBytes, r.sizes)
		}
	}
	if len(r.sizes) < 3 {
		t.Fatalf("cap produced %v groups; expected the queue split across several", r.sizes)
	}
}

func TestMakeRoomErrorFailsOnlyLeader(t *testing.T) {
	r := newRecordingEnv()
	p := NewPipeline(r.env())
	r.roomErr = errors.New("stalled out")
	if err := p.Commit(oneOp("a"), false, nil); err == nil || err.Error() != "stalled out" {
		t.Fatalf("err = %v, want stalled out", err)
	}
	if len(r.sizes) != 0 {
		t.Fatal("group committed despite admission failure")
	}
	r.roomErr = nil
	if err := p.Commit(oneOp("b"), false, nil); err != nil {
		t.Fatalf("pipeline unusable after a failed admission: %v", err)
	}
}

func TestCloseFailsPendingAndFutureCommits(t *testing.T) {
	r := newRecordingEnv()
	r.gate = make(chan struct{})
	r.entered = make(chan struct{}, 4)
	p := NewPipeline(r.env())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p.Commit(oneOp("inflight"), false, nil) }()
	<-r.entered

	pendingErr := make(chan error, 1)
	wg.Add(1)
	go func() { defer wg.Done(); pendingErr <- p.Commit(oneOp("pending"), false, nil) }()
	for {
		p.mu.Lock()
		queued := len(p.queue)
		p.mu.Unlock()
		if queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	closeDone := make(chan struct{})
	go func() { p.Close(); close(closeDone) }()
	if err := <-pendingErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("pending writer err = %v, want ErrClosed", err)
	}
	select {
	case <-closeDone:
		t.Fatal("Close returned while a group was in flight")
	case <-time.After(10 * time.Millisecond):
	}
	r.gate <- struct{}{} // let the in-flight group finish
	<-closeDone
	wg.Wait()

	if err := p.Commit(oneOp("late"), false, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close = %v, want ErrClosed", err)
	}
	if len(r.sizes) != 1 || r.sizes[0] != 1 {
		t.Fatalf("committed groups = %v, want just the in-flight one", r.sizes)
	}
}

// TestConcurrentCommitStress hammers the pipeline from many goroutines and
// checks every batch got a unique, contiguous sequence range.
func TestConcurrentCommitStress(t *testing.T) {
	r := newRecordingEnv()
	p := NewPipeline(r.env())
	const writers, per = 8, 200
	var wg sync.WaitGroup
	seqs := make(chan keys.Seq, writers*per)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b := batch.New()
				b.Set([]byte(fmt.Sprintf("w%d-%d", w, i)), []byte("v"))
				b.Delete([]byte("x"))
				if err := p.Commit(b, w%2 == 0, nil); err != nil {
					t.Error(err)
					return
				}
				seqs <- b.Sequence()
			}
		}(w)
	}
	wg.Wait()
	close(seqs)
	seen := map[keys.Seq]bool{}
	for s := range seqs {
		if seen[s] {
			t.Fatalf("sequence %d assigned twice", s)
		}
		seen[s] = true
	}
	if len(seen) != writers*per {
		t.Fatalf("%d unique sequences, want %d", len(seen), writers*per)
	}
	batches := 0
	for _, n := range r.sizes {
		batches += n
	}
	if batches != writers*per {
		t.Fatalf("groups hold %d batches, want %d", batches, writers*per)
	}
}

// stubEnv admits at once and does what a store's commit does to a group:
// stamp it and take its merged record.
func stubEnv(commit func(g *batch.Group) error) Env {
	seq := keys.Seq(1)
	return Env{
		MakeRoom: func() error { return nil },
		Commit: func(g *batch.Group, _ bool, _ func()) error {
			g.SetSequence(seq)
			seq += keys.Seq(g.Count())
			_ = g.Batch().Encode()
			return commit(g)
		},
	}
}

// TestCommitAllocsLeaderAlone: an uncontended Commit reuses a writer and a
// group from the free lists and the queue's capacity, so in steady state it
// allocates nothing — whether its environment gives the leader slot up
// early or leaves that to the pipeline.
func TestCommitAllocsLeaderAlone(t *testing.T) {
	if invariants.Enabled {
		t.Skip("the invariants build allocates in its lock-rank checks")
	}
	for _, early := range []bool{false, true} {
		env := stubEnv(func(*batch.Group) error { return nil })
		if early {
			commit := env.Commit
			env.Commit = func(g *batch.Group, sync bool, release func()) error {
				release()
				return commit(g, sync, release)
			}
		}
		p := NewPipeline(env)
		b := oneOp("k")
		const n = 1000
		perCommit := testing.AllocsPerRun(5, func() {
			for i := 0; i < n; i++ {
				if err := p.Commit(b, i%2 == 0, nil); err != nil {
					t.Fatal(err)
				}
			}
		}) / n
		if perCommit > 0.001 {
			t.Errorf("early release %v: %.4f allocations per uncontended Commit, want 0", early, perCommit)
		}
	}
}

// TestReleaseLetsNextGroupForm: a group that gives the leader slot up inside
// Commit stays in flight while the next group forms, commits and returns;
// Close waits for the one still in flight, not only for a slot holder.
func TestReleaseLetsNextGroupForm(t *testing.T) {
	entered := make(chan string, 2)
	gate := make(chan struct{})
	env := Env{
		MakeRoom: func() error { return nil },
		Commit: func(g *batch.Group, _ bool, release func()) error {
			var first string
			_ = g.Batch().Each(func(_ keys.Kind, key, _ []byte) error {
				if first == "" {
					first = string(key)
				}
				return nil
			})
			release()
			release() // a second call is a no-op
			entered <- first
			if first == "a" {
				<-gate
			}
			return nil
		},
	}
	p := NewPipeline(env)
	aDone := make(chan error, 1)
	go func() { aDone <- p.Commit(oneOp("a"), true, nil) }()
	if got := <-entered; got != "a" {
		t.Fatalf("first group led by %q, want a", got)
	}
	bDone := make(chan error, 1)
	go func() { bDone <- p.Commit(oneOp("b"), true, nil) }()
	select {
	case got := <-entered:
		if got != "b" {
			t.Fatalf("second group led by %q, want b", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the second group never formed while the first was in flight")
	}
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-aDone:
		t.Fatalf("the held group returned (%v) before its gate opened", err)
	default:
	}
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a released group was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	<-closed
	if len(p.groups) != 2 {
		t.Fatalf("free list holds %d groups, want the 2 that were in flight at once", len(p.groups))
	}
}

// TestCommitAllocsWithFollowers: a leader that drains followers reuses the
// follower slice and the group's merge buffer as well. Each round parks four
// committers behind a leader held inside its commit, so the next leader takes
// the other three as followers; nothing in a round allocates.
func TestCommitAllocsWithFollowers(t *testing.T) {
	if invariants.Enabled {
		t.Skip("the invariants build allocates in its lock-rank checks")
	}
	const followers = 4
	start := make(chan struct{}, followers)
	done := make(chan error, followers)
	var p *Pipeline
	merged := 0
	p = NewPipeline(stubEnv(func(g *batch.Group) error {
		if g.Len() > 1 {
			merged++
			return nil
		}
		// The round's first leader: release the others and hold the
		// pipeline until all of them are queued behind this group.
		for i := 0; i < followers; i++ {
			start <- struct{}{}
		}
		for queued := 0; queued < followers; {
			runtime.Gosched()
			p.mu.Lock()
			queued = len(p.queue)
			p.mu.Unlock()
		}
		return nil
	}))
	for i := 0; i < followers; i++ {
		b := oneOp(fmt.Sprintf("f%d", i))
		go func() {
			for range start {
				done <- p.Commit(b, false, nil)
			}
		}()
	}
	defer close(start)
	lead := oneOp("leader")
	const rounds = 200
	perRound := testing.AllocsPerRun(5, func() {
		for i := 0; i < rounds; i++ {
			if err := p.Commit(lead, false, nil); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < followers; j++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		}
	}) / rounds
	if merged == 0 {
		t.Fatal("no group ever had followers")
	}
	if perRound > 0.01 {
		t.Errorf("%.3f allocations per round of one lone leader and one group of %d, want 0", perRound, followers)
	}
}

// TestPipelineRecyclesWriters: writers go back on the free list and are handed
// to the next committer, and no committer is ever told another's outcome.
// Eight committers, sync and not, commit batches of which some make their
// whole group fail with an error naming that group; every caller must get
// exactly the error of the group its batch was in, until a Close racing them
// turns the rest away with the closed error. At the end the free list holds
// each writer once.
func TestPipelineRecyclesWriters(t *testing.T) {
	var mu sync.Mutex
	want := map[string]error{}     // batch key -> its group's outcome
	groups, grouped := 0, int64(0) // grouped: batches of groups that committed
	p := NewPipeline(stubEnv(func(g *batch.Group) error {
		mu.Lock()
		defer mu.Unlock()
		groups++
		var err error
		var members []string
		_ = g.Batch().Each(func(_ keys.Kind, key, _ []byte) error {
			members = append(members, string(key))
			if key[0] == 'b' {
				err = fmt.Errorf("group %d failed", groups)
			}
			return nil
		})
		for _, m := range members {
			want[m] = err
		}
		if err == nil {
			grouped += int64(len(members))
		}
		return err
	}))

	const committers, per = 8, 400
	var wg sync.WaitGroup
	var committed atomic.Int64
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := batch.New()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("ok-%d-%d", w, i)
				if (w+i)%7 == 0 {
					key = fmt.Sprintf("bad-%d-%d", w, i)
				}
				b.Reset()
				b.Set([]byte(key), []byte("v"))
				err := p.Commit(b, w%2 == 0, nil)
				mu.Lock()
				wanted, grouped := want[key]
				mu.Unlock()
				switch {
				case !grouped:
					if !errors.Is(err, ErrClosed) {
						t.Errorf("%s was in no group but Commit returned %v", key, err)
					}
					return
				case err != wanted:
					t.Errorf("%s: Commit returned %v, its group's outcome was %v", key, err, wanted)
					return
				case err == nil:
					committed.Add(1)
				}
				if w == 0 && i == per/2 {
					wg.Add(1)
					go func() { defer wg.Done(); p.Close() }()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := p.Commit(oneOp("late"), false, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close = %v, want the closed error", err)
	}
	if grouped != committed.Load() {
		t.Fatalf("%d batches in committed groups, %d committed by their callers", grouped, committed.Load())
	}
	if len(p.queue) != 0 || p.formed != 0 || p.leading {
		t.Fatalf("idle pipeline holds %d queued, %d groups formed, leading=%v", len(p.queue), p.formed, p.leading)
	}
	for _, g := range p.groups {
		if len(g.followers) != 0 || g.batch.Len() != 0 || g.released {
			t.Fatalf("free group holds %d followers, %d members, released=%v", len(g.followers), g.batch.Len(), g.released)
		}
	}
	seen := map[*writer]bool{}
	for _, w := range p.free {
		if seen[w] || w.b != nil {
			t.Fatalf("free list: writer listed twice or still holding a batch")
		}
		seen[w] = true
	}
	if len(p.free) == 0 || len(p.free) > committers {
		t.Fatalf("free list holds %d writers, want 1..%d", len(p.free), committers)
	}
}

// TestPipelineNotifiesAppendedOnce: every writer's appended callback runs
// exactly once, before its Commit returns. A group that gives the leader slot
// up after appending tells its leader and followers at the release, while it
// is still in Env.Commit; otherwise the writer is told as its Commit returns
// — a group that never releases, a failed admission, a writer Close turns
// away.
func TestPipelineNotifiesAppendedOnce(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	notify := func(k string) func() {
		return func() { mu.Lock(); calls[k]++; mu.Unlock() }
	}
	count := func(k string) int { mu.Lock(); defer mu.Unlock(); return calls[k] }
	members := func(g *batch.Group) []string {
		var ks []string
		_ = g.Batch().Each(func(_ keys.Kind, key, _ []byte) error {
			ks = append(ks, string(key))
			return nil
		})
		return ks
	}

	roomGate, heldIn, commitGate := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var roomErr error
	var bad []string // members whose count was wrong inside Env.Commit
	p := NewPipeline(Env{
		MakeRoom: func() error {
			if roomErr == nil {
				<-roomGate
			}
			return roomErr
		},
		Commit: func(g *batch.Group, sync bool, release func()) error {
			ks := members(g)
			want := 0
			if sync {
				release()
				want = 1
			}
			for _, k := range ks {
				if count(k) != want {
					bad = append(bad, fmt.Sprintf("%s told %d times in Commit, want %d", k, count(k), want))
				}
			}
			if ks[0] == "held" {
				close(heldIn)
				<-commitGate
			}
			return nil
		},
	})
	// queued waits until a leader holds the slot and n writers queue behind it.
	queued := func(n int) {
		for {
			p.mu.Lock()
			ok := p.leading && len(p.queue) == n
			p.mu.Unlock()
			if ok {
				return
			}
			runtime.Gosched()
		}
	}
	// commitAll starts a leader, parked in admission, and followers behind it.
	commitAll := func(sync bool, ks ...string) chan error {
		done := make(chan error, len(ks))
		for i, k := range ks {
			go func() { done <- p.Commit(oneOp(k), sync, notify(k)) }()
			queued(i)
		}
		return done
	}

	// A sync leader held in admission while two followers queue behind it:
	// the group releases, telling all three inside Commit.
	done := commitAll(true, "leader", "f1", "f2")
	roomGate <- struct{}{}
	for range 3 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// A non-sync group never releases: told as Commit returns.
	done = commitAll(false, "nonsync")
	roomGate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// A failed admission.
	roomErr = errors.New("stalled out")
	if err := p.Commit(oneOp("refused"), false, notify("refused")); err != roomErr {
		t.Fatalf("refused writer err = %v", err)
	}
	roomErr = nil
	// A writer queued behind a group held in Commit, turned away by Close.
	done = commitAll(false, "held")
	roomGate <- struct{}{}
	<-heldIn
	closedErr := make(chan error, 1)
	go func() { closedErr <- p.Commit(oneOp("closed"), false, notify("closed")) }()
	queued(1)
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	if err := <-closedErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued writer err = %v, want ErrClosed", err)
	}
	close(commitGate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-closed
	// A writer that arrives after Close.
	if err := p.Commit(oneOp("late"), true, notify("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("late writer err = %v, want ErrClosed", err)
	}

	for _, msg := range bad {
		t.Error(msg)
	}
	for _, k := range []string{"leader", "f1", "f2", "nonsync", "refused", "held", "closed", "late"} {
		if n := count(k); n != 1 {
			t.Errorf("%s told %d times, want 1", k, n)
		}
	}
}
