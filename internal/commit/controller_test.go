package commit

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compaction"
)

// fakeStore is a scriptable ControllerEnv: tests mutate its fields between
// MakeRoom calls or from its Wait/Rotate callbacks to walk the state machine
// through its transitions.
type fakeStore struct {
	mu         sync.Mutex
	l0         int
	memBytes   int64
	immPending bool
	err        error

	rotations int
	rotateErr error
	onRotate  func(s *fakeStore)
	waits     int
	onWait    func(s *fakeStore) // simulates background progress
	slept     []time.Duration
}

func (s *fakeStore) env() ControllerEnv {
	return ControllerEnv{
		Lock:       s.mu.Lock,
		Unlock:     s.mu.Unlock,
		Err:        func() error { return s.err },
		L0Files:    func() int { return s.l0 },
		MemFull:    func() bool { return s.memBytes >= memTableSize },
		ImmPending: func() bool { return s.immPending },
		Rotate: func() error {
			s.rotations++
			if s.onRotate != nil {
				s.onRotate(s)
			}
			return s.rotateErr
		},
		Wait: func() {
			s.waits++
			if s.onWait == nil {
				panic("unexpected Wait")
			}
			s.onWait(s)
		},
		Sleep: func(d time.Duration) { s.slept = append(s.slept, d) },
	}
}

// memTableSize is the fake memtable's capacity: memBytes at or past it is a
// full memtable.
const memTableSize = 100

func TestMakeRoomOKFastPath(t *testing.T) {
	s := &fakeStore{memBytes: 10}
	c := NewController(s.env())
	if err := c.MakeRoom(); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateOK {
		t.Fatalf("state = %v, want ok", c.State())
	}
	m := c.Metrics()
	if m.Slowdowns != 0 || m.Stops != 0 || m.StallNanos != 0 {
		t.Fatalf("fast path produced stalls: %+v", m)
	}
	if s.rotations != 0 || len(s.slept) != 0 {
		t.Fatal("fast path rotated or slept")
	}
}

func TestMakeRoomRotatesFullMemtable(t *testing.T) {
	s := &fakeStore{memBytes: 200}
	s.onRotate = func(s *fakeStore) { s.memBytes = 0 }
	c := NewController(s.env())
	if err := c.MakeRoom(); err != nil {
		t.Fatal(err)
	}
	if s.rotations != 1 {
		t.Fatalf("rotations = %d, want 1", s.rotations)
	}
	if c.State() != StateOK {
		t.Fatalf("state = %v, want ok after rotation", c.State())
	}
}

func TestMakeRoomDelaysOnceOnL0Pressure(t *testing.T) {
	// l0=9 sits a quarter of the way up the 8→12 ladder: the continuous
	// curve charges (9-8+1)/(12-8) = half the full SlowdownDelay.
	s := &fakeStore{memBytes: 10, l0: 9}
	c := NewController(s.env())
	if err := c.MakeRoom(); err != nil {
		t.Fatal(err)
	}
	if len(s.slept) != 1 || s.slept[0] != 500*time.Microsecond {
		t.Fatalf("slept %v, want exactly one 500µs delay", s.slept)
	}
	m := c.Metrics()
	if m.Slowdowns != 1 || m.StallNanos != int64(500*time.Microsecond) {
		t.Fatalf("metrics = %+v", m)
	}
	// The write was admitted after its single delay even with L0 still high.
	if c.State() != StateOK {
		t.Fatalf("state = %v, want ok on return", c.State())
	}
	// A second write pays its own single delay.
	if err := c.MakeRoom(); err != nil {
		t.Fatal(err)
	}
	if len(s.slept) != 2 {
		t.Fatalf("second write slept %d times in total, want 2", len(s.slept))
	}
}

func TestMakeRoomStopsOnImmPending(t *testing.T) {
	s := &fakeStore{memBytes: 200, immPending: true}
	var observed State
	c := NewController(s.env())
	s.onWait = func(s *fakeStore) {
		observed = c.State() // state while blocked
		s.immPending = false
		s.onRotate = func(s *fakeStore) { s.memBytes = 0 }
	}
	if err := c.MakeRoom(); err != nil {
		t.Fatal(err)
	}
	if observed != StateStopped {
		t.Fatalf("state during wait = %v, want stopped", observed)
	}
	m := c.Metrics()
	if m.Stops != 1 || s.waits != 1 {
		t.Fatalf("stops=%d waits=%d, want 1,1", m.Stops, s.waits)
	}
	if s.rotations != 1 {
		t.Fatalf("rotations = %d, want 1 after the flush finished", s.rotations)
	}
	if c.State() != StateOK {
		t.Fatalf("state = %v, want ok on return", c.State())
	}
}

func TestMakeRoomStopsOnL0StopTrigger(t *testing.T) {
	s := &fakeStore{memBytes: 200, l0: 12}
	c := NewController(s.env())
	s.onWait = func(s *fakeStore) { s.l0 = 3; s.memBytes = 10 }
	if err := c.MakeRoom(); err != nil {
		t.Fatal(err)
	}
	// L0 at the slowdown trigger also passes the delayed state first.
	m := c.Metrics()
	if m.Slowdowns != 1 || m.Stops != 1 {
		t.Fatalf("metrics = %+v, want one slowdown then one stop", m)
	}
}

// TestMakeRoomAtEachRung drives one write with a full memtable at each rung
// of the L0 ladder: below L0SlowdownTrigger it rotates at once, from there
// it pays one delay first, and at L0StopTrigger it also stops until
// background work drains L0.
func TestMakeRoomAtEachRung(t *testing.T) {
	cases := []struct {
		name             string
		l0               int
		slowdowns, stops int64
	}{
		{"empty L0", 0, 0, 0},
		{"at compaction trigger", compaction.L0Trigger, 0, 0},
		{"one below slowdown", compaction.L0SlowdownTrigger - 1, 0, 0},
		{"at slowdown", compaction.L0SlowdownTrigger, 1, 0},
		{"one below stop", compaction.L0StopTrigger - 1, 1, 0},
		{"at stop", compaction.L0StopTrigger, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &fakeStore{memBytes: 200, l0: tc.l0}
			s.onRotate = func(s *fakeStore) { s.memBytes = 0 }
			s.onWait = func(s *fakeStore) { s.l0 = 0 }
			c := NewController(s.env())
			if err := c.MakeRoom(); err != nil {
				t.Fatal(err)
			}
			m := c.Metrics()
			if m.Slowdowns != tc.slowdowns || m.Stops != tc.stops || int64(s.waits) != tc.stops {
				t.Fatalf("slowdowns=%d stops=%d waits=%d, want %d, %d, %d",
					m.Slowdowns, m.Stops, s.waits, tc.slowdowns, tc.stops, tc.stops)
			}
			if s.rotations != 1 {
				t.Fatalf("rotations = %d, want 1", s.rotations)
			}
			if c.State() != StateOK {
				t.Fatalf("state = %v, want ok on return", c.State())
			}
		})
	}
}

func TestMakeRoomPropagatesErr(t *testing.T) {
	boom := errors.New("background error")
	s := &fakeStore{memBytes: 10, err: boom}
	c := NewController(s.env())
	if err := c.MakeRoom(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want background error", err)
	}
}

func TestMakeRoomErrCheckedAfterStopWait(t *testing.T) {
	boom := errors.New("closed during stall")
	s := &fakeStore{memBytes: 200, immPending: true}
	c := NewController(s.env())
	s.onWait = func(s *fakeStore) { s.err = boom }
	if err := c.MakeRoom(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the error raised during the stall", err)
	}
}

func TestMakeRoomRotateErrorPropagates(t *testing.T) {
	boom := errors.New("wal create failed")
	s := &fakeStore{memBytes: 200, rotateErr: boom}
	c := NewController(s.env())
	if err := c.MakeRoom(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want rotate error", err)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{StateOK: "ok", StateDelayed: "delayed", StateStopped: "stopped", State(9): "unknown"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// TestSlowdownCurve walks the admission curve over L0 depth: no delay below
// the slowdown trigger, then a linear ramp to one full SlowdownDelay one file
// under the stop trigger, and a clamp there.
func TestSlowdownCurve(t *testing.T) {
	cases := []struct {
		name string
		l0   int
		want time.Duration
	}{
		{"empty L0", 0, 0},
		{"at compaction trigger", compaction.L0Trigger, 0},
		{"below trigger", 7, 0},
		{"at trigger", 8, 250 * time.Microsecond},
		{"mid ramp", 9, 500 * time.Microsecond},
		{"three quarters ramp", 10, 750 * time.Microsecond},
		{"just under stop", 11, time.Millisecond},
		// With room in the memtable a write at the stop trigger is
		// admitted after its one delay: the stop rung guards rotation.
		{"at stop clamps", 12, time.Millisecond},
		{"past stop clamps", 20, time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &fakeStore{memBytes: 10, l0: tc.l0}
			env := s.env()
			var c *Controller
			var during State
			env.Sleep = func(d time.Duration) {
				s.slept = append(s.slept, d)
				during = c.State()
			}
			c = NewController(env)
			if err := c.MakeRoom(); err != nil {
				t.Fatal(err)
			}
			if tc.want == 0 {
				if len(s.slept) != 0 {
					t.Fatalf("slept %v, want no delay", s.slept)
				}
				return
			}
			if len(s.slept) != 1 || s.slept[0] != tc.want {
				t.Fatalf("slept %v, want one %v delay", s.slept, tc.want)
			}
			if during != StateDelayed {
				t.Errorf("state during delay = %v, want delayed", during)
			}
			if c.State() != StateOK {
				t.Errorf("state after admit = %v, want ok", c.State())
			}
			if m := c.Metrics(); m.Slowdowns != 1 || m.StallNanos != int64(tc.want) {
				t.Errorf("metrics = %+v", m)
			}
		})
	}
}

// TestMakeRoomRaceUnderChangingPressure hammers admission decisions while
// L0 depth moves concurrently, as it does when flush and compaction workers
// install versions mid-write. Run under -race this checks the controller
// reads its environment only under the store mutex.
func TestMakeRoomRaceUnderChangingPressure(t *testing.T) {
	var mu sync.Mutex
	var l0 atomic.Int64
	c := NewController(ControllerEnv{
		Lock:       mu.Lock,
		Unlock:     mu.Unlock,
		Err:        func() error { return nil },
		L0Files:    func() int { return int(l0.Load()) },
		MemFull:    func() bool { return false }, // always admits after the delay check
		ImmPending: func() bool { return false },
		Rotate:     func() error { panic("unexpected Rotate") },
		Wait:       func() { panic("unexpected Wait") },
		Sleep:      func(time.Duration) {},
	})
	stop := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l0.Store(int64((i * 7) % (compaction.L0StopTrigger + 3)))
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				if err := c.MakeRoom(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	mutator.Wait()
	if c.State() != StateOK {
		t.Errorf("final state = %v, want ok", c.State())
	}
}
