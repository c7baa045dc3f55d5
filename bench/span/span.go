// Package span is the benchmark's in-memory span recorder. Spans are
// recorded from the benchmark's own files, around the calls into each layer
// (client ops, round trips, file-system calls); nothing inside the engine is
// instrumented. They are kept in memory and written out once, at exit.
package span

import (
	"sort"
	"sync"
	"time"
)

// ID names a recorded span; 0 means "no span" (a root's parent).
type ID uint32

// Span is one timed interval. Start and End are nanoseconds since the
// recorder was created. Op groups the spans of one client operation (its op
// index + 1); 0 marks spans that belong to no single operation, such as
// phases and file-system calls issued by background work.
type Span struct {
	ID     ID     `json:"id"`
	Parent ID     `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder collects spans. A nil *Recorder records nothing, so untraced runs
// pass nil and pay one pointer test per call site.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// New returns an empty recorder whose clock starts now.
func New() *Recorder { return &Recorder{epoch: time.Now()} }

// Now reports the recorder's clock. Safe on a nil recorder (returns 0).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// At converts a wall-clock instant to the recorder's clock.
func (r *Recorder) At(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.epoch))
}

// Add records a finished span and returns its id.
func (r *Recorder) Add(name string, parent ID, op uint64, start, end int64) ID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := ID(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// Begin opens a span whose end is not yet known (a phase); Finish closes it.
// Children may name it as parent in between.
func (r *Recorder) Begin(name string, parent ID) ID {
	if r == nil {
		return 0
	}
	return r.Add(name, parent, 0, r.Now(), -1)
}

// Finish sets the end of a span opened with Begin.
func (r *Recorder) Finish(id ID) {
	if r == nil || id == 0 {
		return
	}
	now := r.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Len reports the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of the recorded spans in recording order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTime is one span name's total duration and self time: duration minus
// the part of each span's interval that its child spans cover.
type SelfTime struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	Total  int64  `json:"total_ns"`
	Self   int64  `json:"self_ns"`
	Parent string `json:"parent_name,omitempty"`
}

// SelfTimes folds spans by name. Children are clipped to their parent's
// interval and overlapping children are counted once (interval union), so
// concurrent children never drive self time negative. Where children were
// sampled, self time is an upper bound.
func SelfTimes(spans []Span) []SelfTime {
	children := make(map[ID][]int, len(spans)/4)
	byID := make(map[ID]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	agg := map[string]*SelfTime{}
	var order []string
	for _, s := range spans {
		if s.End < s.Start {
			continue // never finished
		}
		a := agg[s.Name]
		if a == nil {
			a = &SelfTime{Name: s.Name}
			if p, ok := byID[s.Parent]; ok {
				a.Parent = spans[p].Name
			}
			agg[s.Name] = a
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		a.Count++
		a.Total += dur
		a.Self += dur - covered(spans, children[s.ID], s.Start, s.End)
	}
	out := make([]SelfTime, 0, len(order))
	for _, name := range order {
		out = append(out, *agg[name])
	}
	return out
}

// covered returns the length of the union of the kids' intervals clipped to
// [lo, hi].
func covered(spans []Span, kids []int, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		sum += v.b - v.a
		end = v.b
	}
	return sum
}

// File is the on-disk shape of one workload's trace.
type File struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	OpSample  int        `json:"op_sample_every"`
	FSSample  int        `json:"fs_sample_every"`
	SelfTimes []SelfTime `json:"self_times"`
	Spans     []Span     `json:"spans"`
}
