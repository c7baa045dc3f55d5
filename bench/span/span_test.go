package span

import "testing"

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	r := New()
	root := r.Add("phase", 0, 0, 0, 100)
	r.Add("op", root, 1, 10, 40)
	r.Add("op", root, 2, 30, 60)  // overlaps the first: union is [10,60)
	r.Add("op", root, 3, 90, 130) // clipped to the parent's end
	got := map[string]SelfTime{}
	for _, s := range SelfTimes(r.Spans()) {
		got[s.Name] = s
	}
	if p := got["phase"]; p.Total != 100 || p.Self != 100-50-10 {
		t.Errorf("phase: %+v, want total 100 self 40", p)
	}
	if o := got["op"]; o.Count != 3 || o.Total != 100 || o.Self != 100 || o.Parent != "phase" {
		t.Errorf("op: %+v", o)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Begin("x", 0)
	r.Finish(id)
	if r.Add("y", id, 1, 0, 1) != 0 || r.Len() != 0 || r.Now() != 0 || r.Spans() != nil {
		t.Error("nil recorder recorded something")
	}
}
