package batch

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/keys"
)

func TestGroupSingleMemberAliases(t *testing.T) {
	b := New()
	b.Set([]byte("k"), []byte("v"))
	var g Group
	g.Add(b)
	if g.Batch() != b {
		t.Fatal("single-member group should return the member itself, not a copy")
	}
	if g.Count() != 1 || g.Len() != 1 {
		t.Fatalf("Count=%d Len=%d, want 1,1", g.Count(), g.Len())
	}
	if g.Size() != b.Size() {
		t.Fatalf("Size=%d, want member size %d", g.Size(), b.Size())
	}
}

func TestGroupConcatenation(t *testing.T) {
	var g Group
	var want []string
	for i := 0; i < 3; i++ {
		b := New()
		for j := 0; j <= i; j++ {
			k := fmt.Sprintf("key-%d-%d", i, j)
			b.Set([]byte(k), []byte("val"))
			want = append(want, k)
		}
		g.Add(b)
	}
	if g.Count() != 6 {
		t.Fatalf("Count=%d, want 6", g.Count())
	}
	m := g.Batch()
	if m.Count() != 6 {
		t.Fatalf("merged Count=%d, want 6", m.Count())
	}
	if g.Size() != m.Size() {
		t.Fatalf("Size=%d, merged batch size=%d", g.Size(), m.Size())
	}
	var got []string
	m.Each(func(kind keys.Kind, key, value []byte) error {
		got = append(got, string(key))
		return nil
	})
	if len(got) != len(want) {
		t.Fatalf("merged has %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d: key %q, want %q (order must follow member order)", i, got[i], want[i])
		}
	}
	// The merged encoding must round-trip through Decode, exactly as a
	// recovered WAL record would.
	g.SetSequence(10)
	dec, err := Decode(append([]byte(nil), m.Encode()...))
	if err != nil {
		t.Fatalf("Decode(merged): %v", err)
	}
	if dec.Count() != 6 || dec.Sequence() != 10 {
		t.Fatalf("decoded count=%d seq=%d, want 6,10", dec.Count(), dec.Sequence())
	}
}

func TestGroupPerBatchSequenceStamping(t *testing.T) {
	var g Group
	sizes := []int{2, 1, 3}
	var members []*Batch
	for i, n := range sizes {
		b := New()
		for j := 0; j < n; j++ {
			b.Set([]byte(fmt.Sprintf("k%d%d", i, j)), []byte("v"))
		}
		members = append(members, b)
		g.Add(b)
	}
	g.SetSequence(100)
	if got := g.Batch().Sequence(); got != 100 {
		t.Errorf("merged sequence = %d, want 100 (group base)", got)
	}
	wantStarts := []keys.Seq{100, 102, 103}
	for i, b := range members {
		if got := b.Sequence(); got != wantStarts[i] {
			t.Errorf("member %d sequence = %d, want %d", i, got, wantStarts[i])
		}
	}
}

func TestGroupReset(t *testing.T) {
	var g Group
	b := New()
	b.Set([]byte("a"), []byte("1"))
	g.Add(b)
	g.Reset()
	if g.Len() != 0 || g.Count() != 0 || g.Size() != 0 {
		t.Fatalf("after Reset: Len=%d Count=%d Size=%d, want zeros", g.Len(), g.Count(), g.Size())
	}
	b2 := New()
	b2.Delete([]byte("z"))
	g.Add(b2)
	if g.Batch() != b2 {
		t.Fatal("reused group should alias its sole member")
	}
}

func TestGroupMergedValuesIntact(t *testing.T) {
	var g Group
	b1 := New()
	b1.Set([]byte("a"), bytes.Repeat([]byte{'x'}, 300))
	b2 := New()
	b2.Delete([]byte("b"))
	g.Add(b1)
	g.Add(b2)
	var ops []string
	g.Batch().Each(func(kind keys.Kind, key, value []byte) error {
		ops = append(ops, fmt.Sprintf("%v:%s:%d", kind, key, len(value)))
		return nil
	})
	want := []string{"1:a:300", "0:b:0"}
	for i := range want {
		if i >= len(ops) || ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

// TestGroupReusesMergeBuffer: a group that is Reset and filled again builds
// its merged record in the buffer of the last one — the record is right, a
// member added after Batch was taken is in the next Batch, and Reset keeps no
// pointer to a member.
func TestGroupReusesMergeBuffer(t *testing.T) {
	var g Group
	member := func(key string) *Batch {
		b := New()
		b.Set([]byte(key), []byte("v-"+key))
		return b
	}
	ops := func() string {
		var s []string
		g.Batch().Each(func(_ keys.Kind, key, value []byte) error {
			s = append(s, string(key)+"="+string(value))
			return nil
		})
		return fmt.Sprint(s)
	}
	g.Add(member("a"))
	g.Add(member("bb"))
	g.Add(member("ccc"))
	if got := ops(); got != "[a=v-a bb=v-bb ccc=v-ccc]" {
		t.Fatalf("first group merged to %s", got)
	}
	first := &g.Batch().Encode()[0]
	g.Reset()
	if members := g.members[:cap(g.members)]; members[0] != nil || members[1] != nil || members[2] != nil {
		t.Fatal("Reset left member batches reachable from the group")
	}

	g.Add(member("x"))
	g.Add(member("y"))
	if got := ops(); got != "[x=v-x y=v-y]" {
		t.Fatalf("second group merged to %s", got)
	}
	if g.Batch().Count() != 2 || g.Size() != g.Batch().Size() {
		t.Fatalf("second group: count %d, size %d vs record %d", g.Batch().Count(), g.Size(), g.Batch().Size())
	}
	if &g.Batch().Encode()[0] != first {
		t.Fatal("second group's record was not built in the first's buffer")
	}
	g.Add(member("z"))
	if got := ops(); got != "[x=v-x y=v-y z=v-z]" {
		t.Fatalf("after a late Add the group merged to %s", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		m := g.members[0]
		g.Reset()
		g.Add(m)
		g.Add(m)
		g.Batch()
	}); allocs != 0 {
		t.Fatalf("refilling a group allocates %.0f times, want 0", allocs)
	}
}
