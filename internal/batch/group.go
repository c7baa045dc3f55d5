package batch

import "repro/internal/keys"

// Group collects the member batches of one commit-pipeline write group. The
// group commits as a single WAL record — the concatenation of its members —
// so recovery replays it atomically, and each member is stamped with its own
// contiguous sub-range of the group's sequence span so callers can observe
// the sequences their operations received.
type Group struct {
	members []*Batch
	// merged is the concatenation of the members, valid once built; its
	// buffer survives Reset so a reused group builds the next one in place.
	merged Batch
	built  bool
	count  int // total operations across members
	size   int // encoded size of the merged record
}

// maxRetainedMerge bounds the merge buffer a group keeps across Reset: one
// oversized group must not pin its record's size for the group's lifetime.
const maxRetainedMerge = 1 << 20

// Add appends a member batch to the group.
func (g *Group) Add(b *Batch) {
	if len(g.members) == 0 {
		g.size = headerLen
	}
	g.members = append(g.members, b)
	g.built = false
	g.count += b.Count()
	g.size += b.Size() - headerLen
}

// Len reports the number of member batches.
func (g *Group) Len() int { return len(g.members) }

// Count reports the total operations across all members.
func (g *Group) Count() int { return g.count }

// Size reports the encoded size of the group's single WAL record: one
// header plus every member's payload.
func (g *Group) Size() int { return g.size }

// Reset clears the group for reuse and lets go of its members: no pointer to
// a member batch survives, and the merged view handed out by Batch is dead.
func (g *Group) Reset() {
	clear(g.members)
	g.members = g.members[:0]
	if cap(g.merged.data) > maxRetainedMerge {
		g.merged = Batch{}
	} else if g.built {
		g.merged.Reset() // poisons the dead view under -tags invariants
	}
	g.built = false
	g.count = 0
	g.size = 0
}

// Batch returns the merged view that is logged and applied: the sole member
// itself when the group has one (no copy), otherwise a concatenation built
// once and cached. The result is valid until a member mutates or the group
// is Reset.
func (g *Group) Batch() *Batch {
	if len(g.members) == 1 {
		return g.members[0]
	}
	if !g.built {
		if cap(g.merged.data) < g.size {
			g.merged.data = make([]byte, headerLen, g.size)
		}
		g.merged.Reset()
		for _, b := range g.members {
			g.merged.Append(b)
		}
		g.built = true
	}
	return &g.merged
}

// SetSequence stamps the merged record with the group's base sequence and
// each member with the start of its own sub-range: member i begins at
// seq plus the operation count of members before it, so the group occupies
// the contiguous range [seq, seq+Count()).
func (g *Group) SetSequence(seq keys.Seq) {
	if m := g.Batch(); m != nil {
		m.SetSequence(seq)
	}
	for _, b := range g.members {
		b.SetSequence(seq)
		seq += keys.Seq(b.Count())
	}
}
