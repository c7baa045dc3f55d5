package compaction

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/version"
)

// This file implements the claim bookkeeping that lets the store run several
// compaction jobs concurrently. Every in-flight job holds a Claim recording
// (a) the table files it will read-and-delete (or whose metadata it will
// rewrite) and (b) the key ranges, per level, in which it will add or remove
// files. Two jobs may run concurrently only if their claims are disjoint:
// no shared file number, no overlapping key range on a common level, and at
// most one job involving level 0 (L0 files mutually overlap, and flushes
// keep adding to them, so L0 work cannot be subdivided safely).
//
// Because a job's inputs stay in the current version until its final
// LogAndApply, a concurrent picker would otherwise hand the same files out
// twice; the claim set is what makes the picker aware of work that is
// scheduled but not yet applied.

// span is one claimed key range at one level.
type span struct {
	level int
	r     keys.KeyRange
}

// Claim records the resources an in-flight compaction job holds: its input
// file numbers and the key ranges it will modify per level. Claims are
// created by Picker.Acquire and returned with Picker.Release; like the rest
// of the Picker they are guarded by the store's mutex.
type Claim struct {
	kind  Kind
	level int
	files map[uint64]struct{}
	spans []span
	l0    bool
}

// String renders the claim for diagnostics.
func (c *Claim) String() string {
	return fmt.Sprintf("%v@L%d(%d files, %d spans)", c.kind, c.level, len(c.files), len(c.spans))
}

// Files reports the claimed input file numbers (tests).
func (c *Claim) Files() []uint64 {
	out := make([]uint64, 0, len(c.files))
	for num := range c.files {
		out = append(out, num)
	}
	return out
}

// claimFor derives the claim a pick needs before it may execute: every file
// the pick names, and their combined effective range (own keys plus attached
// slice windows — rewrites consume the whole effective extent, and a link
// computes its slice windows over it) at each level the job edits. A merge
// names only its target and stays at one level; the frozen files backing the
// target's slices are shared read-only inputs kept alive by version
// refcounts, so concurrent merges of different targets never conflict.
func (p *Picker) claimFor(pick Pick) *Claim {
	ucmp := p.icmp.User
	c := &Claim{kind: pick.Kind, level: pick.Level, files: map[uint64]struct{}{}, l0: pick.Level == 0}
	var r keys.KeyRange
	for _, files := range [][]*version.FileMeta{pick.Inputs, pick.Overlaps} {
		for _, f := range files {
			c.files[f.Num] = struct{}{}
			fr := version.EffectiveRange(ucmp, f)
			if r.Lo == nil || ucmp.Compare(fr.Lo, r.Lo) < 0 {
				r.Lo = fr.Lo
			}
			if r.Hi == nil || ucmp.Compare(fr.Hi, r.Hi) > 0 {
				r.Hi = fr.Hi
			}
		}
	}
	c.spans = append(c.spans, span{pick.Level, r})
	if pick.OutputLevel != pick.Level {
		c.spans = append(c.spans, span{pick.OutputLevel, r})
	}
	return c
}

// conflictsWith reports whether two claims may not run concurrently.
func (c *Claim) conflictsWith(ucmp keys.Comparer, o *Claim) bool {
	if c.l0 && o.l0 {
		return true
	}
	for num := range c.files {
		if _, ok := o.files[num]; ok {
			return true
		}
	}
	for _, s := range c.spans {
		for _, t := range o.spans {
			if s.level == t.level && s.r.Overlaps(ucmp, t.r) {
				return true
			}
		}
	}
	return false
}

// admissible reports whether pick conflicts with no in-flight claim.
func (p *Picker) admissible(pick Pick) bool {
	if pick.Kind == PickNone {
		return true
	}
	if len(p.inflight) == 0 {
		return true
	}
	c := p.claimFor(pick)
	for _, other := range p.inflight {
		if c.conflictsWith(p.icmp.User, other) {
			return false
		}
	}
	return true
}

// Acquire registers pick's inputs and output ranges as in-flight and returns
// the claim to Release when the job completes. A conflict with an existing
// claim is an engine invariant violation — Pick vets every candidate against
// the in-flight set under the same lock hold — and is returned as an error
// so the store can surface it instead of corrupting a level.
func (p *Picker) Acquire(pick Pick) (*Claim, error) {
	c := p.claimFor(pick)
	for _, other := range p.inflight {
		if c.conflictsWith(p.icmp.User, other) {
			return nil, fmt.Errorf("compaction: claim %v conflicts with in-flight %v", c, other)
		}
	}
	p.inflight = append(p.inflight, c)
	return c, nil
}

// Release returns a claim acquired with Acquire.
func (p *Picker) Release(c *Claim) {
	for i, other := range p.inflight {
		if other == c {
			p.inflight = append(p.inflight[:i], p.inflight[i+1:]...)
			return
		}
	}
}

// InFlight reports the number of outstanding claims.
func (p *Picker) InFlight() int { return len(p.inflight) }
