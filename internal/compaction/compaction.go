// Package compaction holds the pure decision logic of the two compaction
// policies the repository implements:
//
//   - UDC — the traditional upper-level driven compaction of LevelDB: the
//     file picked in level L immediately drags every overlapping file in
//     level L+1 into one merge (the paper's baseline).
//   - LDC — the paper's contribution: picking a file triggers a metadata-only
//     *link* (freeze the file, slice it across the overlapping lower files);
//     real I/O happens only as a *merge* driven by a lower-level file that
//     has accumulated SliceThreshold slices (paper Algorithm 1).
//
// Both run the same merge-sort machinery and differ only in when a job
// fires, how much it reads and where its output lands. The package decides
// that (a Pick, which names the job's input files by level and its output
// level); the executing store performs the I/O from the Pick alone. Keeping
// the policy pure makes it unit-testable against synthetic versions.
package compaction

import (
	"sort"

	"repro/internal/keys"
	"repro/internal/version"
)

// Policy selects the compaction algorithm.
type Policy int

// Available policies.
const (
	// UDC is upper-level driven compaction (LevelDB default).
	UDC Policy = iota
	// LDC is the paper's lower-level driven compaction.
	LDC
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case UDC:
		return "UDC"
	case LDC:
		return "LDC"
	default:
		return "unknown"
	}
}

// LevelDB's L0 ladder, held as constants as LevelDB holds it: the picker
// compacts L0 at L0Trigger files and drains it ahead of ripe merges from
// L0SlowdownTrigger on; the commit controller delays writers from
// L0SlowdownTrigger and stops them at L0StopTrigger.
const (
	L0Trigger         = 4
	L0SlowdownTrigger = 8
	L0StopTrigger     = 12
)

// FrozenFraction caps LDC's duplicated frozen bytes relative to total table
// bytes; above it the most-linked file is force-merged (the paper's
// worst-case space bound, §III-D).
const FrozenFraction = 0.25

// Params are the sizing knobs of the tree, mirroring the paper's symbols:
// Fanout is k, SSTableSize is b, SliceThreshold is T_s.
type Params struct {
	// Fanout is the capacity ratio between adjacent levels (k).
	Fanout int
	// SSTableSize is the target output file size (b).
	SSTableSize int64
	// SliceThreshold is LDC's T_s: the slice count on a lower-level file
	// that triggers its merge.
	SliceThreshold int
}

// Kind discriminates what a Pick asks the store to do.
type Kind int

// Pick kinds.
const (
	// PickNone: nothing to do.
	PickNone Kind = iota
	// PickCompact: conventional merge of Inputs with Overlaps one level
	// down. Used by UDC at all levels and by LDC for L0→L1.
	PickCompact
	// PickTrivialMove: Inputs[0] moves to OutputLevel by metadata only.
	PickTrivialMove
	// PickLink: LDC link phase: freeze Inputs[0] and attach one slice per
	// file in Overlaps. Metadata only.
	PickLink
	// PickMerge: LDC merge phase: rewrite Inputs[0] together with its
	// accumulated slices, in place (OutputLevel == Level).
	PickMerge
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case PickNone:
		return "none"
	case PickCompact:
		return "compact"
	case PickTrivialMove:
		return "trivial-move"
	case PickLink:
		return "link"
	case PickMerge:
		return "merge"
	default:
		return "unknown"
	}
}

// Pick describes one unit of compaction work as data: every file the job
// reads and removes from its level, and the level its outputs land in. The
// executor works from these fields alone.
type Pick struct {
	Kind Kind
	// Level holds Inputs; OutputLevel holds Overlaps and receives the
	// outputs. OutputLevel is Level+1 except for PickMerge, where it is Level.
	Level, OutputLevel int
	// Inputs are the files taken out of Level.
	Inputs []*version.FileMeta
	// Overlaps are the files involved at OutputLevel: rewritten and removed
	// by PickCompact, given a slice each by PickLink.
	Overlaps []*version.FileMeta
	// Score is the pressure that triggered the pick (diagnostics).
	Score float64
}

// Picker chooses compaction work from a version. Pick is a pure function of
// the version, the round-robin cursors and Params: it changes none of them,
// and the store, which runs one compaction job per shard at a time, moves a
// cursor only after the job's edit has committed. Not safe for concurrent
// use; the store calls it under its own mutex.
type Picker struct {
	policy Policy
	params Params
	icmp   keys.InternalComparer
	// pointers are the per-level round-robin cursors (largest key of the
	// last compacted file), as in LevelDB.
	pointers [version.NumLevels]keys.InternalKey
}

// NewPicker returns a picker for the given policy.
func NewPicker(policy Policy, params Params, icmp keys.InternalComparer) *Picker {
	return &Picker{policy: policy, params: params, icmp: icmp}
}

// SetPointer restores a round-robin cursor (from the MANIFEST on recovery).
func (p *Picker) SetPointer(level int, key keys.InternalKey) { p.pointers[level] = key }

// Pointer reads a cursor (persisted into version edits by the store).
func (p *Picker) Pointer(level int) keys.InternalKey { return p.pointers[level] }

// SliceThreshold returns T_s.
func (p *Picker) SliceThreshold() int { return p.params.SliceThreshold }

// Score reports the compaction pressure of a level: >= 1 means the level
// needs compaction. L0 scores by file count, deeper levels by byte size
// relative to the level target.
func (p *Picker) Score(v *version.Version, level int) float64 {
	if level == 0 {
		return float64(v.NumFiles(0)) / L0Trigger
	}
	return float64(p.levelBytes(v, level)) / float64(p.MaxBytesForLevel(level))
}

// levelBytes is a level's size as held against its target: resident bytes
// plus, under LDC, the bytes pending in slices it will absorb.
func (p *Picker) levelBytes(v *version.Version, level int) int64 {
	bytes := v.LevelBytes(level)
	if p.policy == LDC {
		for _, f := range v.Sliced[level] {
			bytes += f.SliceBytes()
		}
	}
	return bytes
}

// MaxBytesForLevel is the capacity target of a level (levels >= 1), decided
// here and nowhere else: the ladder Fanout^level × SSTableSize, except that
// LDC's level 1 is a staging level sized to what one L0 compaction brings —
// a table leaves it by a link, for free, and stays in it only to be rewritten
// by the next L0 compaction (DESIGN, "Level targets").
func (p *Picker) MaxBytesForLevel(level int) int64 {
	if p.policy == LDC && level == 1 {
		return int64(min(L0Trigger, p.params.Fanout)) * p.params.SSTableSize
	}
	n := p.params.SSTableSize
	for l := 0; l < level; l++ {
		n *= int64(p.params.Fanout)
	}
	return n
}

// Pick returns the next unit of work for v, or a PickNone.
func (p *Picker) Pick(v *version.Version) Pick {
	if p.policy == LDC {
		return p.pickLDC(v)
	}
	return p.pickUDC(v)
}

// levelScore pairs a level with its compaction pressure.
type levelScore struct {
	level int
	score float64
}

// levelsByScore returns every level scoring at least 1, ordered by score
// descending with ties going to the deeper level; the levels after the first
// are fallbacks for a hottest level that has nothing to pick.
func (p *Picker) levelsByScore(v *version.Version) []levelScore {
	var out []levelScore
	for level := 0; level < version.NumLevels-1; level++ {
		if s := p.Score(v, level); s >= 1 {
			out = append(out, levelScore{level, s})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].level > out[j].level
	})
	return out
}

// roundRobin returns a level's files ordered starting just after the level's
// cursor, wrapping around — the candidate order of LevelDB's compact-pointer
// scheme.
func (p *Picker) roundRobin(v *version.Version, level int) []*version.FileMeta {
	files := v.Levels[level]
	if len(files) == 0 {
		return nil
	}
	ptr := p.pointers[level]
	start := 0
	if ptr != nil {
		for i, f := range files {
			if p.icmp.Compare(f.Largest, ptr) > 0 {
				start = i
				break
			}
		}
	}
	out := make([]*version.FileMeta, 0, len(files))
	for i := 0; i < len(files); i++ {
		out = append(out, files[(start+i)%len(files)])
	}
	return out
}

// expandL0 grows an L0 input set to the transitive closure of overlapping
// L0 files (they may mutually overlap).
func (p *Picker) expandL0(v *version.Version, seed *version.FileMeta) []*version.FileMeta {
	ucmp := p.icmp.User
	r := seed.UserRange()
	inputs := []*version.FileMeta{seed}
	for grew := true; grew; {
		grew = false
		for _, f := range v.Levels[0] {
			already := false
			for _, in := range inputs {
				if in.Num == f.Num {
					already = true
					break
				}
			}
			if already || !f.UserRange().Overlaps(ucmp, r) {
				continue
			}
			inputs = append(inputs, f)
			if ucmp.Compare(f.Smallest.UserKey(), r.Lo) < 0 {
				r.Lo = f.Smallest.UserKey()
			}
			if ucmp.Compare(f.Largest.UserKey(), r.Hi) > 0 {
				r.Hi = f.Largest.UserKey()
			}
			grew = true
		}
	}
	return inputs
}

func inputsRange(ucmp keys.Comparer, files []*version.FileMeta) keys.KeyRange {
	r := files[0].UserRange()
	for _, f := range files[1:] {
		if ucmp.Compare(f.Smallest.UserKey(), r.Lo) < 0 {
			r.Lo = f.Smallest.UserKey()
		}
		if ucmp.Compare(f.Largest.UserKey(), r.Hi) > 0 {
			r.Hi = f.Largest.UserKey()
		}
	}
	return r
}

// pickUDC implements the LevelDB-style upper-level driven pick: the most
// pressured level compacts all of L0, or its first file past the cursor.
func (p *Picker) pickUDC(v *version.Version) Pick {
	for _, ls := range p.levelsByScore(v) {
		var inputs []*version.FileMeta
		if ls.level == 0 {
			inputs = p.expandL0(v, v.Levels[0][0])
		} else {
			inputs = p.roundRobin(v, ls.level)[:1] // a level that scores holds a file
		}
		r := inputsRange(p.icmp.User, inputs)
		return compactOrMove(ls.level, inputs, v.Overlaps(ls.level+1, r), ls.score)
	}
	return Pick{Kind: PickNone}
}

// compactOrMove builds the conventional pick for an input set: a trivial
// move when a single file has nothing below it, else a compact.
func compactOrMove(level int, inputs, overlaps []*version.FileMeta, score float64) Pick {
	pick := Pick{Kind: PickCompact, Level: level, OutputLevel: level + 1, Inputs: inputs, Overlaps: overlaps, Score: score}
	if len(overlaps) == 0 && len(inputs) == 1 {
		pick.Kind = PickTrivialMove
	}
	return pick
}

// mergePick builds the LDC merge of target with its slices, in place.
func mergePick(level int, target *version.FileMeta, score float64) Pick {
	return Pick{Kind: PickMerge, Level: level, OutputLevel: level, Inputs: []*version.FileMeta{target}, Score: score}
}

// pickLDC implements the paper's Algorithm 1 scheduling:
//  1. any lower-level file at or past T_s slices merges first;
//  2. a frozen region past its space bound forces the most-linked file to
//     merge;
//  3. otherwise the most pressured level links (L0 compacts conventionally).
func (p *Picker) pickLDC(v *version.Version) Pick {
	ts := p.SliceThreshold()

	// 0. L0 urgency: once L0 is deep enough that the commit controller is
	// delaying writers, draining it is the only background work that lifts
	// the throttle — ripe merges can wait by comparison, so a
	// compaction storm cannot keep the worker on merges while foreground
	// writes sit in the slowdown curve. Level 1's links go first: free, and
	// each takes a table out of what L0 rewrites.
	if v.NumFiles(0) >= L0SlowdownTrigger {
		if s := p.Score(v, 1); s >= 1 {
			if pick := p.pickLDCLevel(v, 1, s); pick.Kind == PickLink || pick.Kind == PickTrivialMove {
				return pick
			}
		}
		if pick := p.pickLDCLevel(v, 0, p.Score(v, 0)); pick.Kind != PickNone {
			return pick
		}
	}

	// 1. Merge the first file that accumulated enough upper-level data: either
	// SliceThreshold slices (Algorithm 1's trigger) or slice bytes matching
	// its own size ("nearly the same amount of data as itself", §III-A),
	// scaled by T_s/Fanout (SliceLinkThreshold over Fanout, which fig12a
	// sweeps).
	for level := 1; level < version.NumLevels; level++ {
		for _, f := range v.Sliced[level] {
			if len(f.Slices) >= ts || f.SliceBytes() >= f.Size*int64(ts)/int64(p.params.Fanout) {
				return mergePick(level, f, float64(len(f.Slices))/float64(ts))
			}
		}
	}

	// 2. Space backpressure: only *duplicated* frozen bytes (already-merged
	// slice portions, the paper's gray slices) are true overhead; force the
	// most-linked file to merge when they exceed the bound.
	if dup := v.DuplicatedFrozenBytes(); dup > 0 {
		var total int64
		for l := 0; l < version.NumLevels; l++ {
			total += v.LevelBytes(l)
		}
		if float64(dup) > FrozenFraction*float64(total+dup) {
			var best Pick
			var bestBytes int64
			for level := 1; level < version.NumLevels; level++ {
				for _, f := range v.Sliced[level] {
					if sb := f.SliceBytes(); sb > bestBytes {
						best, bestBytes = mergePick(level, f, 1), sb
					}
				}
			}
			if best.Kind == PickMerge {
				return best
			}
		}
	}

	// 3. Pressure-driven link (or conventional L0 compaction), most
	// pressured level first.
	for _, ls := range p.levelsByScore(v) {
		if pick := p.pickLDCLevel(v, ls.level, ls.score); pick.Kind != PickNone {
			return pick
		}
	}
	return Pick{Kind: PickNone}
}

// pickLDCLevel picks link/move/merge work for one pressured level.
func (p *Picker) pickLDCLevel(v *version.Version, level int, score float64) Pick {
	if level == 0 {
		inputs := p.expandL0(v, v.Levels[0][0])
		r := inputsRange(p.icmp.User, inputs)
		return compactOrMove(0, inputs, v.EffectiveOverlaps(1, r), score)
	}

	// A file already carrying slices cannot be frozen (paper §III-D); the
	// round-robin pass links the first slice-free file.
	for _, f := range p.roundRobin(v, level) {
		if len(f.Slices) > 0 {
			continue
		}
		inputs := []*version.FileMeta{f}
		overlaps := v.EffectiveOverlaps(level+1, version.EffectiveRange(p.icmp.User, f))
		pick := compactOrMove(level, inputs, overlaps, score)
		if len(overlaps) > 0 {
			pick.Kind = PickLink
		}
		return pick
	}
	// Every file carries slices: merge the fullest one so the level can
	// progress next round.
	best := Pick{Kind: PickNone}
	bestSlices := -1
	for _, c := range v.Sliced[level] {
		if len(c.Slices) > bestSlices {
			best, bestSlices = mergePick(level, c, score), len(c.Slices)
		}
	}
	return best
}

// SliceWindows computes the per-target slice key windows for a link of
// upper file su across the lower-level overlap set (paper Example 3.2):
// the first target's window starts at su's smallest key, each subsequent
// window starts just after the previous target's responsibility boundary,
// and the last window extends to su's largest key. Responsibility
// boundaries use each target's *effective* largest key (own range union
// existing slice windows) so repeated links stay consistent, and windows
// are clamped to be contiguous and non-inverted, guaranteeing every key of
// su lands in exactly one slice. SliceWindows sorts overlaps in place by
// effective lower bound and returns windows in that order. Windows are
// inclusive; "just after" appends a zero byte, the successor under the
// bytewise comparer.
func SliceWindows(ucmp keys.Comparer, su *version.FileMeta, overlaps []*version.FileMeta) []keys.KeyRange {
	sortByEffectiveLo(ucmp, overlaps)
	windows := make([]keys.KeyRange, len(overlaps))
	lo := su.Smallest.UserKey()
	for i, sl := range overlaps {
		hi := version.EffectiveRange(ucmp, sl).Hi
		if ucmp.Compare(hi, lo) < 0 {
			hi = lo // degenerate target entirely below the remaining range
		}
		if i == len(overlaps)-1 && ucmp.Compare(su.Largest.UserKey(), hi) > 0 {
			hi = su.Largest.UserKey()
		}
		windows[i] = keys.KeyRange{Lo: lo, Hi: hi}
		lo = successor(hi)
	}
	return windows
}

func sortByEffectiveLo(ucmp keys.Comparer, files []*version.FileMeta) {
	sort.Slice(files, func(i, j int) bool {
		return ucmp.Compare(version.EffectiveRange(ucmp, files[i]).Lo,
			version.EffectiveRange(ucmp, files[j]).Lo) < 0
	})
}

// successor returns the smallest byte string strictly greater than k under
// bytewise ordering.
func successor(k []byte) []byte {
	out := make([]byte, len(k)+1)
	copy(out, k)
	return out
}
