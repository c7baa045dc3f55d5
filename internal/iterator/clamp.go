package iterator

import "repro/internal/keys"

// NewClamped restricts child to internal keys whose *user key* lies in the
// inclusive range r. This is how an LDC slice is materialized: a frozen
// SSTable's iterator clamped to the key range the slice was linked with.
// Closing the clamped iterator closes the child.
func NewClamped(ucmp keys.Comparer, child Iterator, r keys.KeyRange) Iterator {
	c := new(Clamped)
	c.Init(ucmp, r)
	c.Child = child
	return c
}

// Clamped is the clamping iterator by value, for an owner that keeps many and
// reuses them: Init sets the window and builds its two bound keys into
// buffers the value keeps, so re-initialising and seeking allocate nothing.
// The owner sets Child before the first positioning call; Hi is there to tell
// a child that reads ahead where the window ends.
type Clamped struct {
	Child Iterator

	ucmp keys.Comparer
	r    keys.KeyRange
	// lo sorts before every version of r.Lo, hi after every version of r.Hi:
	// the window's entries are exactly the child's in [lo, hi].
	lo, hi keys.InternalKey
	valid  bool
}

// Init points c at window r with no child.
func (c *Clamped) Init(ucmp keys.Comparer, r keys.KeyRange) {
	c.Child, c.ucmp, c.r, c.valid = nil, ucmp, r, false
	c.lo = keys.MakeSearchKey(c.lo[:0], r.Lo, keys.MaxSeq)
	c.hi = keys.MakeInternalKey(c.hi[:0], r.Hi, 0, keys.KindDelete)
}

// Hi returns the largest internal key an entry of the window can have.
func (c *Clamped) Hi() []byte { return c.hi }

// settle updates validity after a positioning call: the child may have
// walked past the window's Hi, in which case the iterator is invalid. Every
// positioning call starts the child at or above Lo, and it only moves forward
// from there, so Lo needs no check.
func (c *Clamped) settle() {
	c.valid = c.Child.Valid() &&
		c.ucmp.Compare(keys.InternalKey(c.Child.Key()).UserKey(), c.r.Hi) <= 0
}

func (c *Clamped) Valid() bool { return c.valid }

func (c *Clamped) SeekGE(target []byte) {
	uk := keys.InternalKey(target).UserKey()
	switch {
	case c.ucmp.Compare(uk, c.r.Hi) > 0:
		// Target above the window: nothing to find, and no reason to make the
		// child load a block to learn it.
		c.valid = false
		return
	case c.ucmp.Compare(uk, c.r.Lo) < 0:
		// Target below the window: start at the window's first key.
		c.Child.SeekGE(c.lo)
	default:
		c.Child.SeekGE(target)
	}
	c.settle()
}

// SeekToFirst seeks to the window's first key; an inverted window (Lo above
// Hi) holds none, and reads nothing to learn it.
func (c *Clamped) SeekToFirst() { c.SeekGE(c.lo) }

func (c *Clamped) Next() {
	if !c.valid {
		return
	}
	c.Child.Next()
	c.settle()
}

func (c *Clamped) Key() []byte   { return c.Child.Key() }
func (c *Clamped) Value() []byte { return c.Child.Value() }
func (c *Clamped) Error() error  { return c.Child.Error() }
func (c *Clamped) Close() error  { return c.Child.Close() }
