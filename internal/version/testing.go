package version

import "repro/internal/keys"

// BuildForTest applies one edit to an empty version and returns the result,
// validating invariants. It exists for other packages' unit tests, which
// need synthetic versions without a Set or MANIFEST.
func BuildForTest(icmp keys.InternalComparer, e *Edit) (*Version, error) {
	b := newBuilder(icmp)
	b.reset(NewVersion(icmp))
	b.apply(e)
	return b.finish()
}
