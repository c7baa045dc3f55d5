// Package invariants gates runtime assertions that are too expensive — or
// too paranoid — for production builds. Build with
//
//	go test -tags invariants ./...
//
// (or `make invariants`) and every check in this package becomes active;
// without the tag, Enabled is a false constant and the compiler deletes the
// checks and their arguments' evaluation entirely, so call sites cost
// nothing.
//
// The checks guard the engine's reference-counting and lifecycle contracts:
// refcounts never go negative, released objects are never handed out again,
// pooled iterators are not used after Close, cache accounting never drifts.
// They are wired into internal/version, internal/core, and internal/cache,
// beside the lock-rank tracker (lockrank_enabled.go) that checks the order
// in which every engine lock nests.
package invariants

import "fmt"

// Violatedf reports an invariant violation. It panics when invariants are
// enabled and is a no-op (compiled away) otherwise. Call sites should guard
// any non-trivial argument computation with `if invariants.Enabled`.
func Violatedf(format string, args ...interface{}) {
	if !Enabled {
		return
	}
	panic("invariant violated: " + fmt.Sprintf(format, args...))
}

// CheckRefcountNonNegative panics (under -tags invariants) if a refcount
// has been decremented below zero — the signature of a double-release.
func CheckRefcountNonNegative(n int64, what string) {
	if !Enabled {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("invariant violated: %s refcount is %d (double release)", what, n))
	}
}

// CheckNotReleased panics (under -tags invariants) if an object that has
// already been released is being handed out or re-acquired.
func CheckNotReleased(released bool, what string) {
	if !Enabled {
		return
	}
	if released {
		panic(fmt.Sprintf("invariant violated: %s acquired after release", what))
	}
}
