// Package iosched is what is left of the deleted background I/O rate
// limiter: the names bench/ still compiles against.
//
// Deprecated: bench/ is the last reader; ROADMAP 3(b) deletes it.
package iosched

// Deprecated: bench/ is the last reader; ROADMAP 3(b) deletes it.
type Tier int

// Deprecated: bench/ is the last reader; ROADMAP 3(b) deletes it.
const TierFlush Tier = 0

// Deprecated: bench/ is the last reader; ROADMAP 3(b) deletes it.
type Limiter struct{}

// Wait does nothing; a nil *Limiter is fine.
//
// Deprecated: bench/ is the last reader; ROADMAP 3(b) deletes it.
func (*Limiter) Wait(Tier, int) {}
