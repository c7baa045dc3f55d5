//go:build race

package sstable

// raceEnabled says the race detector is on (see exactAllocs).
const raceEnabled = true
