//go:build race

package core

// raceEnabled says the race detector is on (see exactAllocs).
const raceEnabled = true
