//go:build race

package main

// raceEnabled reports whether the race detector is active: the tables
// then take over 40 s, so their golden is skipped under it.
const raceEnabled = true
