//go:build !race

package model

// raceEnabled reports whether the race detector is active. Under it
// sync.Pool drops a quarter of what it is handed, so the gates on
// absolute allocation counts only log.
const raceEnabled = false
