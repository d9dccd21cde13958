//go:build !race

package groovy

// raceEnabled reports whether the race detector is active: sync.Pool
// then drops a share of what it is given, so allocation budgets that
// rely on the token pool are skipped under it.
const raceEnabled = false
