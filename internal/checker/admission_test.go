package checker

import (
	"sync/atomic"
	"testing"
)

// inspectCounter counts the Inspect calls a run makes. The toy systems
// implement none of the optional hooks, so a plain wrapper keeps the
// engine on the same code path.
type inspectCounter struct {
	System
	calls atomic.Int64
}

func (c *inspectCounter) Inspect(s State) []Violation {
	c.calls.Add(1)
	return c.System.Inspect(s)
}

// TestInspectRunsPerStoredState pins the admission order on the toy
// systems for every strategy: with an exhaustive store Inspect runs
// once per stored state (the initial state included) and never on a
// duplicate.
func TestInspectRunsPerStoredState(t *testing.T) {
	for name, base := range strategies() {
		opts := base
		opts.MaxDepth = 16
		sys := &inspectCounter{System: &chainSys{bound: 10, bad: 24}}
		res := Run(sys, opts)
		if res.Truncated || res.StatesMatched == 0 {
			t.Fatalf("%s: truncated=%v matched=%d; the gate needs a full search with duplicates", name, res.Truncated, res.StatesMatched)
		}
		if got := int(sys.calls.Load()); got != res.StatesStored || got != res.StatesExplored {
			t.Errorf("%s: %d Inspect calls, want one per stored state (stored=%d explored=%d matched=%d)",
				name, got, res.StatesStored, res.StatesExplored, res.StatesMatched)
		}
	}
}
