package checker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The tests in this file validate the steal strategy's recycling of
// consumed frontier states (strategy_steal.go: the consumer is the
// state's only holder) with a *poisoning* recycler: every state handed
// to Recycle is marked dead before it returns to the free list, and
// every Expand asserts the state it was given is alive. A state recycled
// while another worker could still expand it is therefore caught two
// ways — deterministically by the dead-flag assertion (counted in
// poisoned), and under -race by the unsynchronised dead-flag write
// racing the reader. Equivalence against a sequential DFS reference
// then confirms recycling loses no work and fabricates none.

// poisonState is a heap-allocated grid cell; dead is the poison flag.
type poisonState struct {
	x, y int
	dead bool
}

func (s *poisonState) Encode(buf []byte) []byte {
	return append(buf, byte(s.x), byte(s.x>>8), byte(s.y), byte(s.y>>8))
}

// poisonGrid is a w×h diamond lattice (moves: right, down) — the
// densest duplicate structure per state, so most children die on the
// visited-store match and flow through the recycler; the fan at each
// anti-diagonal gives thieves real work to steal.
type poisonGrid struct {
	w, h int

	mu     sync.Mutex
	free   []*poisonState
	trFree [][]Transition

	recycled atomic.Int64 // states handed back via Recycle
	poisoned atomic.Int64 // uses of a dead state / double recycles
}

func (p *poisonGrid) get(x, y int) *poisonState {
	p.mu.Lock()
	var s *poisonState
	if n := len(p.free); n > 0 {
		s, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		return &poisonState{x: x, y: y}
	}
	s.x, s.y, s.dead = x, y, false
	return s
}

func (p *poisonGrid) getTrs() []Transition {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.trFree); n > 0 {
		trs := p.trFree[n-1]
		p.trFree = p.trFree[:n-1]
		return trs[:0]
	}
	return nil
}

func (p *poisonGrid) Initial() State { return p.get(0, 0) }

func (p *poisonGrid) Expand(st State) []Transition {
	s := st.(*poisonState)
	if s.dead {
		p.poisoned.Add(1)
		return nil
	}
	out := p.getTrs()
	if s.x < p.w {
		out = append(out, Transition{Label: "right", Next: p.get(s.x+1, s.y)})
	}
	if s.y < p.h {
		out = append(out, Transition{Label: "down", Next: p.get(s.x, s.y+1)})
	}
	return out
}

func (p *poisonGrid) Inspect(st State) []Violation {
	s := st.(*poisonState)
	if s.dead {
		p.poisoned.Add(1)
		return nil
	}
	if s.x == p.w && s.y == p.h {
		return []Violation{{Property: "corner", Detail: "reached far corner"}}
	}
	return nil
}

func (p *poisonGrid) Recycle(st State) {
	s := st.(*poisonState)
	if s.dead {
		p.poisoned.Add(1)
		return
	}
	s.dead = true
	s.x, s.y = -1, -1
	p.recycled.Add(1)
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

func (p *poisonGrid) RecycleTransitions(trs []Transition) {
	p.mu.Lock()
	p.trFree = append(p.trFree, trs)
	p.mu.Unlock()
}

// TestStealRecyclePoison: the steal strategy, recycling on, must
// explore the exact DFS state space with zero dead-state uses — a
// stolen-but-unexpanded state is its own entry's, never its parent's,
// so recycling the parent cannot touch it. Run repeatedly (and under
// -race in CI) because the hazardous interleavings are probabilistic.
//
// Every run must also recycle all but a handful of the states it
// stepped: each duplicate and each stored state goes back once, except
// the last successor each worker's eager adapter handed out (its next
// Step never comes) and steal's root (trail replay starts from it).
// Recycling merely something is not enough: without the adapter's
// recycling of unkept successors the search still recycles every
// consumed state, yet allocates a clone per duplicate again.
func TestStealRecyclePoison(t *testing.T) {
	mk := func() *poisonGrid { return &poisonGrid{w: 48, h: 48} }
	opts := Options{MaxDepth: 200}
	recycledAll := func(name string, sys *poisonGrid, res *Result, workers int) {
		t.Helper()
		want := int64(res.StatesMatched + res.StatesStored - workers - 1)
		if got := sys.recycled.Load(); got < want {
			t.Errorf("%s: recycled %d states, want at least %d (matched %d + stored %d − %d workers − 1)",
				name, got, want, res.StatesMatched, res.StatesStored, workers)
		}
	}

	ref := mk()
	seq := Run(ref, opts)
	if seq.Truncated || len(seq.Violations) != 1 {
		t.Fatalf("reference run: truncated=%v violations=%d", seq.Truncated, len(seq.Violations))
	}
	if ref.poisoned.Load() != 0 {
		t.Fatalf("dfs reference used %d dead states", ref.poisoned.Load())
	}
	recycledAll("dfs reference", ref, seq, 1)

	for run := 0; run < 4; run++ {
		sys := mk()
		o := opts
		o.Strategy = StrategySteal
		o.Workers = 8
		res := Run(sys, o)
		if n := sys.poisoned.Load(); n != 0 {
			t.Fatalf("run %d: %d dead-state uses — steal recycled a live state", run, n)
		}
		if sys.recycled.Load() == 0 {
			t.Errorf("run %d: recycler never invoked — the hot path under test did not run", run)
		}
		recycledAll(fmt.Sprintf("run %d", run), sys, res, o.Workers)
		if res.StatesExplored != seq.StatesExplored || res.StatesMatched != seq.StatesMatched ||
			res.StatesStored != seq.StatesStored {
			t.Errorf("run %d: explored=%d matched=%d stored=%d, dfs %d/%d/%d",
				run, res.StatesExplored, res.StatesMatched, res.StatesStored,
				seq.StatesExplored, seq.StatesMatched, seq.StatesStored)
		}
		if len(res.Violations) != len(seq.Violations) {
			t.Errorf("run %d: %d violations, want %d", run, len(res.Violations), len(seq.Violations))
		}
	}

	// Escape hatch: with recycling off the steal strategy must never
	// call Recycle (DFS keeps its free-lists regardless).
	sys := mk()
	res := Run(sys, Options{MaxDepth: 200, Strategy: StrategySteal, Workers: 8, NoEpochReclaim: true})
	if sys.recycled.Load() != 0 {
		t.Errorf("NoEpochReclaim: steal still recycled %d states", sys.recycled.Load())
	}
	if res.StatesExplored != seq.StatesExplored {
		t.Errorf("NoEpochReclaim: explored=%d, dfs %d", res.StatesExplored, seq.StatesExplored)
	}
}
