package checker

import (
	"fmt"
	"testing"
)

// keyedChain is chainSys with the Stepper hook. Its scratch owns one
// state object that every Step overwrites, so an engine that retained a
// borrowed Next past its window — in a frame, a trail, a deque entry —
// would see a later successor there and diverge from the eager run.
type keyedChain struct{ chainSys }

type chainScratch struct{ st chainState }

func (c *keyedChain) Enabled(s State, buf []Transition) []Transition {
	st := s.(*chainState)
	if st.depth >= c.bound {
		return buf
	}
	return append(buf,
		Transition{Label: fmt.Sprintf("inc->%d", st.v+1), Key: 1},
		Transition{Label: fmt.Sprintf("dbl->%d", st.v*2), Key: 2})
}

func (c *keyedChain) NewScratch() Scratch { return new(chainScratch) }

func (c *keyedChain) Step(sc Scratch, parent State, stub *Transition) Transition {
	cs, p := sc.(*chainScratch), parent.(*chainState)
	cs.st = chainState{v: p.v + 1, depth: p.depth + 1}
	if stub.Key == 2 {
		cs.st.v = p.v * 2
	}
	return Transition{Label: stub.Label, Next: &cs.st}
}

func (c *keyedChain) Keep(_ Scratch, next State) State {
	kept := *next.(*chainState)
	return &kept
}

// TestStepperMatchesEagerAdapter: a system searched through its Stepper
// hook and the same system searched through the eager adapter (Expand)
// are one search — on DFS counters, depths and trails byte for byte, on
// steal the violation set and the counters.
func TestStepperMatchesEagerAdapter(t *testing.T) {
	eager, keyed := &chainSys{bound: 13, bad: 24}, &keyedChain{chainSys{bound: 13, bad: 24}}
	for _, strat := range []StrategyKind{StrategyDFS, StrategySteal} {
		for _, workers := range []int{1, 4} {
			opts := Options{MaxDepth: 20, Strategy: strat, Workers: workers}
			want, got := Run(eager, opts), Run(keyed, opts)
			name := fmt.Sprintf("%v workers=%d", strat, workers)
			if len(want.Violations) == 0 || want.StatesMatched == 0 {
				t.Fatalf("%s: eager run is vacuous (%d violations, %d matched)", name, len(want.Violations), want.StatesMatched)
			}
			if strat == StrategyDFS {
				assertSameRun(t, name, got, want)
				continue
			}
			if got.StatesExplored != want.StatesExplored || got.StatesMatched != want.StatesMatched ||
				got.StatesStored != want.StatesStored || len(got.Violations) != len(want.Violations) {
				t.Errorf("%s: keyed explored/matched/stored/violations %d/%d/%d/%d, eager %d/%d/%d/%d", name,
					got.StatesExplored, got.StatesMatched, got.StatesStored, len(got.Violations),
					want.StatesExplored, want.StatesMatched, want.StatesStored, len(want.Violations))
			}
		}
	}
}

// TestWALKillResumeKeyedFrames: checkpointed DFS frames hold stubs, not
// pre-cloned successors; resume rebuilds the stack by re-stepping
// stubs[next-1] of every frame and finishes exactly like the
// uninterrupted search.
func TestWALKillResumeKeyedFrames(t *testing.T) {
	sys := &keyedChain{chainSys{bound: 13, bad: 24}}
	baseline := Run(sys, Options{MaxDepth: 20})

	dir := t.TempDir()
	killed := walBaseOpts(dir)
	killed.MaxStates = baseline.StatesExplored / 2
	if kres := Run(sys, killed); !kres.Truncated || kres.Store.Checkpoints == 0 {
		t.Fatalf("killed run: truncated=%v checkpoints=%d", kres.Truncated, kres.Store.Checkpoints)
	}
	resumed := walBaseOpts(dir)
	resumed.Resume = true
	rres := Run(sys, resumed)
	if !rres.Store.Resumed {
		t.Fatal("resume fell back to a fresh search despite an intact WAL")
	}
	assertSameRun(t, "keyed-resume", rres, baseline)
}
