package checker

import (
	"fmt"
	"testing"
)

// diamondSys is a diamond with unequal arms joining at X, plus a chain
// hanging off X: root→A1→…→A8→X, root→B1→X, X→C1→…→C4. Expand lists
// the B arm first, so a LIFO (depth-first) order explores the long A
// arm before the B shortcut: X is first stored at depth 9 even though
// its minimal depth is 2. With MaxDepth 10 the chain then appears
// clipped to a first-path search, while the minimal-depth space (max
// depth 8, on the A arm) fits entirely under the bound.
type diamondSys struct{ aLen, cLen int }

// Diamond state codes: 0 root, 1..aLen the A arm, 100 B1, 200 X,
// 200+k the chain.
func (d *diamondSys) Initial() State { return intState(0) }

func (d *diamondSys) Expand(s State) []Transition {
	step := func(v int) Transition {
		return Transition{Label: fmt.Sprintf("to-%d", v), Next: intState(v)}
	}
	switch v := int(s.(intState)); {
	case v == 0:
		return []Transition{step(100), step(1)} // B pushed first, A popped first (LIFO)
	case v >= 1 && v < d.aLen:
		return []Transition{step(v + 1)}
	case v == d.aLen:
		return []Transition{step(200)}
	case v == 100:
		return []Transition{step(200)}
	case v >= 200 && v < 200+d.cLen:
		return []Transition{step(v + 1)}
	}
	return nil
}

func (d *diamondSys) Inspect(State) []Violation { return nil }

// diamondBFS is the reference for the test below: a plain breadth-first
// walk of the diamond, returning the number of states, the number of
// edges that re-enter a visited state, and the deepest BFS level —
// every state's level is its minimal depth by construction.
func diamondBFS(d *diamondSys) (states, matched, maxDepth int) {
	level := map[State]int{d.Initial(): 0}
	for queue := []State{d.Initial()}; len(queue) > 0; queue = queue[1:] {
		for _, tr := range d.Expand(queue[0]) {
			if _, dup := level[tr.Next]; dup {
				matched++
				continue
			}
			level[tr.Next] = level[queue[0]] + 1
			maxDepth = level[tr.Next]
			queue = append(queue, tr.Next)
		}
	}
	return len(level), matched, maxDepth
}

// TestStealDepthClippingDeterministic: on a depth-clipped search the
// steal strategy's Truncated and MaxDepthReached must be derived from
// minimal depths — independent of which path stored a state first —
// and therefore stable across runs and worker counts, and equal to a
// breadth-first walk's (whose levels are minimal by construction).
// Before depth relaxation, a first-path order that reached X through
// the long arm recorded the chain beyond the bound and reported
// Truncated on a space that fits under it.
func TestStealDepthClippingDeterministic(t *testing.T) {
	sys := &diamondSys{aLen: 8, cLen: 4}
	wantStates, wantMatched, wantDepth := diamondBFS(sys)
	// root + A1..A8 + B1 + X + C1..C4; the one re-entering edge is the
	// later arm's into X; the deepest minimal depth is A8's.
	if wantStates != 15 || wantMatched != 1 || wantDepth != 8 {
		t.Fatalf("reference BFS: %d states, %d matched, depth %d; the diamond's construction fixes 15, 1, 8",
			wantStates, wantMatched, wantDepth)
	}

	for _, workers := range []int{1, 4} {
		for run := 0; run < 10; run++ {
			res := Run(sys, Options{MaxDepth: 10, Strategy: StrategySteal, Workers: workers})
			if res.Truncated {
				t.Fatalf("workers=%d run=%d: truncated on a space whose minimal depths fit the bound", workers, run)
			}
			if res.StatesExplored != wantStates {
				t.Errorf("workers=%d run=%d: explored %d states, want %d", workers, run, res.StatesExplored, wantStates)
			}
			if res.MaxDepthReached != wantDepth {
				t.Errorf("workers=%d run=%d: MaxDepthReached=%d, want the deepest minimal depth %d",
					workers, run, res.MaxDepthReached, wantDepth)
			}
			if res.StatesMatched != wantMatched {
				t.Errorf("workers=%d run=%d: matched %d, reference %d", workers, run, res.StatesMatched, wantMatched)
			}
		}
	}

	// With the bound below the minimal-depth diameter, clipping is real
	// and must be reported — again deterministically.
	for _, workers := range []int{1, 4} {
		for run := 0; run < 5; run++ {
			res := Run(sys, Options{MaxDepth: 5, Strategy: StrategySteal, Workers: workers})
			if !res.Truncated {
				t.Errorf("workers=%d run=%d: bound 5 clips the A arm but Truncated not set", workers, run)
			}
			if res.MaxDepthReached > 5 {
				t.Errorf("workers=%d run=%d: MaxDepthReached=%d exceeds the bound", workers, run, res.MaxDepthReached)
			}
		}
	}
}

// TestDFSLeafAtDepthBound: a leaf never becomes a DFS frame, yet one
// stored at the depth bound still marks the search truncated, as its
// frame, past the bound, used to; one level more and nothing is clipped.
// The keyed and eager paths agree on every counter and trail.
func TestDFSLeafAtDepthBound(t *testing.T) {
	for _, tc := range []struct {
		maxDepth  int
		truncated bool
	}{{6, true}, {7, false}} {
		opts := Options{MaxDepth: tc.maxDepth}
		eager := Run(&chainSys{bound: 6, bad: 12}, opts)
		keyed := Run(&keyedChain{chainSys{bound: 6, bad: 12}}, opts)
		name := fmt.Sprintf("MaxDepth %d", tc.maxDepth)
		if eager.Truncated != tc.truncated {
			t.Errorf("%s: truncated=%v, want %v (the leaves sit at depth 6)", name, eager.Truncated, tc.truncated)
		}
		assertSameRun(t, name, keyed, eager)
	}
}
