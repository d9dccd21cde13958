package checker

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// predictChain is keyedChain with an incremental digest and a
// Predictor that computes a successor's digest from the parent alone.
// wrong, when non-zero, is a doubled value whose prediction is off by
// one, and wrongFrom, when non-zero, puts every doubling from a parent at
// that depth or deeper off by one: the model bugs the engine must
// refuse to run past. With leaves set, InspectLeaf answers for every
// predicted successor at the depth bound, which has no transitions;
// without, it refuses every one.
type predictChain struct {
	keyedChain
	wrong       int
	wrongFrom   int
	leaves      bool
	steps       atomic.Int64
	predictions atomic.Int64
	lookups     atomic.Int64
}

func chainDigest(v, depth int) (uint64, uint64) {
	b := (&chainState{v: v, depth: depth}).Encode(nil)
	return fnv1a(b), hash2(b)
}

func (c *predictChain) IncrementalDigest(s State, _ bool) (uint64, uint64) {
	st := s.(*chainState)
	return chainDigest(st.v, st.depth)
}

func (c *predictChain) HasIncremental() bool { return true }

func (c *predictChain) Step(sc Scratch, parent State, stub *Transition) Transition {
	c.steps.Add(1)
	return c.keyedChain.Step(sc, parent, stub)
}

func (c *predictChain) Predict(sc Scratch, parent State, stub *Transition) (uint64, uint64, []Violation, bool) {
	p := parent.(*chainState)
	v := p.v + 1
	if stub.Key == 2 {
		v = p.v * 2
		if v == c.wrong || c.wrongFrom > 0 && p.depth >= c.wrongFrom {
			v++
		}
	}
	c.predictions.Add(1)
	sc.(*chainScratch).pred = chainState{v: v, depth: p.depth + 1}
	h1, h2 := chainDigest(v, p.depth+1)
	return h1, h2, nil, true
}

func (c *predictChain) InspectLeaf(sc Scratch, parent State) ([]Violation, bool) {
	if !c.leaves || parent.(*chainState).depth+1 < c.bound {
		return nil, false
	}
	c.lookups.Add(1)
	return c.Inspect(&sc.(*chainScratch).pred), true
}

// TestPredictorSkipsDuplicateSteps: a system whose Predictor answers for
// every successor is searched exactly as without the hook while only
// the successors the search keeps are stepped. The DFS matches counter
// for counter and trail for trail, on the hash store and on the
// bitstate store (which probes with the predicted second hash); the
// frontier strategy, on one worker and on four, matches every counter
// and the violation set (its trails are whichever path got there
// first). The chain's depth is part of its state, so no steal pass
// relaxes a depth and every prediction is a counted one.
func TestPredictorSkipsDuplicateSteps(t *testing.T) {
	for _, o := range []Options{
		{MaxDepth: 20},
		{MaxDepth: 20, Store: Bitstate, bitstateBits: 20},
		{MaxDepth: 20, Strategy: StrategySteal, Workers: 1},
		{MaxDepth: 20, Strategy: StrategySteal, Workers: 4},
	} {
		name := fmt.Sprintf("%v/%v/workers=%d", o.Strategy, o.Store, o.Workers)
		want := Run(&keyedChain{chainSys{bound: 13, bad: 24}}, o)
		sys := &predictChain{keyedChain: keyedChain{chainSys{bound: 13, bad: 24}}}
		got := Run(sys, o)
		if got.Err != nil || want.StatesMatched == 0 || len(want.Violations) == 0 {
			t.Fatalf("%s: err %v, or a vacuous run (%d matched, %d violations)", name, got.Err, want.StatesMatched, len(want.Violations))
		}
		generated := int64(got.StatesExplored - 1 + got.StatesMatched)
		if sys.predictions.Load() != generated || sys.steps.Load() >= generated {
			t.Errorf("%s: %d predictions and %d steps for %d generated successors", name, sys.predictions.Load(), sys.steps.Load(), generated)
		}
		if o.Strategy == StrategyDFS {
			assertSameRun(t, name, got, want)
			continue
		}
		if got.StatesExplored != want.StatesExplored || got.StatesMatched != want.StatesMatched ||
			got.StatesStored != want.StatesStored || got.MaxDepthReached != want.MaxDepthReached {
			t.Errorf("%s: explored/matched/stored/depth %d/%d/%d/%d, without the hook %d/%d/%d/%d", name,
				got.StatesExplored, got.StatesMatched, got.StatesStored, got.MaxDepthReached,
				want.StatesExplored, want.StatesMatched, want.StatesStored, want.MaxDepthReached)
		}
		if !slices.Equal(violationKeys(got), violationKeys(want)) {
			t.Errorf("%s: violations %q, without the hook %q", name, violationKeys(got), violationKeys(want))
		}
	}
}

// TestPredictorLeafLookup: a Predictor that answers every predicted
// leaf by lookup is searched exactly as without the hook — the DFS
// counter for counter and trail for trail, steal on one worker and on
// four with every counter and the violation set — and no looked-up
// successor is stepped: on the DFS every new successor is either
// stepped or looked up, never both. A chain of 13 levels reaches the
// bad value 24 at its last level, so a leaf's violation and trail come
// from the lookup.
func TestPredictorLeafLookup(t *testing.T) {
	for _, o := range []Options{
		{MaxDepth: 20},
		{MaxDepth: 20, Strategy: StrategySteal, Workers: 1},
		{MaxDepth: 20, Strategy: StrategySteal, Workers: 4},
	} {
		name := fmt.Sprintf("%v/workers=%d", o.Strategy, o.Workers)
		want := Run(&keyedChain{chainSys{bound: 13, bad: 24}}, o)
		sys := &predictChain{keyedChain: keyedChain{chainSys{bound: 13, bad: 24}}, leaves: true}
		got := Run(sys, o)
		if got.Err != nil || len(want.Violations) == 0 {
			t.Fatalf("%s: err %v, or a vacuous run (%d violations)", name, got.Err, len(want.Violations))
		}
		lookups := int(sys.lookups.Load())
		if lookups == 0 {
			t.Fatalf("%s: no leaf looked up", name)
		}
		if o.Strategy == StrategyDFS {
			assertSameRun(t, name, got, want)
			if steps := int(sys.steps.Load()); steps+lookups != got.StatesExplored-1 {
				t.Errorf("%s: %d steps and %d lookups for %d new successors", name, steps, lookups, got.StatesExplored-1)
			}
			continue
		}
		if got.StatesExplored != want.StatesExplored || got.StatesMatched != want.StatesMatched ||
			got.StatesStored != want.StatesStored || got.MaxDepthReached != want.MaxDepthReached {
			t.Errorf("%s: explored/matched/stored/depth %d/%d/%d/%d, without the hook %d/%d/%d/%d", name,
				got.StatesExplored, got.StatesMatched, got.StatesStored, got.MaxDepthReached,
				want.StatesExplored, want.StatesMatched, want.StatesStored, want.MaxDepthReached)
		}
		if !slices.Equal(violationKeys(got), violationKeys(want)) {
			t.Errorf("%s: violations %q, without the hook %q", name, violationKeys(got), violationKeys(want))
		}
	}
}

// TestPredictorMismatchFailsRun: a prediction that disagrees with the
// real step is a model bug, and a wrong prediction could as well have
// hidden a new state behind a seen digest, so the run returns an error
// naming the transition and no verdict — on the DFS, and on four steal
// workers. dbl->16 first leads to depth 4, where its predicted
// successor, 17, is unreachable, so the store reports it new whatever
// the schedule. With every doubling from depth 6 on mispredicted,
// several workers fail at once and the first failure is the one
// reported; that case runs many rounds, and under -race in CI, because
// the overlap is probabilistic. (Mispredicting from the root would
// fail the first expansion before any other worker had work.) A
// failure is certain: 2^6 doubled lands on 2^7, whose predicted
// successor 2^7+1 is unreachable at depth 7.
func TestPredictorMismatchFailsRun(t *testing.T) {
	for _, c := range []struct {
		name             string
		wrong, wrongFrom int
		opts             Options
		names            string
		rounds           int
	}{
		{"dfs", 16, 0, Options{MaxDepth: 20}, `"dbl->16"`, 1},
		{"steal", 16, 0, Options{MaxDepth: 20, Strategy: StrategySteal, Workers: 4}, `"dbl->16"`, 1},
		{"steal/every-deep-dbl", 0, 6, Options{MaxDepth: 20, Strategy: StrategySteal, Workers: 4}, `"dbl->`, 50},
	} {
		for range c.rounds {
			sys := &predictChain{keyedChain: keyedChain{chainSys{bound: 13, bad: 24}}, wrong: c.wrong, wrongFrom: c.wrongFrom}
			res := Run(sys, c.opts)
			if res.Err == nil || !strings.Contains(res.Err.Error(), c.names) {
				t.Fatalf("%s: err %v, want one naming a transition %s", c.name, res.Err, c.names)
			}
			if !reflect.DeepEqual(res, &Result{Err: res.Err}) {
				t.Fatalf("%s: a failed run reports more than its error: %+v", c.name, res)
			}
		}
	}
}
