package checker

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// predictChain is keyedChain with an incremental digest and a
// Predictor that computes a successor's digest from the parent alone.
// wrong, when non-zero, is a doubled value whose prediction is off by
// one: the model bug the engine must refuse to run past.
type predictChain struct {
	keyedChain
	wrong       int
	steps       atomic.Int64
	predictions atomic.Int64
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

func (c *predictChain) Predict(_ Scratch, parent State, stub *Transition) (uint64, uint64, []Violation, bool) {
	p := parent.(*chainState)
	v := p.v + 1
	if stub.Key == 2 {
		v = p.v * 2
		if v == c.wrong {
			v++
		}
	}
	c.predictions.Add(1)
	h1, h2 := chainDigest(v, p.depth+1)
	return h1, h2, nil, true
}

// TestPredictorSkipsDuplicateSteps: a system whose Predictor answers for
// every successor is searched by the DFS exactly as without the hook,
// counter for counter and trail for trail, on the hash store and on the
// bitstate store (which probes with the predicted second hash), while
// only new successors are stepped. The frontier strategy never asks.
func TestPredictorSkipsDuplicateSteps(t *testing.T) {
	for _, o := range []Options{
		{MaxDepth: 20},
		{MaxDepth: 20, Store: Bitstate, BitstateBits: 20},
		{MaxDepth: 20, Strategy: StrategySteal, Workers: 4},
	} {
		name := o.Strategy.String() + "/" + o.Store.String()
		want := Run(&keyedChain{chainSys{bound: 13, bad: 24}}, o)
		sys := &predictChain{keyedChain: keyedChain{chainSys{bound: 13, bad: 24}}}
		got := Run(sys, o)
		if got.Err != nil || want.StatesMatched == 0 || len(want.Violations) == 0 {
			t.Fatalf("%s: err %v, or a vacuous run (%d matched, %d violations)", name, got.Err, want.StatesMatched, len(want.Violations))
		}
		generated := int64(got.StatesExplored - 1 + got.StatesMatched)
		if o.Strategy == StrategySteal {
			if sys.predictions.Load() != 0 || sys.steps.Load() != generated {
				t.Errorf("%s: %d predictions and %d steps for %d generated successors, want none and all", name, sys.predictions.Load(), sys.steps.Load(), generated)
			}
			continue
		}
		assertSameRun(t, name, got, want)
		if sys.predictions.Load() != generated || sys.steps.Load() >= generated {
			t.Errorf("%s: %d predictions and %d steps for %d generated successors", name, sys.predictions.Load(), sys.steps.Load(), generated)
		}
	}
}

// TestPredictorMismatchFailsRun: a prediction that disagrees with the
// real step is a model bug, and a wrong prediction could as well have
// hidden a new state behind a seen digest, so the run returns an error
// naming the transition and no verdict.
func TestPredictorMismatchFailsRun(t *testing.T) {
	sys := &predictChain{keyedChain: keyedChain{chainSys{bound: 13, bad: 24}}, wrong: 16}
	res := Run(sys, Options{MaxDepth: 20})
	if res.Err == nil || !strings.Contains(res.Err.Error(), `"dbl->16"`) {
		t.Fatalf("err %v, want one naming the transition dbl->16", res.Err)
	}
	if !reflect.DeepEqual(res, &Result{Err: res.Err}) {
		t.Errorf("a failed run reports more than its error: %+v", res)
	}
}
