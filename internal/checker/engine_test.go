package checker

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"
)

// multiViolSys raises two violations on every transition — it exercises
// the MaxViolations cap mid-expansion (the old checker consulted limits
// only once per loop iteration and overshot).
type multiViolSys struct{ width int }

type intState int

func (s intState) Encode(buf []byte) []byte { return append(buf, byte(s), byte(s>>8)) }

func (m *multiViolSys) Initial() State { return intState(0) }

func (m *multiViolSys) Expand(s State) []Transition {
	v := int(s.(intState))
	if v >= m.width {
		return nil
	}
	n := v + 1
	return []Transition{{
		Label: fmt.Sprintf("step-%d", n),
		Next:  intState(n),
		Violations: []Violation{
			{Property: "p-even", Detail: fmt.Sprintf("at %d", n)},
			{Property: "p-odd", Detail: fmt.Sprintf("at %d", n)},
		},
	}}
}

func (m *multiViolSys) Inspect(State) []Violation { return nil }

func violationKeys(res *Result) []string {
	var keys []string
	for _, f := range res.Violations {
		keys = append(keys, f.Property+"\x00"+f.Detail)
	}
	sort.Strings(keys)
	return keys
}

func strategies() map[string]Options {
	return map[string]Options{
		"dfs":     {Strategy: StrategyDFS},
		"steal":   {Strategy: StrategySteal},
		"steal-1": {Strategy: StrategySteal, Workers: 1},
		"steal-4": {Strategy: StrategySteal, Workers: 4},
	}
}

// TestMaxViolationsNeverOvershot: even when a single transition raises
// several violations, the cap is exact for every strategy.
func TestMaxViolationsNeverOvershot(t *testing.T) {
	for name, base := range strategies() {
		for _, cap := range []int{1, 3} {
			opts := base
			opts.MaxDepth = 64
			opts.MaxViolations = cap
			res := Run(&multiViolSys{width: 40}, opts)
			if len(res.Violations) != cap {
				t.Errorf("%s cap=%d: got %d violations", name, cap, len(res.Violations))
			}
			if !res.Truncated {
				t.Errorf("%s cap=%d: Truncated not set", name, cap)
			}
		}
	}
}

// TestTruncationLimits: MaxStates, MaxDepth, and Deadline all mark the
// result truncated, for both strategies, without large overshoot.
func TestTruncationLimits(t *testing.T) {
	slack := 2 * runtime.GOMAXPROCS(0) // concurrent workers may each finish one expansion
	for name, base := range strategies() {
		opts := base
		opts.MaxDepth = 64
		opts.MaxStates = 50
		res := Run(&chainSys{bound: 30, bad: -1}, opts)
		if !res.Truncated {
			t.Errorf("%s: MaxStates run not truncated", name)
		}
		if res.StatesExplored > 50+slack {
			t.Errorf("%s: explored %d states, cap 50 (+%d slack)", name, res.StatesExplored, slack)
		}

		opts = base
		opts.MaxDepth = 3
		res = Run(&chainSys{bound: 30, bad: -1}, opts)
		if res.MaxDepthReached > 3 {
			t.Errorf("%s: depth %d exceeds bound 3", name, res.MaxDepthReached)
		}
		if !res.Truncated {
			t.Errorf("%s: MaxDepth run not truncated", name)
		}

		opts = base
		opts.MaxDepth = 64
		opts.Deadline = time.Nanosecond
		res = Run(&chainSys{bound: 30, bad: -1}, opts)
		if !res.Truncated {
			t.Errorf("%s: Deadline run not truncated", name)
		}
	}
}

// TestBitstateFalsePositives: with a tiny bit array the bitstate store
// reports unseen states as matched (supertrace's completeness
// trade-off), so exploration shrinks versus the exhaustive store and
// StatesMatched inflates beyond the true duplicate count. A state lost
// to a false positive is neither expanded nor inspected: Inspect runs
// once per state the store admitted, the same as on every other store.
func TestBitstateFalsePositives(t *testing.T) {
	for name, base := range strategies() {
		ex := base
		ex.MaxDepth = 24
		exRes := Run(&chainSys{bound: 18, bad: -1}, ex)

		bs := base
		bs.MaxDepth = 24
		bs.Store = Bitstate
		bs.BitstateBits = 10 // 1024 bits — far below the state count
		sys := &inspectCounter{System: &chainSys{bound: 18, bad: -1}}
		bsRes := Run(sys, bs)

		if bsRes.StatesExplored >= exRes.StatesExplored {
			t.Errorf("%s: bitstate explored %d, want fewer than exhaustive %d (false positives must prune)",
				name, bsRes.StatesExplored, exRes.StatesExplored)
		}
		if bsRes.StatesMatched == 0 {
			t.Errorf("%s: bitstate matched no states under a saturated bit array", name)
		}
		if bsRes.StatesStored > 1<<10 {
			t.Errorf("%s: bitstate stored %d > bit capacity", name, bsRes.StatesStored)
		}
		if got := int(sys.calls.Load()); got != bsRes.StatesExplored {
			t.Errorf("%s: %d Inspect calls for %d admitted states (matched %d): a false positive must skip Inspect too",
				name, got, bsRes.StatesExplored, bsRes.StatesMatched)
		}
	}
}

// TestStealMatchesDFSOnToys: the steal strategy reports the same
// distinct-violation set — state and edge violations — and state count
// as sequential DFS on fully explored toy systems, which implement none
// of the optional hooks (eager adapter, no recycling, eager trails).
func TestStealMatchesDFSOnToys(t *testing.T) {
	systems := map[string]System{
		"chain":     &chainSys{bound: 8, bad: 24},
		"multiViol": &multiViolSys{width: 12},
	}
	for name, sys := range systems {
		seq := Run(sys, Options{MaxDepth: 32})
		for _, workers := range []int{1, 4} {
			st := Run(sys, Options{MaxDepth: 32, Strategy: StrategySteal, Workers: workers})
			if seq.Truncated || st.Truncated {
				t.Fatalf("%s/steal-%d: unexpected truncation", name, workers)
			}
			if got, want := violationKeys(st), violationKeys(seq); !equalStrings(got, want) {
				t.Errorf("%s: steal-%d violations %v != dfs %v", name, workers, got, want)
			}
			if st.StatesExplored != seq.StatesExplored {
				t.Errorf("%s: steal-%d explored %d, dfs %d", name, workers, st.StatesExplored, seq.StatesExplored)
			}
		}
	}
}

// TestStealTrailReplays: a trail reconstructed from parent links with
// eagerly recorded steps (the toy system is no Replayer) must be a
// genuine path of the system — replaying its labels from the initial
// state reaches the reported violation.
func TestStealTrailReplays(t *testing.T) {
	sys := &chainSys{bound: 8, bad: 24}
	res := Run(sys, Options{MaxDepth: 32, Strategy: StrategySteal})
	if !res.HasViolation("bad-value") {
		t.Fatal("violation not found")
	}
	for _, f := range res.Violations {
		if f.Depth != len(f.Trail) {
			t.Errorf("depth=%d trail=%d", f.Depth, len(f.Trail))
		}
		cur := sys.Initial()
		for i, step := range f.Trail {
			var next State
			for _, tr := range sys.Expand(cur) {
				if tr.Label == step.Label {
					next = tr.Next
					break
				}
			}
			if next == nil {
				t.Fatalf("trail step %d (%q) is not a transition of the current state", i, step.Label)
			}
			cur = next
		}
		if len(sys.Inspect(cur)) == 0 {
			t.Errorf("replayed trail for %s ends in a non-violating state", f.Violation)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
