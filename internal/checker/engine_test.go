package checker

import (
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// multiViolSys raises two violations on every transition.
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

		// A deadline that falls mid-search, on a tree no search exhausts:
		// every worker, each pacing its own clock readings, stops soon
		// after it (steal-4 under -race: the pacing is per worker).
		opts = base
		opts.MaxDepth = 64
		opts.Deadline = 20 * time.Millisecond
		start := time.Now()
		res = Run(treeSys{}, opts)
		if !res.Truncated || res.StatesExplored < 2 {
			t.Errorf("%s: mid-search Deadline run truncated %v after %d states, want truncated mid-search",
				name, res.Truncated, res.StatesExplored)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Errorf("%s: a 20 ms Deadline stopped the search after %v", name, took)
		}
	}
}

// treeSys is the infinite binary tree over uint64 node numbers: a search
// of it ends only at a limit.
type treeSys struct{}

type treeState uint64

func (s treeState) Encode(buf []byte) []byte { return binary.LittleEndian.AppendUint64(buf, uint64(s)) }

func (treeSys) Initial() State { return treeState(0) }

func (treeSys) Expand(s State) []Transition {
	v := uint64(s.(treeState))
	return []Transition{{Label: "left", Next: treeState(2*v + 1)}, {Label: "right", Next: treeState(2*v + 2)}}
}

func (treeSys) Inspect(State) []Violation { return nil }

// TestBitstateFalsePositives: with a tiny bit array the bitstate store
// reports unseen states as matched (supertrace's completeness
// trade-off), so exploration shrinks versus the exhaustive store and
// StatesMatched inflates beyond the true duplicate count. A state lost
// to a false positive is neither expanded nor inspected: Inspect runs
// once per state the store admitted, the same as on every other store.
func TestBitstateFalsePositives(t *testing.T) {
	exRes := Run(&chainSys{bound: 18, bad: -1}, Options{MaxDepth: 24})
	sys := &inspectCounter{System: &chainSys{bound: 18, bad: -1}}
	// 1024 bits — far below the state count.
	bsRes := Run(sys, Options{MaxDepth: 24, Store: Bitstate, bitstateBits: 10})

	if bsRes.StatesExplored >= exRes.StatesExplored {
		t.Errorf("bitstate explored %d, want fewer than exhaustive %d (false positives must prune)",
			bsRes.StatesExplored, exRes.StatesExplored)
	}
	if bsRes.StatesMatched == 0 {
		t.Error("bitstate matched no states under a saturated bit array")
	}
	if bsRes.StatesStored > 1<<10 {
		t.Errorf("bitstate stored %d > bit capacity", bsRes.StatesStored)
	}
	if got := int(sys.calls.Load()); got != bsRes.StatesExplored {
		t.Errorf("%d Inspect calls for %d admitted states (matched %d): a false positive must skip Inspect too",
			got, bsRes.StatesExplored, bsRes.StatesMatched)
	}
}

// TestStealRefusesDFSOnlyOptions: steal with a tiered or bitstate
// store, Checkpoint or Resume, checkpointing without a store directory,
// and a memory budget on a store other than the tiered one, are refused — Run returns Result.Err and nothing else,
// without inspecting a state or creating a file.
func TestStealRefusesDFSOnlyOptions(t *testing.T) {
	dir := t.TempDir()
	for name, opts := range map[string]Options{
		"steal-tiered":      {Strategy: StrategySteal, StoreDir: dir, Store: Tiered},
		"steal-bitstate":    {Strategy: StrategySteal, Store: Bitstate},
		"steal-checkpoint":  {Strategy: StrategySteal, StoreDir: dir, Checkpoint: true},
		"steal-resume":      {Strategy: StrategySteal, StoreDir: dir, Resume: true},
		"checkpoint-no-dir": {Checkpoint: true},
		"resume-no-dir":     {Resume: true},
		"budget-exhaustive": {MemBudget: 1},
		"budget-bitstate":   {Store: Bitstate, MemBudget: 1},
	} {
		if opts.Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", name, opts)
		}
		sys := &inspectCounter{System: &chainSys{bound: 3, bad: 99}}
		res := Run(sys, opts)
		if res.Err == nil || !reflect.DeepEqual(res, &Result{Err: res.Err}) {
			t.Errorf("%s: Run = %+v, want only an error", name, res)
		}
		if n := sys.calls.Load(); n != 0 {
			t.Errorf("%s: the refused search inspected %d states", name, n)
		}
	}
	if err := (Options{Strategy: StrategySteal}).Validate(); err != nil {
		t.Errorf("steal on the exhaustive store refused: %v", err)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Errorf("refused searches left %d files in the store directory (%v)", len(files), err)
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

// TestStealTrailReplays: a trail built from an entry path with
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
