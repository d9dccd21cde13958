// An oracle that shares nothing with the engine. The equivalence
// matrices elsewhere compare the engine with itself (strategy against
// strategy, flag on against off), so an error every configuration
// shares — an h1 alias in the visited table, a wrong incremental-digest
// fold, a clone that aliases its parent's header — is invisible to
// them. The reference below is a breadth-first search over
// checker.System that calls only Initial, Expand and Inspect and keys
// the visited set on the full Encode bytes: no digest, store, scratch,
// recycler, reduction or lazy trail.
package iotsan_test

import (
	"fmt"
	"sort"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/experiments"
	"iotsan/internal/model"
)

// referenceResult is what the naive search learns about a system.
type referenceResult struct {
	states     int      // distinct full encodings reached
	violations []string // sorted (Property, Detail) keys, edge and state violations
	depth      int      // deepest breadth-first level holding a state
}

func referenceBFS(sys checker.System) referenceResult {
	init := sys.Initial()
	seen := map[string]struct{}{string(init.Encode(nil)): {}}
	viols := map[string]struct{}{}
	note := func(vs []checker.Violation) {
		for _, v := range vs {
			viols[v.Property+"\x00"+v.Detail] = struct{}{}
		}
	}
	note(sys.Inspect(init))
	depth := 0
	for level := []checker.State{init}; ; depth++ {
		var next []checker.State
		for _, s := range level {
			for _, tr := range sys.Expand(s) {
				note(tr.Violations)
				key := string(tr.Next.Encode(nil))
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				note(sys.Inspect(tr.Next))
				next = append(next, tr.Next)
			}
		}
		if len(next) == 0 {
			break
		}
		level = next
	}
	res := referenceResult{states: len(seen), depth: depth}
	for k := range viols {
		res.violations = append(res.violations, k)
	}
	sort.Strings(res.violations)
	return res
}

// TestReferenceCheckerAgreement: on every market-app corpus group and on
// the fault workload with a live budget, {dfs, steal w=1, steal w=4} ×
// {exhaustive, tiered} store exactly the reference's states and report
// exactly its violation set, and steal's MaxDepthReached — the fixpoint
// of its depth relaxation — is the reference's deepest level. CI runs
// group3, the cheapest, under the race detector as well.
func TestReferenceCheckerAgreement(t *testing.T) {
	// The concurrent-design shapes of porCorpusConfigs: fully explorable,
	// and deep enough (a level per pending dispatch) that first-found and
	// minimal depths differ.
	type workload struct {
		name  string
		build func(t *testing.T) (*model.Model, checker.Options)
	}
	var workloads []workload
	for g := 1; g <= 6; g++ {
		cfg := porCorpusConfigs[g-1]
		workloads = append(workloads, workload{fmt.Sprintf("group%d", g), func(t *testing.T) (*model.Model, checker.Options) {
			return incGroupModel(t, g, cfg.napps, cfg.events, true), checker.Options{MaxDepth: 100}
		}})
	}
	workloads = append(workloads, workload{"faults", func(t *testing.T) (*model.Model, checker.Options) {
		m, copts, _, err := experiments.FaultWorkload(true, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m, copts
	}})

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			if raceEnabled && w.name != "group3" {
				t.Skipf("%s skipped under the race detector (group3 covers the interleavings)", w.name)
			}
			m, base := w.build(t)
			ref := referenceBFS(m.System())
			if len(ref.violations) == 0 {
				t.Fatal("reference found no violations — the agreement check is vacuous")
			}
			t.Logf("reference: %d states, %d violations, deepest level %d", ref.states, len(ref.violations), ref.depth)

			for _, eng := range []struct {
				strat   checker.StrategyKind
				workers int
			}{{checker.StrategyDFS, 0}, {checker.StrategySteal, 1}, {checker.StrategySteal, 4}} {
				for _, store := range []checker.StoreKind{checker.Exhaustive, checker.Tiered} {
					o := base
					o.Strategy, o.Workers, o.Store = eng.strat, eng.workers, store
					if store == checker.Tiered {
						o.StoreDir = t.TempDir()
						o.MemBudget = 1 // the hot-tier floor: most fingerprints spill
					}
					name := fmt.Sprintf("%v workers=%d store=%v", eng.strat, eng.workers, store)
					res := checker.Run(m.System(), o)
					if res.Truncated {
						t.Fatalf("%s: truncated; agreement needs a full search", name)
					}
					if res.StatesStored != ref.states {
						t.Errorf("%s: stored %d states, reference reached %d distinct encodings", name, res.StatesStored, ref.states)
					}
					if got := violationSet(res); !equalStringSlices(got, ref.violations) {
						t.Errorf("%s: violation sets differ:\nengine:    %q\nreference: %q", name, got, ref.violations)
					}
					if eng.strat == checker.StrategySteal && res.MaxDepthReached != ref.depth {
						t.Errorf("%s: MaxDepthReached %d, reference's deepest level %d", name, res.MaxDepthReached, ref.depth)
					}
				}
			}
		})
	}
}
