// Equivalence, fold-ratio, and trail-replay gates for symmetry
// reduction: folding isomorphic device-permutation states may shrink
// the explored space, never the distinct-violation set. Every corpus
// group is verified under the concurrent design with symmetry off (the
// oracle) and on, across both search strategies; the full pipeline
// is exercised with the group scheduler in both modes; and the
// interchangeable-device group must fold at least 30% of its states
// while every reported trail still replays on the raw model.
package iotsan_test

import (
	"fmt"
	"testing"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
	"iotsan/internal/model"
	"iotsan/internal/props"
)

// symGroupModel builds a concurrent-design model for a prefix of one
// market group with the symmetry tables computed (the checker's
// Options.Symmetry decides whether they are used, so one model serves
// oracle and reduced runs).
func symGroupModel(t *testing.T, group, napps, maxEvents int) *model.Model {
	t.Helper()
	sources := corpus.Group(group)
	if napps > 0 && napps < len(sources) {
		sources = sources[:napps]
	}
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys := experiments.ExpertConfig(fmt.Sprintf("sym-group-%d", group), sources, apps)
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: maxEvents, CheckConflicts: true, Invariants: invs,
		Design: model.Concurrent, Symmetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// symWorkloadModel builds the interchangeable-device workload model
// (the fold-ratio gate's fuel: two orbits of three devices each).
func symWorkloadModel(t *testing.T) *model.Model {
	t.Helper()
	m, _, _, err := experiments.SymmetryWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if st := m.SymmetryStats(); st.Orbits != 2 || st.Largest != 3 {
		t.Fatalf("symmetry workload must carry two orbits of 3, got %+v", st)
	}
	return m
}

// TestSymmetryViolationEquivalenceCorpus: on every corpus group,
// symmetry reduction preserves the distinct-violation set exactly —
// under DFS and work-stealing — and never explores more states than the
// full search.
func TestSymmetryViolationEquivalenceCorpus(t *testing.T) {
	for g := 1; g <= 6; g++ {
		g := g
		t.Run(fmt.Sprintf("group%d", g), func(t *testing.T) {
			t.Parallel()
			cfg := porCorpusConfigs[g-1]
			m := symGroupModel(t, g, cfg.napps, cfg.events)
			base := checker.Options{MaxDepth: 100}
			oracle := checker.Run(m.System(), base)
			if oracle.Truncated {
				t.Fatal("oracle run truncated; the equivalence gate needs full exploration")
			}
			want := violationSet(oracle)
			if len(want) == 0 {
				t.Fatal("oracle found no violations — the equivalence check is vacuous")
			}
			for _, strat := range []checker.StrategyKind{checker.StrategyDFS, checker.StrategySteal} {
				o := base
				o.Strategy = strat
				o.Workers = 2
				o.Symmetry = true
				res := checker.Run(m.System(), o)
				if res.Truncated {
					t.Fatalf("%v+symmetry: truncated", strat)
				}
				if res.StatesExplored > oracle.StatesExplored {
					t.Errorf("%v+symmetry explored %d states, more than the full search's %d",
						strat, res.StatesExplored, oracle.StatesExplored)
				}
				got := violationSet(res)
				if len(got) != len(want) {
					t.Errorf("%v+symmetry: %d distinct violations, oracle %d", strat, len(got), len(want))
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%v+symmetry: violation sets differ at %d:\nsym:    %q\noracle: %q", strat, i, got[i], want[i])
						break
					}
				}
			}
		})
	}
}

// TestSymmetryViolationEquivalenceInterchangeable: the same gate on the
// dedicated interchangeable-device group — where the orbits are large
// and folding is heavy — under both concurrency designs, both
// strategies, and composed with POR.
func TestSymmetryViolationEquivalenceInterchangeable(t *testing.T) {
	for _, design := range []model.Design{model.Sequential, model.Concurrent} {
		design := design
		t.Run(design.String(), func(t *testing.T) {
			t.Parallel()
			sys, apps, err := experiments.SymmetrySystem("sym-equiv-" + design.String())
			if err != nil {
				t.Fatal(err)
			}
			invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
			if err != nil {
				t.Fatal(err)
			}
			m, err := model.New(sys, apps, model.Options{
				MaxEvents: 2, CheckConflicts: true, Invariants: invs,
				Design: design, Symmetry: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			base := checker.Options{MaxDepth: 100}
			oracle := checker.Run(m.System(), base)
			if oracle.Truncated {
				t.Fatal("oracle truncated")
			}
			want := violationSet(oracle)
			if len(want) == 0 {
				t.Fatal("oracle found no violations — the equivalence check is vacuous")
			}
			for _, strat := range []checker.StrategyKind{checker.StrategyDFS, checker.StrategySteal} {
				for _, por := range []bool{false, true} {
					if por && design != model.Concurrent {
						continue // POR engages only in the concurrent design
					}
					o := base
					o.Strategy = strat
					o.Workers = 2
					o.Symmetry = true
					o.POR = por
					res := checker.Run(m.System(), o)
					name := fmt.Sprintf("%v por=%v", strat, por)
					if res.Truncated {
						t.Fatalf("%s: truncated", name)
					}
					if got := violationSet(res); !equalStringSlices(got, want) {
						t.Errorf("%s: violation set differs:\nsym:    %v\noracle: %v", name, got, want)
					}
				}
			}
		})
	}
}

// TestSymmetryGroupSchedulerEquivalence: symmetry composes with the
// full pipeline — dependency analysis, related-set decomposition,
// per-group verification — reporting the identical deduped violation
// set for every strategy with related sets verified one after another
// and concurrently.
func TestSymmetryGroupSchedulerEquivalence(t *testing.T) {
	sources := corpus.Group(1)[:12]
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys := experiments.ExpertConfig("sym-sched", sources, apps)

	base := iotsan.Options{MaxEvents: 2, Design: iotsan.Concurrent, Workers: 1}
	oracle, err := iotsan.AnalyzeTranslated(sys, apps, base)
	if err != nil {
		t.Fatal(err)
	}
	want := reportViolationKeys(oracle)
	if len(want) == 0 {
		t.Fatal("oracle found no violations — the equivalence check is vacuous")
	}

	for _, strat := range []iotsan.Strategy{iotsan.StrategyDFS, iotsan.StrategySteal} {
		for _, workers := range schedulerWidths {
			name := fmt.Sprintf("strategy=%v workers=%d", strat, workers)
			o := base
			o.Strategy = strat
			o.Workers = workers
			o.Symmetry = true
			rep, err := iotsan.AnalyzeTranslated(sys, apps, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := reportViolationKeys(rep)
			if len(got) != len(want) {
				t.Errorf("%s: %d distinct violations, oracle %d", name, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s: violation sets differ at %d:\nsym:    %q\noracle: %q", name, i, got[i], want[i])
					break
				}
			}
		}
	}
}

// TestSymmetryReductionGate: the CI teeth behind the fold claim — on
// the interchangeable-device workload (two orbits of three devices)
// symmetry must cut the explored state space by at least 30% while
// preserving the violation set, and must keep paying on top of POR.
func TestSymmetryReductionGate(t *testing.T) {
	m := symWorkloadModel(t)
	base := checker.Options{MaxDepth: 100}
	full := checker.Run(m.System(), base)
	if full.Truncated {
		t.Fatal("full run truncated")
	}
	sym := base
	sym.Symmetry = true
	red := checker.Run(m.System(), sym)
	if red.Truncated {
		t.Fatal("symmetry run truncated")
	}
	if got, want := violationSet(red), violationSet(full); !equalStringSlices(got, want) {
		t.Fatalf("symmetry changed the violation set:\nsym:    %v\noracle: %v", got, want)
	}
	ratio := 1 - float64(red.StatesExplored)/float64(full.StatesExplored)
	t.Logf("states %d → %d (%.1f%% fold)", full.StatesExplored, red.StatesExplored, ratio*100)
	if ratio < 0.30 {
		t.Errorf("symmetry folded %.1f%% of explored states, want >= 30%%", ratio*100)
	}

	// Composed with POR: the reductions must stack — POR+symmetry may
	// not explore more states than POR alone, and still finds the same
	// violations.
	por := base
	por.POR = true
	porOnly := checker.Run(m.System(), por)
	por.Symmetry = true
	both := checker.Run(m.System(), por)
	if porOnly.Truncated || both.Truncated {
		t.Fatal("POR runs truncated")
	}
	if got, want := violationSet(both), violationSet(full); !equalStringSlices(got, want) {
		t.Fatalf("POR+symmetry changed the violation set:\nboth:   %v\noracle: %v", got, want)
	}
	if both.StatesExplored > porOnly.StatesExplored {
		t.Errorf("POR+symmetry explored %d states, more than POR alone's %d",
			both.StatesExplored, porOnly.StatesExplored)
	}
	t.Logf("composed: full %d, POR %d, symmetry %d, POR+symmetry %d",
		full.StatesExplored, porOnly.StatesExplored, red.StatesExplored, both.StatesExplored)
}

// TestSymmetryTrailReplaysOnModel: every trail reported under symmetry
// reduction (work-stealing, the strategy with parent-link trails)
// replays from the initial state through genuine transitions of the
// *raw* model to its violation — folding must never leave a trail that
// only exists in the quotient graph.
func TestSymmetryTrailReplaysOnModel(t *testing.T) {
	m := symWorkloadModel(t)
	sys := m.System()
	res := checker.Run(sys, checker.Options{
		MaxDepth: 100, Strategy: checker.StrategySteal, Workers: 4, Symmetry: true,
	})
	if len(res.Violations) == 0 {
		t.Fatal("no violations reported — the replay check is vacuous")
	}
	for _, f := range res.Violations {
		cur := sys.Initial()
		violated := false
	steps:
		for i, step := range f.Trail {
			for _, tr := range sys.Expand(cur) {
				if tr.Label != step.Label {
					continue
				}
				for _, v := range tr.Violations {
					if v.Property == f.Property && v.Detail == f.Detail {
						violated = true
					}
				}
				cur = tr.Next
				continue steps
			}
			t.Fatalf("%s: trail step %d (%q) is not a transition of the replayed state", f.Violation, i, step.Label)
		}
		for _, v := range sys.Inspect(cur) {
			if v.Property == f.Property && v.Detail == f.Detail {
				violated = true
			}
		}
		if !violated {
			t.Errorf("%s: replayed trail does not exhibit the violation", f.Violation)
		}
	}
}
