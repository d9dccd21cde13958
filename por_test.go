// Equivalence and reduction gates for partial-order reduction: POR may
// only prune interleavings, never violations. Every corpus group is
// verified under the concurrent design with POR off (the oracle) and
// with POR on, across both search strategies — and through the
// group scheduler with and without GroupParallel — and the distinct
// violation sets must be identical. A separate gate asserts the
// reduction actually pays: on a multi-event group the explored state
// count must shrink by at least 20%.
package iotsan_test

import (
	"fmt"
	"sort"
	"testing"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
	"iotsan/internal/model"
	"iotsan/internal/props"
)

// porGroupModel builds a concurrent-design model for a prefix of one
// market group. Group sizes and event counts are pinned so that every
// configuration is fully explorable (equivalence is only meaningful on
// complete searches — a truncated pair compares exploration prefixes,
// not state spaces) while still containing enough independent pending
// handlers for the reducer to engage.
func porGroupModel(t *testing.T, group, napps, maxEvents int) *model.Model {
	t.Helper()
	sources := corpus.Group(group)
	if napps > 0 && napps < len(sources) {
		sources = sources[:napps]
	}
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys := experiments.ExpertConfig(fmt.Sprintf("por-group-%d", group), sources, apps)
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: maxEvents, CheckConflicts: true, Invariants: invs,
		Design: model.Concurrent,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// porCorpusConfigs pins one fully-explorable concurrent workload per
// market group: (apps, events) chosen so the unreduced search completes
// quickly. Groups 2 and 4 contain timer/cascade-heavy apps whose full
// 25-app concurrent spaces explode (the Table 7b effect itself), so
// they run on prefixes.
var porCorpusConfigs = [6]struct{ napps, events int }{
	{12, 2}, // group 1
	{6, 2},  // group 2
	{0, 1},  // group 3 (whole group)
	{12, 2}, // group 4
	{12, 2}, // group 5
	{12, 2}, // group 6
}

// TestPORViolationEquivalenceCorpus: on every corpus group, POR
// preserves the distinct-violation set exactly — under DFS and
// work-stealing — and never explores more states than the full search.
func TestPORViolationEquivalenceCorpus(t *testing.T) {
	for g := 1; g <= 6; g++ {
		g := g
		t.Run(fmt.Sprintf("group%d", g), func(t *testing.T) {
			t.Parallel()
			cfg := porCorpusConfigs[g-1]
			m := porGroupModel(t, g, cfg.napps, cfg.events)
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
				o.POR = true
				res := checker.Run(m.System(), o)
				if res.Truncated {
					t.Fatalf("%v+POR: truncated", strat)
				}
				if res.StatesExplored > oracle.StatesExplored {
					t.Errorf("%v+POR explored %d states, more than the full search's %d",
						strat, res.StatesExplored, oracle.StatesExplored)
				}
				got := violationSet(res)
				if len(got) != len(want) {
					t.Errorf("%v+POR: %d distinct violations, oracle %d", strat, len(got), len(want))
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%v+POR: violation sets differ at %d:\npor:    %q\noracle: %q", strat, i, got[i], want[i])
						break
					}
				}
			}
		})
	}
}

// TestPORGroupSchedulerEquivalence: POR composes with both group
// scheduler modes — the full pipeline (dependency analysis, related-set
// decomposition, per-group verification) reports the identical deduped
// violation set with POR on, for every strategy, with GroupParallel off
// and on.
func TestPORGroupSchedulerEquivalence(t *testing.T) {
	// A 12-app prefix keeps the 5 full-pipeline runs (oracle + two
	// strategies × two scheduler modes) within CI budget while still
	// decomposing into several related sets.
	sources := corpus.Group(1)[:12]
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys := experiments.ExpertConfig("por-sched", sources, apps)

	base := iotsan.Options{MaxEvents: 2, Design: iotsan.Concurrent}
	oracle, err := iotsan.AnalyzeTranslated(sys, apps, base)
	if err != nil {
		t.Fatal(err)
	}
	want := reportViolationKeys(oracle)
	if len(want) == 0 {
		t.Fatal("oracle found no violations — the equivalence check is vacuous")
	}

	for _, strat := range []iotsan.Strategy{iotsan.StrategyDFS, iotsan.StrategySteal} {
		for _, groupParallel := range []bool{false, true} {
			name := fmt.Sprintf("strategy=%v group-parallel=%v", strat, groupParallel)
			o := base
			o.Strategy = strat
			o.Workers = 4
			o.GroupParallel = groupParallel
			o.POR = true
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
					t.Errorf("%s: violation sets differ at %d:\npor:    %q\noracle: %q", name, i, got[i], want[i])
					break
				}
			}
		}
	}
}

// TestPORReductionGate: the CI teeth behind the reduction claim — on a
// multi-event market-group workload POR must cut the explored state
// space by at least 20% (the measured reduction is ~55%; the slack
// absorbs corpus drift) while preserving the violation set, and the
// reduction statistics must account for the shrinkage.
func TestPORReductionGate(t *testing.T) {
	m := porGroupModel(t, 1, 12, 2)
	base := checker.Options{MaxDepth: 100}
	full := checker.Run(m.System(), base)
	if full.Truncated {
		t.Fatal("full run truncated")
	}
	por := base
	por.POR = true
	red := checker.Run(m.System(), por)
	if red.Truncated {
		t.Fatal("POR run truncated")
	}

	if got, want := violationSet(red), violationSet(full); !equalStringSlices(got, want) {
		t.Fatalf("POR changed the violation set:\npor:    %v\noracle: %v", got, want)
	}
	ratio := 1 - float64(red.StatesExplored)/float64(full.StatesExplored)
	t.Logf("states %d → %d (%.1f%% reduction, %d choice points, %d transitions pruned)",
		full.StatesExplored, red.StatesExplored, ratio*100,
		red.PORChoicePoints, red.PORPrunedTransitions)
	if ratio < 0.20 {
		t.Errorf("POR reduced explored states by %.1f%%, want >= 20%%", ratio*100)
	}
	if red.PORChoicePoints == 0 || red.PORPrunedTransitions == 0 {
		t.Errorf("reduction statistics empty: choices=%d pruned=%d", red.PORChoicePoints, red.PORPrunedTransitions)
	}
}

func equalStringSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
