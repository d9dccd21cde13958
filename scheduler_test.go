// Tests for the group scheduler: related-set verifications running
// concurrently under one shared worker budget must produce exactly the
// report a Workers: 1 run produces — same deduped violation set, same
// deterministic group order — and a global violation cap must cancel
// sibling searches instead of letting them run to completion.
package iotsan_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"iotsan"
	"iotsan/internal/ir"
)

// multiGroupSystem is a deployment that dependency analysis splits into
// several independent related sets: a whole market group under an
// expert configuration.
func multiGroupSystem(t *testing.T) (*iotsan.System, map[string]*ir.App) {
	t.Helper()
	sys, apps, err := corpusSystem(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys, apps
}

func reportViolationKeys(rep *iotsan.Report) []string {
	var keys []string
	for _, v := range rep.Violations {
		keys = append(keys, v.Property+"\x00"+v.Detail)
	}
	sort.Strings(keys)
	return keys
}

func groupOrder(rep *iotsan.Report) string {
	s := ""
	for _, g := range rep.Groups {
		s += fmt.Sprint(g.Apps) + ";"
	}
	return s
}

// schedulerWidths are the Workers values the scheduler tests run: the
// sequential order, the benchmark's two cores, and more tokens than
// cores.
var schedulerWidths = []int{1, 2, 4}

// TestAnalyzeGroupDeterminism: Analyze produces an identical deduped
// violation set, identical group ordering and identical per-group
// explored-state counts on both strategies for every Workers width.
func TestAnalyzeGroupDeterminism(t *testing.T) {
	sys, apps := multiGroupSystem(t)

	base, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{MaxEvents: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Groups) < 2 {
		t.Fatalf("workload decomposed into %d group(s); scheduler test needs several", len(base.Groups))
	}
	wantKeys := reportViolationKeys(base)
	wantOrder := groupOrder(base)
	if len(wantKeys) == 0 {
		t.Fatal("baseline found no violations — the determinism check is vacuous")
	}

	for _, strat := range []iotsan.Strategy{iotsan.StrategyDFS, iotsan.StrategySteal} {
		for _, workers := range schedulerWidths {
			name := fmt.Sprintf("strategy=%v workers=%d", strat, workers)
			rep, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{
				MaxEvents: 2,
				Strategy:  strat,
				Workers:   workers,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := groupOrder(rep); got != wantOrder {
				t.Errorf("%s: group order diverges:\ngot:  %s\nwant: %s", name, got, wantOrder)
			}
			if got := reportViolationKeys(rep); !slices.Equal(got, wantKeys) {
				t.Errorf("%s: violation sets differ:\ngot:  %q\nwant: %q", name, got, wantKeys)
			}
			if len(rep.Groups) != len(base.Groups) {
				t.Errorf("%s: %d groups, baseline %d", name, len(rep.Groups), len(base.Groups))
				continue
			}
			for i, g := range rep.Groups {
				if b := base.Groups[i]; g.Result.StatesExplored != b.Result.StatesExplored {
					t.Errorf("%s: group %d explored %d states, baseline %d",
						name, i, g.Result.StatesExplored, b.Result.StatesExplored)
				}
			}
		}
	}
}

// TestAnalyzeMaxViolationsCancelsSiblings: a global violation cap stops
// the analysis early — the report carries exactly the cap, and sibling
// group verifications are cancelled or skipped rather than run to
// completion.
func TestAnalyzeMaxViolationsCancelsSiblings(t *testing.T) {
	sys, apps := multiGroupSystem(t)

	full, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{MaxEvents: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Violations) < 2 {
		t.Fatalf("workload produced %d violations; cancellation test needs at least 2", len(full.Violations))
	}
	fullStates := 0
	for _, g := range full.Groups {
		fullStates += g.Result.StatesExplored
	}

	for _, workers := range schedulerWidths {
		rep, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{
			MaxEvents:     2,
			Strategy:      iotsan.StrategySteal,
			Workers:       workers,
			MaxViolations: 1,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rep.Violations) != 1 {
			t.Errorf("workers=%d: report carries %d violations, cap is 1", workers, len(rep.Violations))
		}
		if len(rep.Groups) != len(full.Groups) {
			t.Errorf("workers=%d: %d group entries, want one per related set (%d)",
				workers, len(rep.Groups), len(full.Groups))
		}
		states := 0
		for _, g := range rep.Groups {
			states += g.Result.StatesExplored
		}
		if states > fullStates {
			t.Errorf("workers=%d: capped run explored %d states, more than uncapped %d",
				workers, states, fullStates)
		}
		// The strict shrinkage assertion is deterministic only at
		// Workers: 1: each group is committed before the next starts, so
		// every group after the capping one is cancelled at its initial
		// state. With more workers, siblings that happened to finish
		// before the capping group committed were legitimately explored
		// in full, so cancellation is best-effort and asserting shrinkage
		// would be a timing flake.
		if workers == 1 && states >= fullStates {
			t.Errorf("workers=1: capped run explored %d states, uncapped %d — cancellation did not propagate",
				states, fullStates)
		}
	}
}

// TestStopCancelledGroupsReportTruncated: a group whose search was cut
// short by the global MaxViolations stop flag must never be reported as
// a complete (violation-free) verification — its GroupResult carries
// Truncated. At Workers: 1 the cap commits before the next group starts,
// so every group after the capping one starts with the stop flag
// already set and must report exactly one explored state (the initial
// state) and Truncated. At Workers: 2 a group after the capping one may
// have run before the cap was reached, so it is either Truncated or
// equal, in explored states and violations, to the uncapped run — a
// partial search is never reported as complete.
func TestStopCancelledGroupsReportTruncated(t *testing.T) {
	sys, apps := multiGroupSystem(t)

	full, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{MaxEvents: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Find the group whose committed violations reach the cap of 1: the
	// first group contributing any reportable violation.
	capIdx := -1
	for i, g := range full.Groups {
		for _, f := range g.Result.Violations {
			if f.Property != "handler-exec-error" {
				capIdx = i
				break
			}
		}
		if capIdx >= 0 {
			break
		}
	}
	if capIdx < 0 || capIdx == len(full.Groups)-1 {
		t.Fatalf("capping group %d leaves no cancelled siblings to assert on", capIdx)
	}

	for _, strat := range []iotsan.Strategy{iotsan.StrategyDFS, iotsan.StrategySteal} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("strategy=%v workers=%d", strat, workers)
			rep, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{
				MaxEvents:     2,
				Strategy:      strat,
				Workers:       workers,
				MaxViolations: 1,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(rep.Groups) != len(full.Groups) {
				t.Fatalf("%s: %d group entries, want %d", name, len(rep.Groups), len(full.Groups))
			}
			for i := capIdx + 1; i < len(rep.Groups); i++ {
				g, f := rep.Groups[i], full.Groups[i]
				if workers == 1 {
					if !g.Result.Truncated {
						t.Errorf("%s: cancelled group %d (%v) reported as complete (Truncated=false, %d states)",
							name, i, g.Apps, g.Result.StatesExplored)
					}
					if g.Result.StatesExplored != 1 {
						t.Errorf("%s: cancelled group %d explored %d states, want 1 (initial only)",
							name, i, g.Result.StatesExplored)
					}
					continue
				}
				if g.Result.Truncated {
					continue
				}
				if g.Result.StatesExplored != f.Result.StatesExplored ||
					!slices.Equal(violationSet(g.Result), violationSet(f.Result)) {
					t.Errorf("%s: group %d (%v) reported as complete with %d states and %d violations, uncapped run %d and %d",
						name, i, g.Apps, g.Result.StatesExplored, len(g.Result.Violations),
						f.Result.StatesExplored, len(f.Result.Violations))
				}
			}
		}
	}
}

// reducedSchedulerEquivalence: a reduction composes with the group
// scheduler — the full pipeline (dependency analysis, related-set
// decomposition, per-group verification) on a 12-app prefix of a market
// group reports the unreduced deduped violation set, on both strategies,
// with related sets verified one after another and concurrently.
func reducedSchedulerEquivalence(t *testing.T, reduce func(*iotsan.Options)) {
	sys, apps, err := corpusSystem(1, 12)
	if err != nil {
		t.Fatal(err)
	}
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
			o := base
			o.Strategy, o.Workers = strat, workers
			reduce(&o)
			rep, err := iotsan.AnalyzeTranslated(sys, apps, o)
			if err != nil {
				t.Fatalf("strategy=%v workers=%d: %v", strat, workers, err)
			}
			if got := reportViolationKeys(rep); !slices.Equal(got, want) {
				t.Errorf("strategy=%v workers=%d: violation sets differ:\ngot:    %q\noracle: %q", strat, workers, got, want)
			}
		}
	}
}

func TestPORGroupSchedulerEquivalence(t *testing.T) {
	reducedSchedulerEquivalence(t, func(o *iotsan.Options) { o.POR = true })
}

func TestSymmetryGroupSchedulerEquivalence(t *testing.T) {
	reducedSchedulerEquivalence(t, func(o *iotsan.Options) { o.Symmetry = true })
}
