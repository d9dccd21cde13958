// Equivalence testing of the work-stealing frontier strategy: every
// corpus SmartApp group is verified under sequential DFS (the oracle)
// and under StrategySteal, and the explored state spaces and
// distinct-violation sets must be identical. Trails are not compared
// textually — a steal-order search may witness a violation through a
// different path — but every reported trail must replay to its
// violation through genuine transitions of the model.
package iotsan_test

import (
	"fmt"
	"sort"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
	"iotsan/internal/model"
	"iotsan/internal/props"
)

// stealGroupModel builds the model for one market-app corpus group
// under an expert configuration with the full invariant catalog.
func stealGroupModel(t *testing.T, group int) *model.Model {
	t.Helper()
	sources := corpus.Group(group)
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys := experiments.ExpertConfig(fmt.Sprintf("steal-group-%d", group), sources, apps)
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: 2, CheckConflicts: true, Invariants: invs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func violationSet(res *checker.Result) []string {
	var keys []string
	for _, f := range res.Violations {
		keys = append(keys, f.Property+"\x00"+f.Detail)
	}
	sort.Strings(keys)
	return keys
}

// TestStealEquivalenceCorpus: on every market-app corpus group the
// work-stealing strategy explores exactly the reachable state space of
// sequential DFS — same explored/matched/stored counts — and reports
// the identical distinct-violation set, at several worker counts.
func TestStealEquivalenceCorpus(t *testing.T) {
	for g := 1; g <= 6; g++ {
		g := g
		t.Run(fmt.Sprintf("group%d", g), func(t *testing.T) {
			t.Parallel()
			m := stealGroupModel(t, g)
			opts := checker.Options{MaxDepth: 66}
			dfs := checker.Run(m.System(), opts)
			if dfs.Truncated {
				t.Fatal("DFS run truncated; equivalence requires full exploration")
			}
			for _, workers := range []int{1, 4} {
				o := opts
				o.Strategy = checker.StrategySteal
				o.Workers = workers
				st := checker.Run(m.System(), o)
				if st.Truncated {
					t.Fatalf("workers=%d: steal run truncated", workers)
				}
				if st.StatesExplored != dfs.StatesExplored || st.StatesMatched != dfs.StatesMatched ||
					st.StatesStored != dfs.StatesStored {
					t.Errorf("workers=%d: state space diverges: steal explored=%d matched=%d stored=%d / dfs explored=%d matched=%d stored=%d",
						workers, st.StatesExplored, st.StatesMatched, st.StatesStored,
						dfs.StatesExplored, dfs.StatesMatched, dfs.StatesStored)
				}
				got, want := violationSet(st), violationSet(dfs)
				if len(got) != len(want) {
					t.Errorf("workers=%d: steal found %d distinct violations, dfs %d", workers, len(got), len(want))
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("workers=%d: violation sets differ at %d:\nsteal: %q\ndfs:   %q", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// recycleGroupModel builds a corpus-group model shaped like the POR
// equivalence configs, with symmetry tables and the incremental cache
// on so the reduction matrix below can toggle POR/symmetry per run.
func recycleGroupModel(t *testing.T, group, napps, maxEvents int) *model.Model {
	t.Helper()
	sources := corpus.Group(group)
	if napps > 0 && napps < len(sources) {
		sources = sources[:napps]
	}
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys := experiments.ExpertConfig(fmt.Sprintf("recycle-group-%d", group), sources, apps)
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: maxEvents, CheckConflicts: true, Invariants: invs,
		Design: model.Concurrent, Symmetry: true, Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStealRecycleEquivalenceCorpus: frontier recycling (epoch-based
// reclamation) is invisible to the search. On every corpus group, the
// steal strategy with recycling on and off explores exactly the
// DFS state space — identical explored/matched/stored counts — and
// reports the identical distinct-violation set, across the full
// reduction matrix {plain, POR, symmetry, POR+symmetry}. A divergence
// between the on/off pairs would mean a state was reused while the
// search still depended on it.
func TestStealRecycleEquivalenceCorpus(t *testing.T) {
	groups := []int{1, 2, 3, 4, 5, 6}
	if raceEnabled {
		// ~10× slower per run under the race detector — the full corpus
		// would blow the package test timeout on small runners. Keep the
		// cheapest group's complete matrix so reclamation still runs
		// race-instrumented through every reduction mode; the racy
		// interleavings themselves are hammered by the poisoned-recycler
		// churn tests in internal/checker's -race CI step, and the full
		// corpus matrix runs in its own non-race CI step.
		groups = []int{3}
	}
	for _, g := range groups {
		g := g
		t.Run(fmt.Sprintf("group%d", g), func(t *testing.T) {
			t.Parallel()
			cfg := porCorpusConfigs[g-1]
			m := recycleGroupModel(t, g, cfg.napps, cfg.events)
			for _, mode := range []struct {
				por, sym bool
			}{{false, false}, {true, false}, {false, true}, {true, true}} {
				base := checker.Options{MaxDepth: 100, POR: mode.por, Symmetry: mode.sym}
				dfs := checker.Run(m.System(), base)
				if dfs.Truncated {
					t.Fatalf("por=%v sym=%v: DFS run truncated; equivalence requires full exploration",
						mode.por, mode.sym)
				}
				for _, noReclaim := range []bool{false, true} {
					o := base
					o.Strategy = checker.StrategySteal
					o.Workers = 4
					o.NoEpochReclaim = noReclaim
					res := checker.Run(m.System(), o)
					name := fmt.Sprintf("por=%v sym=%v reclaim=%v", mode.por, mode.sym, !noReclaim)
					if res.Truncated {
						t.Fatalf("%s: truncated", name)
					}
					if res.StatesExplored != dfs.StatesExplored || res.StatesMatched != dfs.StatesMatched ||
						res.StatesStored != dfs.StatesStored {
						t.Errorf("%s: state space diverges: explored=%d matched=%d stored=%d / dfs %d/%d/%d",
							name, res.StatesExplored, res.StatesMatched, res.StatesStored,
							dfs.StatesExplored, dfs.StatesMatched, dfs.StatesStored)
					}
					if !equalStringSlices(violationSet(res), violationSet(dfs)) {
						t.Errorf("%s: violation sets differ:\nsteal: %v\ndfs: %v",
							name, violationSet(res), violationSet(dfs))
					}
				}
			}
		})
	}
}

// TestStealRecycleFaultEquivalence extends the recycling gate to the
// fault-injection layer on the shared FaultWorkload (live MaxFaults=2
// budget): outage/drop transitions retire states through the same
// limbo lists, and the fault-transition tally must survive recycling.
func TestStealRecycleFaultEquivalence(t *testing.T) {
	m, copts, _, err := experiments.FaultWorkload(true, 2)
	if err != nil {
		t.Fatal(err)
	}
	dfs := checker.Run(m.System(), copts)
	if dfs.Truncated {
		t.Fatal("DFS run truncated; equivalence requires full exploration")
	}
	for _, noReclaim := range []bool{false, true} {
		o := copts
		o.Strategy = checker.StrategySteal
		o.Workers = 4
		o.NoEpochReclaim = noReclaim
		res := checker.Run(m.System(), o)
		name := fmt.Sprintf("reclaim=%v", !noReclaim)
		if res.Truncated {
			t.Fatalf("%s: truncated", name)
		}
		if res.StatesExplored != dfs.StatesExplored || res.StatesMatched != dfs.StatesMatched ||
			res.StatesStored != dfs.StatesStored {
			t.Errorf("%s: state space diverges: explored=%d matched=%d stored=%d / dfs %d/%d/%d",
				name, res.StatesExplored, res.StatesMatched, res.StatesStored,
				dfs.StatesExplored, dfs.StatesMatched, dfs.StatesStored)
		}
		if res.FaultTransitionsExplored != dfs.FaultTransitionsExplored {
			t.Errorf("%s: fault transitions %d, dfs %d",
				name, res.FaultTransitionsExplored, dfs.FaultTransitionsExplored)
		}
		if !equalStringSlices(violationSet(res), violationSet(dfs)) {
			t.Errorf("%s: violation sets differ:\n%v\ndfs: %v", name, violationSet(res), violationSet(dfs))
		}
	}
}

// TestStealTrailReplaysOnModel: every trail the steal strategy reports
// on a real model replays from the initial state through genuine
// transitions (matched by label) to a state or transition exhibiting
// the violation's property — on the link table as the visited store
// and, behind a tiered store that spills or a bitstate store sized to
// be exact, as the table written after the store's seen. A lazy edge
// keeps no text, so a label is there only if the chain replayed from
// the root: none may be blank.
func TestStealTrailReplaysOnModel(t *testing.T) {
	m := stealGroupModel(t, 1)
	sys := m.System()
	for _, store := range []checker.StoreKind{checker.Exhaustive, checker.Tiered, checker.Bitstate} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%v/workers=%d", store, workers)
			o := checker.Options{MaxDepth: 66, Strategy: checker.StrategySteal, Workers: workers,
				Store: store, BitstateBits: 26}
			if store == checker.Tiered {
				o.StoreDir, o.MemBudget = t.TempDir(), 1 // the hot-tier floor
			}
			res := checker.Run(sys, o)
			if len(res.Violations) == 0 {
				t.Fatalf("%s: no violations reported — the replay check is vacuous", name)
			}
			if store == checker.Tiered && res.Store.Spilled == 0 {
				t.Errorf("%s: nothing spilled out of %d stored states", name, res.StatesStored)
			}
			for _, f := range res.Violations {
				if f.Depth != len(f.Trail) {
					t.Errorf("%s: %s: depth=%d but trail has %d steps", name, f.Violation, f.Depth, len(f.Trail))
				}
				cur := sys.Initial()
				violated := false
			steps:
				for i, step := range f.Trail {
					if step.Label == "" {
						t.Fatalf("%s: %s: trail step %d has no label", name, f.Violation, i)
					}
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
					t.Fatalf("%s: %s: trail step %d (%q) is not a transition of the replayed state", name, f.Violation, i, step.Label)
				}
				for _, v := range sys.Inspect(cur) {
					if v.Property == f.Property && v.Detail == f.Detail {
						violated = true
					}
				}
				if !violated {
					t.Errorf("%s: %s: replayed trail does not exhibit the violation", name, f.Violation)
				}
			}
		}
	}
}
