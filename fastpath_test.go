package iotsan_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/experiments"
)

// table8Key names one Table 8 search among the root tests' memos.
type table8Key string

// table8Result analyzes the Table 8 system at 5 events, as the
// benchmark's table8 workloads do, and returns its one related set's
// search result. The search runs once per process per name (memo):
// tests that ask under one name must pass the same opts, and share it.
func table8Result(t *testing.T, name string, opts iotsan.Options) *checker.Result {
	t.Helper()
	res, err := memo(table8Key(name), func() (*checker.Result, error) {
		sys, apps, err := experiments.Table8System()
		if err != nil {
			return nil, err
		}
		opts.MaxEvents, opts.NoDepGraph = 5, true
		rep, err := iotsan.AnalyzeTranslated(sys, apps, opts)
		if err != nil {
			return nil, err
		}
		if len(rep.Groups) != 1 {
			return nil, fmt.Errorf("%d related sets, want 1", len(rep.Groups))
		}
		return rep.Groups[0].Result, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTable8TrailGolden pins the DFS's Table 8 search at 5 events byte
// for byte: every counter, then each violation's depth and trail in
// found order. The matrix compares DFS cells only with each other, so a
// trail fault shared by every cell passes it; this golden does not.
//
// testdata/table8_dfs.golden was written once from dfsOutcome at the
// commit before trail steps were built lazily (a step appended only for
// a new frame, a violation's trail only after reserve accepts it). A
// mismatch means the search or its trails changed; a change that moves
// them on purpose regenerates the file and lists each moved line, old →
// new, with its cause, in CHANGES.md.
func TestTable8TrailGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("a 141k-state search")
	}
	t.Parallel()
	got := dfsOutcome(table8Result(t, "dfs", iotsan.Options{}))
	want, err := os.ReadFile(filepath.Join("testdata", "table8_dfs.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if d := outcomeDiff(got, string(want)); d != "" {
		t.Fatalf("the Table 8 search differs from its golden run: %s", d)
	}
}

// TestReserveCallsTable8 gates the violation fast path: the Table 8
// search at 5 events raises its 13 distinct violations 236,906 times,
// and a worker asks the engine's lock-guarded violation set only about
// a violation it has not seen answered. Both strategies must stay under
// 1,000 questions; without the per-worker cache every raise is one.
func TestReserveCallsTable8(t *testing.T) {
	if testing.Short() {
		t.Skip("two 141k-state searches")
	}
	t.Parallel()
	for _, c := range []struct {
		name string
		opts iotsan.Options
	}{
		{"dfs", iotsan.Options{}},
		{"steal-2", iotsan.Options{Strategy: iotsan.StrategySteal, Workers: 2}},
	} {
		res := table8Result(t, c.name, c.opts)
		if n, v := res.ReserveCalls(), len(res.Violations); n >= 1000 || v != 13 {
			t.Errorf("%s: %d reserve calls for %d violations, want under 1,000 for 13", c.name, n, v)
		} else {
			t.Logf("%s: %d reserve calls for %d violations", c.name, n, v)
		}
	}
}
