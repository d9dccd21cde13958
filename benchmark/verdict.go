package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"

	"iotsan"
	"iotsan/internal/checker"
)

// A verdict is what one Analyze call decided about one system: the
// related sets it verified, how much of each it explored, and the
// distinct violations. Two runs of a correct engine agree on all of it.
type verdict struct {
	Sets       []setVerdict `json:"sets"`
	Violations []violation  `json:"violations"`
}

type setVerdict struct {
	Apps     []string `json:"apps"`
	Explored int      `json:"explored"`
	Stored   int      `json:"stored"`
}

type violation struct {
	Property string `json:"property"`
	Detail   string `json:"detail"`
}

// newVerdict reduces per-set results and the deduplicated violation
// list (in any order) to their comparable form.
func newVerdict(groups []iotsan.GroupResult, found []checker.Found) (verdict, error) {
	v := verdict{Violations: []violation{}}
	for _, g := range groups {
		if g.Result.Truncated {
			return v, fmt.Errorf("related set %v was truncated: the workload must be fully explored", g.Apps)
		}
		v.Sets = append(v.Sets, setVerdict{Apps: g.Apps,
			Explored: g.Result.StatesExplored, Stored: g.Result.StatesStored})
	}
	for _, f := range found {
		v.Violations = append(v.Violations, violation{f.Property, f.Detail})
	}
	sort.Slice(v.Violations, func(i, j int) bool {
		a, b := v.Violations[i], v.Violations[j]
		if a.Property != b.Property {
			return a.Property < b.Property
		}
		return a.Detail < b.Detail
	})
	return v, nil
}

// sameVerdicts compares one pass (one verdict per system) with another.
func sameVerdicts(a, b []verdict) bool { return reflect.DeepEqual(a, b) }

//go:embed expected.json
var expectedJSON []byte

// expectedFile is workload → split → one verdict per system, in the
// order workload.systems returns them. Workloads with a single input
// keep their one entry under fixedInput.
type expectedFile map[string]map[string][]verdict

const fixedInput = "fixed"

func splitKey(w workload, split int64) string {
	if !w.split {
		return fixedInput
	}
	return strconv.FormatInt(split, 10)
}

// committedVerdicts returns the expected pass for the workload and
// split, or nil when expected.json has no entry for it.
func committedVerdicts(w workload, split int64) ([]verdict, error) {
	var file expectedFile
	if err := json.Unmarshal(expectedJSON, &file); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return file[w.name][splitKey(w, split)], nil
}

// committedSplits are the splits expected.json carries for the market
// workloads.
var committedSplits = []int64{1, 2}

// writeExpectedFile regenerates expected.json from the engine at hand.
// It refuses unless the verdicts survive two independent cross-checks:
// the three table8 workloads (same state graph through three
// strategy/store pairs) agree with one another, and the tree-walking
// interpreter reproduces the workloads marked interpreterOracle.
func writeExpectedFile(path, results string) error {
	pinProcs()
	if err := os.MkdirAll(results, 0o755); err != nil {
		return err
	}
	onePass := func(w workload, split int64) ([]verdict, error) {
		c := &child{w: w, dir: results, res: &childResult{}}
		var err error
		if c.systems, err = w.systems(split); err != nil {
			return nil, err
		}
		got, _, err := c.pass()
		return got, err
	}
	file := expectedFile{}
	for _, w := range workloads {
		splits := committedSplits
		if !w.split {
			splits = committedSplits[:1]
		}
		file[w.name] = map[string][]verdict{}
		for _, split := range splits {
			got, err := onePass(w, split)
			if err != nil {
				return err
			}
			if w.interpreterOracle {
				oracle := w
				oracle.opts.Interpreter = true
				want, err := onePass(oracle, split)
				if err != nil {
					return err
				}
				if !sameVerdicts(got, want) {
					return fmt.Errorf("%s split %d: compiled handlers and the interpreter oracle disagree; not writing %s", w.name, split, path)
				}
			}
			file[w.name][splitKey(w, split)] = got
			fmt.Printf("%s split %s: %d systems\n", w.name, splitKey(w, split), len(got))
		}
	}
	dfs := file["table8_dfs"][fixedInput]
	for _, other := range []string{"table8_steal2", "table8_tiered_wal"} {
		if !sameVerdicts(dfs, file[other][fixedInput]) {
			return fmt.Errorf("table8_dfs and %s disagree; not writing %s", other, path)
		}
	}
	return writeJSON(path, file)
}
