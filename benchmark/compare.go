package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareFiles(out io.Writer, oldPath, newPath string) (regressed bool, err error) {
	older, err := readResultFile(oldPath)
	if err != nil {
		return false, err
	}
	newer, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	return compareResults(out, older, newer, endToEnd), nil
}

// compareResults prints one row per (end-to-end metric, workload) and
// the exact layer counts that changed. It reports true when any row
// regressed or wrong verdicts rose; bounded is the end-to-end metric
// table whose bounds apply. A row is "unresolved" when either
// side's own inter-quartile spread exceeds the metric's bound: then the
// two medians cannot be told apart at that bound.
func compareResults(out io.Writer, older, newer *resultFile, bounded []metric) (regressed bool) {
	fmt.Fprintf(out, "old: commit %s split %d   new: commit %s split %d\n",
		older.Env.Commit, older.Split, newer.Env.Commit, newer.Split)
	fmt.Fprintf(out, "%-18s %-12s %30s %30s %17s %6s  %s\n", "workload", "metric",
		"old median [q1, q3]", "new median [q1, q3]", "new/old", "bound", "verdict")
	for _, w := range workloads {
		o, n := older.Workloads[w.name], newer.Workloads[w.name]
		if o == nil || n == nil {
			fmt.Fprintf(out, "%-18s missing from one file\n", w.name)
			regressed = true
			continue
		}
		for _, m := range bounded {
			oldS, newS := o.EndToEnd[m.name], n.EndToEnd[m.name]
			ratio := newS.Median / oldS.Median
			verdict := "unchanged"
			switch {
			case oldS.spread() > m.bound || newS.spread() > m.bound:
				verdict = "unresolved"
			case ratio > 1+m.bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(out, "%-18s %-12s %30s %30s %6.3f of %-7.4g %5.0f%%  %s\n", w.name, m.name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", oldS.Median, oldS.Q1, oldS.Q3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", newS.Median, newS.Q1, newS.Q3),
				ratio, oldS.Median, 100*m.bound, verdict)
		}
		if n.Wrong > o.Wrong {
			fmt.Fprintf(out, "%-18s wrong_verdicts rose from %d of %d to %d of %d\n",
				w.name, o.Wrong, o.Passes, n.Wrong, n.Passes)
			regressed = true
		}
		differing := 0
		for _, m := range perLayer {
			if m.exact && o.PerLayer[m.name] != n.PerLayer[m.name] {
				differing++
				fmt.Fprintf(out, "%-18s %-28s %v -> %v (%+v)\n", w.name, m.name,
					o.PerLayer[m.name], n.PerLayer[m.name], n.PerLayer[m.name]-o.PerLayer[m.name])
			}
		}
		if differing == 0 {
			fmt.Fprintf(out, "%-18s layer counts identical\n", w.name)
		}
	}
	return regressed
}
