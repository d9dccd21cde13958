// Command iotsan-bench regenerates the paper's evaluation tables
// (§10-§11) and prints them side by side with the published numbers.
//
// Usage:
//
//	iotsan-bench -table 5      # Table 5: market apps, expert configs
//	iotsan-bench -table 6      # Table 6: volunteer configs
//	iotsan-bench -table 7a     # Table 7a: dependency-graph scalability
//	iotsan-bench -table 7b     # Table 7b: concurrent vs sequential
//	iotsan-bench -table 8      # Table 8: verification time vs events
//	iotsan-bench -table 9      # Table 9: IFTTT rules
//	iotsan-bench -table attribution  # §10.3: attributing violations to apps
//	iotsan-bench -table all
//
// TestPaperTablesGolden pins every line Tables 5, 6, 7a and attribution
// print (testdata/tables.golden); a change that moves a count
// regenerates that file.
//
// The engine flags (-strategy, -store, -por, …) are the ones cmd/iotsan
// takes. Profiling: -cpuprofile cpu.out -memprofile mem.out. Performance
// is measured by the repo benchmark (bash benchmark/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"iotsan"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
	"iotsan/internal/ifttt"
)

// main defers to realMain so the pprof writers (deferred there) always
// flush — os.Exit would skip them and truncate the profiles.
func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain parses args on a fresh flag set and prints the tables to
// stdout, errors to stderr; it returns the exit status.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iotsan-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "table to regenerate (5, 6, 7a, 7b, 8, 9, attribution, all)")
	events := fs.Int("events", 2, "external events for Tables 5/6")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	var opts iotsan.Options
	opts.RegisterFlags(fs)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	code, known := 0, *table == "all"
	run := func(name string, fn func() error) {
		known = known || *table == name
		if code != 0 || (*table != "all" && *table != name) {
			return
		}
		fmt.Fprintf(stdout, "==== Table %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(stderr, "table %s: %v\n", name, err)
			code = 1
			return
		}
		fmt.Fprintln(stdout)
	}

	run("5", func() error {
		res, err := experiments.RunTable5(opts, *events, []int{1, 2, 3, 4, 5, 6})
		if err != nil {
			return err
		}
		names := []string{"Conflicting commands", "Repeated commands", "Unsafe physical states"}
		paper := []string{"8", "10", "20"}
		for i, row := range res.Rows {
			fmt.Fprintf(stdout, "%-24s violations=%-4d properties=%-3d (paper: %s)\n",
				names[i], row.Violations, row.Properties, paper[i])
		}
		fmt.Fprintf(stdout, "total: %d violations of %d properties (paper: 38 of 11)\n",
			res.TotalViolations, res.Properties)
		fmt.Fprintf(stdout, "device/communication failures add %d properties (paper: 9)\n",
			res.FailureExtraProperties)
		return nil
	})

	run("6", func() error {
		res, err := experiments.RunTable6(opts, *events, 7, 0)
		if err != nil {
			return err
		}
		names := []string{"Conflicting commands", "Repeated commands", "Unsafe physical states"}
		paper := []string{"19", "12", "66"}
		for i, row := range res.Rows {
			fmt.Fprintf(stdout, "%-24s violations=%-4d properties=%-3d (paper: %s)\n",
				names[i], row.Violations, row.Properties, paper[i])
		}
		fmt.Fprintf(stdout, "total: %d violations across %d configurations (paper: 97 in 70)\n",
			res.TotalViolations, res.Configurations)
		return nil
	})

	run("7a", func() error {
		rows, mean, err := experiments.RunTable7a()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-6s %-14s %-10s %s\n", "Group", "Original Size", "New Size", "Scale Ratio")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-6d %-14d %-10d %.1f\n", r.Group, r.OriginalSize, r.NewSize, r.Ratio)
		}
		fmt.Fprintf(stdout, "mean scale ratio: %.1f (paper: 3.4)\n", mean)
		return nil
	})

	run("7b", func() error {
		rows, err := experiments.RunTable7b(opts, []int{1, 2, 3, 4}, 120000)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-7s %-30s %s\n", "Events", "Concurrent", "Sequential")
		for _, r := range rows {
			conc := fmt.Sprintf("%v (%d states)", r.ConcurrentTime.Round(time.Millisecond), r.ConcurrentStates)
			if r.ConcurrentCap {
				conc += " CAP"
			}
			fmt.Fprintf(stdout, "%-7d %-30s %v (%d states)\n", r.Events, conc,
				r.SequentialTime.Round(time.Millisecond), r.SequentialStates)
		}
		fmt.Fprintln(stdout, `(paper: concurrent 1s / 56.5s / 139m / "forever"; sequential <= 16.3s at 7)`)
		return nil
	})

	run("8", func() error {
		rows, err := experiments.RunTable8(opts, []int{3, 4, 5, 6, 7}, 400_000)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-7s %-10s %s\n", "Events", "States", "Time")
		for _, r := range rows {
			note := ""
			if r.Truncated {
				note = " (capped)"
			}
			fmt.Fprintf(stdout, "%-7d %-10d %v%s\n", r.Events, r.States, r.Elapsed.Round(time.Millisecond), note)
		}
		fmt.Fprintln(stdout, "(paper: 6.61s at 6 events growing to 23.39h at 11 — exponential)")
		return nil
	})

	run("9", func() error {
		res, err := ifttt.RunTable9(3)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "violated properties (%d of 4 in the paper):\n", len(res.ViolatedProperties))
		for _, p := range res.ViolatedProperties {
			fmt.Fprintf(stdout, "  %s\n", p)
		}
		return nil
	})

	run("attribution", func() error {
		rows, err := experiments.RunAttribution(opts, 2)
		if err != nil {
			return err
		}
		caught, total := 0, 0
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-28s %-10s %-22s phase1=%3.0f%% phase2=%3.0f%%\n",
				r.App, r.Tag, r.Verdict, r.Ratio1*100, r.Ratio2*100)
			if r.Tag == corpus.TagMalicious {
				total++
				if r.Verdict.String() == "potentially malicious" {
					caught++
				}
			}
		}
		fmt.Fprintf(stdout, "malicious attribution: %d/%d (paper: 9/9 at 100%% ratio)\n", caught, total)
		return nil
	})
	if !known {
		fmt.Fprintf(stderr, "unknown table %q\n", *table)
		return 2
	}
	return code
}
