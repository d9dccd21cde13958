// Command iotsan verifies a configured IoT system: it loads a system
// configuration (JSON) and the Groovy sources of its apps, runs the full
// IotSan pipeline, and prints discovered violations with their
// counter-example trails.
//
// Usage:
//
//	iotsan -config system.json -apps ./apps [-events 3] [-failures] [-faults -max-faults 2] [-design concurrent]
//
// Apps are looked up as <apps-dir>/<app name>.groovy; app names from the
// built-in corpus resolve automatically when no directory is given.
//
// Exit status: 0 no violation and every related set searched to the
// end; 1 violations found; 2 usage, configuration or source error;
// 3 inconclusive — no violation found, but a state cap or deadline
// stopped at least one related set early.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/corpus"
)

func main() {
	var (
		configPath = flag.String("config", "", "system configuration JSON (required)")
		appsDir    = flag.String("apps", "", "directory of <name>.groovy sources (default: built-in corpus)")
		concurrent = flag.Bool("concurrent", false, "use the concurrent design instead of sequential")
		trails     = flag.Bool("trails", true, "print counter-example trails")
		opts       iotsan.Options
	)
	flag.IntVar(&opts.MaxEvents, "events", 3, "external events to inject")
	flag.IntVar(&opts.MaxViolations, "max-violations", 0, "stop after this many distinct violations, cancelling sibling group searches (0 = collect all)")
	flag.BoolVar(&opts.Interpreter, "interp", false, "run handlers under the tree-walking interpreter instead of compiled programs (oracle mode)")
	opts.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	sys, err := config.Load(*configPath)
	if err != nil {
		fatal(err)
	}
	sources := map[string]string{}
	for _, inst := range sys.Apps {
		if src, ok := loadSource(*appsDir, inst.App); ok {
			sources[inst.App] = src
		} else {
			fatal(fmt.Errorf("no source for app %q", inst.App))
		}
	}

	if *concurrent {
		opts.Design = iotsan.Concurrent
	}
	rep, err := iotsan.Analyze(sys, sources, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("system %q: %d app(s), %d device(s)\n", sys.Name, len(sys.Apps), len(sys.Devices))
	os.Exit(report(rep, *trails, os.Stdout))
}

// report prints the outcome of an analysis to w and returns the exit
// status: 1 when violations were found; otherwise 3, not 0, when any
// related set was stopped before its state space was exhausted — "no
// violations" is a verdict only about the part that was explored.
func report(rep *iotsan.Report, trails bool, w io.Writer) int {
	fmt.Fprintf(w, "dependency analysis: %d handlers, largest related set %d (%.1fx reduction)\n",
		rep.Scale.OriginalSize, rep.Scale.NewSize, rep.Scale.Ratio())
	fmt.Fprintf(w, "verified %d related group(s) in %v\n\n", len(rep.Groups), rep.Elapsed)

	if len(rep.Violations) == 0 {
		stopped := 0
		for _, g := range rep.Groups {
			if g.Result.Truncated {
				stopped++
			}
		}
		if stopped > 0 {
			fmt.Fprintf(w, "inconclusive: %d of %d related set(s) stopped early (state cap or deadline) — no violation found within the explored part\n",
				stopped, len(rep.Groups))
			return 3
		}
		fmt.Fprintln(w, "no violations detected")
		return 0
	}
	fmt.Fprintf(w, "%d violation(s) of %d propert(ies):\n\n", len(rep.Violations), len(rep.ViolatedProperties()))
	for _, v := range rep.Violations {
		if trails {
			fmt.Fprintln(w, checker.FormatTrail(v))
		} else {
			fmt.Fprintf(w, "  %s: %s\n", v.Property, v.Detail)
		}
	}
	return 1
}

func loadSource(dir, name string) (string, bool) {
	if dir != "" {
		data, err := os.ReadFile(filepath.Join(dir, name+".groovy"))
		if err == nil {
			return string(data), true
		}
	}
	if s, ok := corpus.ByName(name); ok {
		return s.Groovy, true
	}
	return "", false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iotsan:", err)
	os.Exit(2)
}
