// Command iotsan verifies a configured IoT system: it loads a system
// configuration (JSON) and the Groovy sources of its apps, runs the full
// IotSan pipeline, and prints discovered violations with their
// counter-example trails.
//
// Usage:
//
//	iotsan -config system.json -apps ./apps [-events 3] [-failures] [-faults -max-faults 2] [-concurrent]
//
// With -apps, every app is read from <apps-dir>/<app name>.groovy or,
// when that file does not exist, from the file the built-in corpus
// names it (the app name without its apostrophe, as in
// internal/corpus/apps/Its Too Cold.groovy), so -apps can point at the
// corpus directory. A missing or unreadable file, or an app name that
// is empty or would leave the directory, is an error; without -apps,
// app names resolve from the built-in corpus.
//
// Exit status: 0 no violation and every related set searched to the
// end; 1 violations found; 2 usage, configuration or source error;
// 3 inconclusive — no violation found, but a state cap or deadline
// stopped at least one related set early, or the search ran on the
// bitstate store, which can skip states.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

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
	sources, err := loadSources(*appsDir, sys)
	if err != nil {
		fatal(err)
	}

	if *concurrent {
		opts.Design = iotsan.Concurrent
	}
	rep, err := iotsan.Analyze(sys, sources, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("system %q: %d app(s), %d device(s)\n", sys.Name, len(sys.Apps), len(sys.Devices))
	os.Exit(report(rep, opts, *trails, os.Stdout))
}

// report prints the outcome of an analysis run under opts to w and
// returns the exit status: 1 when violations were found; otherwise 3,
// not 0, when any related set was stopped before its state space was
// exhausted or the store was the bitstate one, whose false "seen"
// answers skip states — "no violations" is a verdict only about the
// part that was explored. A related set that -resume could not resume
// is named in a warning; it does not change the status.
func report(rep *iotsan.Report, opts iotsan.Options, trails bool, w io.Writer) int {
	fmt.Fprintf(w, "dependency analysis: %d handlers, largest related set %d (%.1fx reduction)\n",
		rep.Scale.OriginalSize, rep.Scale.NewSize, rep.Scale.Ratio())
	fmt.Fprintf(w, "verified %d related group(s) in %v\n\n", len(rep.Groups), rep.Elapsed)
	for i, g := range rep.Groups {
		if ss := g.Result.Store; ss.CheckpointErr != nil {
			fmt.Fprintf(w, "warning: related group %d (%s): checkpointing stopped after %d checkpoint(s) and the search went on without it: %v\n\n",
				i, strings.Join(g.Apps, ", "), ss.Checkpoints, ss.CheckpointErr)
		}
		if opts.Resume && !g.Result.Store.Resumed {
			fmt.Fprintf(w, "warning: related group %d (%s): -resume found no intact checkpoint; searched from the initial state\n\n",
				i, strings.Join(g.Apps, ", "))
		}
	}

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
		}
		supertrace := opts.Store == iotsan.StoreBitstate
		if supertrace {
			fmt.Fprintln(w, "inconclusive: the bitstate store may have skipped states (supertrace) — no violation found within the explored part")
		}
		if stopped > 0 || supertrace {
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

// loadSources reads the source of every app the system installs: from
// dir when it is set, from the built-in corpus otherwise. An app whose
// file would lie outside dir (a name such as "../x" or "/x") or whose
// name is empty is an error naming the app.
func loadSources(dir string, sys *config.System) (map[string]string, error) {
	sources := map[string]string{}
	for _, inst := range sys.Apps {
		if dir != "" {
			data, err := readSource(dir, inst.App)
			if err != nil {
				return nil, err
			}
			sources[inst.App] = string(data)
		} else if s, ok := corpus.ByName(inst.App); ok {
			sources[inst.App] = s.Groovy
		} else {
			return nil, fmt.Errorf("no source for app %q in the built-in corpus", inst.App)
		}
	}
	return sources, nil
}

// readSource reads app's source from dir: the file <app>.groovy or,
// when there is none, the file the built-in corpus keeps the app's
// source in (corpus.FileName: "Its Too Cold.groovy" for "It's Too
// Cold"). An empty name, or one whose file would lie outside dir, is
// refused before any read.
func readSource(dir, app string) ([]byte, error) {
	plain, corpusName := app+".groovy", corpus.FileName(app)
	if app == "" || !filepath.IsLocal(plain) || !filepath.IsLocal(corpusName) {
		return nil, fmt.Errorf("app %q: its source file would not lie inside the -apps directory", app)
	}
	data, err := os.ReadFile(filepath.Join(dir, plain))
	if errors.Is(err, fs.ErrNotExist) && corpusName != plain {
		if data, err2 := os.ReadFile(filepath.Join(dir, corpusName)); !errors.Is(err2, fs.ErrNotExist) {
			return data, err2
		}
	}
	return data, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iotsan:", err)
	os.Exit(2)
}
