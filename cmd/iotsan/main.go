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
package main

import (
	"flag"
	"fmt"
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
	fmt.Printf("dependency analysis: %d handlers, largest related set %d (%.1fx reduction)\n",
		rep.Scale.OriginalSize, rep.Scale.NewSize, rep.Scale.Ratio())
	fmt.Printf("verified %d related group(s) in %v\n\n", len(rep.Groups), rep.Elapsed)

	if len(rep.Violations) == 0 {
		fmt.Println("no violations detected")
		return
	}
	fmt.Printf("%d violation(s) of %d propert(ies):\n\n", len(rep.Violations), len(rep.ViolatedProperties()))
	for _, v := range rep.Violations {
		if *trails {
			fmt.Println(checker.FormatTrail(v))
		} else {
			fmt.Printf("  %s: %s\n", v.Property, v.Detail)
		}
	}
	os.Exit(1)
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
	os.Exit(1)
}
