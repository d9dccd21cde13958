// Command iotsan-translate runs only the translation front-end: it
// parses a SmartThings Groovy app, prints the extracted model (inputs,
// subscriptions, schedules, inferred types), and the per-handler
// input/output events the dependency analyzer would use.
//
// Usage:
//
//	iotsan-translate app.groovy
//	iotsan-translate "internal/corpus/apps/Virtual Thermostat.groovy"
//	iotsan-translate -corpus "Virtual Thermostat"
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"

	"iotsan/internal/corpus"
	"iotsan/internal/smartapp"
	"iotsan/internal/typeinfer"
)

func main() {
	corpusName := flag.String("corpus", "", "translate a built-in corpus app by name")
	flag.Parse()

	var src string
	switch {
	case *corpusName != "":
		s, ok := corpus.ByName(*corpusName)
		if !ok {
			fatal(fmt.Errorf("unknown corpus app %q", *corpusName))
		}
		src = s.Groovy
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
	default:
		flag.Usage()
		os.Exit(2)
	}

	app, err := smartapp.Translate(src)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("app: %s (%s)\n", app.Name, app.Namespace)
	fmt.Printf("description: %s\n\ninputs:\n", app.Description)
	for _, in := range app.Inputs {
		extra := ""
		if in.Capability != "" {
			extra = " capability." + in.Capability
		}
		if in.Multiple {
			extra += " multiple"
		}
		if !in.Required {
			extra += " optional"
		}
		fmt.Printf("  %-20s %s%s\n", in.Name, in.Kind, extra)
	}
	fmt.Println("\nsubscriptions:")
	for _, s := range app.Subscriptions {
		v := s.Value
		if v == "" {
			v = "*"
		}
		fmt.Printf("  %s %s/%s -> %s\n", s.Source, s.Attribute, v, s.Handler)
	}
	for _, s := range app.Schedules {
		fmt.Printf("  timer(%ds) -> %s\n", s.Seconds, s.Handler)
	}

	fmt.Println("\nhandler events (dependency analysis):")
	for _, hi := range smartapp.AnalyzeHandlers(app) {
		fmt.Printf("  %-24s in=%v out=%v\n", hi.Handler, hi.Inputs, hi.Outputs)
	}

	fmt.Println("\ninferred method signatures:")
	sigs := typeinfer.Infer(app)
	for _, name := range slices.Sorted(maps.Keys(sigs)) {
		fmt.Printf("  %s%v -> %s\n", name, sigs[name].Params, sigs[name].Return)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iotsan-translate:", err)
	os.Exit(1)
}
