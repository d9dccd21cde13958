package experiments

import (
	"fmt"
	"strings"
	"time"

	"iotsan"
	"iotsan/internal/attribution"
	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/depgraph"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/smartapp"
)

// ViolationClass buckets violations the way Tables 5 and 6 report them.
type ViolationClass int

// Violation classes.
const (
	ClassConflicting ViolationClass = iota
	ClassRepeated
	ClassUnsafePhysical
	ClassOther
)

func classify(property string) ViolationClass {
	switch property {
	case model.PropConflicting:
		return ClassConflicting
	case model.PropRepeated:
		return ClassRepeated
	case model.PropLeakNetwork, model.PropLeakSMS, model.PropSuspUnsub,
		model.PropSuspFakeEvent, model.PropRobustness:
		return ClassOther
	}
	return ClassUnsafePhysical
}

// Table5Row is one violation-type row of Table 5.
type Table5Row struct {
	Class      ViolationClass
	Violations int
	Properties int
}

// Table5Result is the market-apps-with-expert-configuration experiment.
type Table5Result struct {
	Rows            []Table5Row
	TotalViolations int
	Properties      int // distinct violated properties
	RemovedApps     []string
	// FailureExtraProperties counts properties violated only once
	// device/communication failures are enabled (§10.2 reports 9).
	FailureExtraProperties int
}

// defaultLimits gives an experiment's per-set state cap and deadline to
// an engine configuration that sets neither: a caller's own limits — a
// ten-minute deadline for an eight-event Table 8 row — are the ones that
// reach the checker.
func defaultLimits(opts *iotsan.Options, maxStates int, deadline time.Duration) {
	if opts.MaxStatesPerSet == 0 {
		opts.MaxStatesPerSet = maxStates
	}
	if opts.Deadline == 0 {
		opts.Deadline = deadline
	}
}

// RunTable5 reproduces the first experiment of §10.1/§10.2: the market
// apps of the six groups with expert configurations, iterating
// remove-a-bad-app-and-repeat until no violation is detected, then once
// more with failures enabled. opts carries the engine configuration;
// the experiment overlays only the event count it fixes (and Failures
// for the second pass) and defaults the per-set limits the caller left
// unset.
func RunTable5(opts iotsan.Options, maxEvents int, groups []int) (*Table5Result, error) {
	opts.MaxEvents = maxEvents
	defaultLimits(&opts, 60000, 10*time.Second)
	failOpts := opts
	failOpts.Failures = true

	res := &Table5Result{}
	byClass := map[ViolationClass]map[string]int{}
	classProps := map[ViolationClass]map[string]bool{}
	seenProps := map[string]bool{}
	failProps := map[string]bool{}

	for _, g := range groups {
		sources := corpus.Group(g)
		apps, err := TranslateAll(sources)
		if err != nil {
			return nil, err
		}
		remaining := append([]corpus.Source(nil), sources...)

		// Iterate: verify, remove the minimum set of associated apps,
		// repeat until clean (§10.1).
		for iter := 0; iter < len(sources); iter++ {
			sys := ExpertConfig(fmt.Sprintf("group-%d", g), remaining, apps)
			rep, err := iotsan.AnalyzeTranslated(sys, apps, opts)
			if err != nil {
				return nil, err
			}
			if len(rep.Violations) == 0 {
				break
			}
			removed := map[string]bool{}
			for _, v := range rep.Violations {
				cl := classify(v.Property)
				if byClass[cl] == nil {
					byClass[cl] = map[string]int{}
					classProps[cl] = map[string]bool{}
				}
				byClass[cl][v.Property+"\x00"+v.Detail]++
				classProps[cl][v.Property] = true
				seenProps[v.Property] = true
				// Remove the minimum number of associated apps: the
				// first app implicated by the violation detail/trail.
				if app := implicatedApp(remaining, v); app != "" && !removed[app] {
					removed[app] = true
				}
			}
			if len(removed) == 0 {
				break
			}
			var next []corpus.Source
			for _, s := range remaining {
				if !removed[s.Name] {
					next = append(next, s)
				} else {
					res.RemovedApps = append(res.RemovedApps, s.Name)
				}
			}
			remaining = next
		}

		// Failure run on the cleaned group: which additional properties
		// appear only under device/communication failures?
		sys := ExpertConfig(fmt.Sprintf("group-%d-failures", g), remaining, apps)
		rep, err := iotsan.AnalyzeTranslated(sys, apps, failOpts)
		if err != nil {
			return nil, err
		}
		for _, v := range rep.Violations {
			if !seenProps[v.Property] {
				failProps[v.Property] = true
			}
		}
	}

	for _, cl := range []ViolationClass{ClassConflicting, ClassRepeated, ClassUnsafePhysical} {
		res.Rows = append(res.Rows, Table5Row{
			Class:      cl,
			Violations: len(byClass[cl]),
			Properties: len(classProps[cl]),
		})
		res.TotalViolations += len(byClass[cl])
	}
	res.Properties = len(seenProps)
	res.FailureExtraProperties = len(failProps)
	return res, nil
}

// implicatedApp extracts an app name mentioned in a violation, matched
// against the remaining apps.
func implicatedApp(remaining []corpus.Source, v checker.Found) string {
	for _, s := range remaining {
		if strings.Contains(v.Detail, s.Name) {
			return s.Name
		}
		for _, step := range v.Trail {
			for _, line := range step.Steps {
				if strings.Contains(line, s.Name) {
					return s.Name
				}
			}
		}
	}
	return ""
}

// Table6Result is the volunteer-configuration experiment (Table 6).
type Table6Result struct {
	Rows            []Table5Row
	TotalViolations int
	Properties      int
	Configurations  int
}

// volunteerGroups returns the 10 groups of ~5 related apps (§10.1
// "Market apps with non-expert configurations").
func volunteerGroups() [][]string {
	return [][]string{
		{"Virtual Thermostat", "It's Too Cold", "It's Too Hot", "Heater Minder", "AC Minder"},
		{"Brighten Dark Places", "Let There Be Dark!", "Let There Be Light", "Smart Nightlight", "Closet Light"},
		{"Auto Mode Change", "Unlock Door", "Big Turn On", "Big Turn Off", "Make It So"},
		{"Good Night", "Light Follows Me", "Light Off When Close", "Darken Behind Me", "Lights Out at Night"},
		{"Smart Security", "Intruder Strobe", "Entry Breach Siren", "Alarm Silencer", "Security Arm on Away"},
		{"Lock It When I Leave", "Unlock When I Arrive", "Auto Lock Door", "Guest Mode Unlock", "Everyone's Gone"},
		{"Smoke Alarm Actions", "Smoke Heater Cutoff", "Fire Escape Unlock", "Smoke Valve Protect", "Smoke Lights Beacon"},
		{"Flood Alert", "Basement Water Watch", "Water Heater Leak Guard", "Presence Valve Control", "Leak Chime"},
		{"Comfort Band Keeper", "Window Fan When Cool", "Night Heat Drop", "Space Heater Curfew", "Freeze Guard"},
		{"I'm Back", "Two Stage Departure", "Switch Changes Mode", "Sunset Mode Change", "Sunrise Mode Change"},
	}
}

// RunTable6 reproduces Table 6: 10 groups × 7 volunteer configurations
// (engine configuration from opts, as in RunTable5).
func RunTable6(opts iotsan.Options, maxEvents int, volunteers int, groupLimit int) (*Table6Result, error) {
	opts.MaxEvents = maxEvents
	defaultLimits(&opts, 40000, 8*time.Second)

	res := &Table6Result{}
	byClass := map[ViolationClass]map[string]int{}
	classProps := map[ViolationClass]map[string]bool{}
	seenProps := map[string]bool{}

	groups := volunteerGroups()
	if groupLimit > 0 && groupLimit < len(groups) {
		groups = groups[:groupLimit]
	}
	for gi, names := range groups {
		var sources []corpus.Source
		for _, n := range names {
			s, ok := corpus.ByName(n)
			if !ok {
				return nil, fmt.Errorf("experiments: unknown app %q", n)
			}
			sources = append(sources, s)
		}
		apps, err := TranslateAll(sources)
		if err != nil {
			return nil, err
		}
		for v := 0; v < volunteers; v++ {
			res.Configurations++
			sys := VolunteerConfig(fmt.Sprintf("vol-g%d-v%d", gi, v), sources, apps,
				int64(gi*100+v+1))
			rep, err := iotsan.AnalyzeTranslated(sys, apps, opts)
			if err != nil {
				return nil, err
			}
			for _, f := range rep.Violations {
				cl := classify(f.Property)
				if byClass[cl] == nil {
					byClass[cl] = map[string]int{}
					classProps[cl] = map[string]bool{}
				}
				// Count per configuration (the paper counts violations
				// across configurations).
				byClass[cl][fmt.Sprintf("%d/%d/%s", gi, v, f.Property)]++
				classProps[cl][f.Property] = true
				seenProps[f.Property] = true
			}
		}
	}
	for _, cl := range []ViolationClass{ClassConflicting, ClassRepeated, ClassUnsafePhysical} {
		res.Rows = append(res.Rows, Table5Row{
			Class:      cl,
			Violations: len(byClass[cl]),
			Properties: len(classProps[cl]),
		})
		res.TotalViolations += len(byClass[cl])
	}
	res.Properties = len(seenProps)
	return res, nil
}

// Table7aRow is one group's scalability numbers.
type Table7aRow struct {
	Group        int
	OriginalSize int
	NewSize      int
	Ratio        float64
}

// RunTable7a computes the dependency-analysis scale ratios of Table 7a
// over the paper's random six-way division of the 150 market apps.
func RunTable7a() ([]Table7aRow, float64, error) {
	var rows []Table7aRow
	sum := 0.0
	for g, sources := range RandomGroups(1) {
		g++ // 1-based group ids
		apps, err := TranslateAll(sources)
		if err != nil {
			return nil, 0, err
		}
		var handlers []smartapp.HandlerInfo
		for _, s := range sources {
			handlers = append(handlers, smartapp.AnalyzeHandlers(apps[s.Name])...)
		}
		st := depgraph.Scale(handlers)
		rows = append(rows, Table7aRow{Group: g, OriginalSize: st.OriginalSize,
			NewSize: st.NewSize, Ratio: st.Ratio()})
		sum += st.Ratio()
	}
	return rows, sum / 6, nil
}

// Table7bRow is one event-count row comparing the two designs.
type Table7bRow struct {
	Events           int
	ConcurrentStates int
	ConcurrentTime   time.Duration
	ConcurrentCap    bool // hit the state cap ("forever" in the paper)
	SequentialStates int
	SequentialTime   time.Duration
}

// table7bSystem builds the §10.1 performance system: two bad groups and
// one good group controlling 3 switches, 3 motion sensors, and one
// temperature sensor.
func table7bSystem() (*config.System, map[string]*ir.App, error) {
	names := []string{"Auto Mode Change", "Unlock Door", "Brighten Dark Places",
		"Let There Be Dark!", "Good Night", "It's Too Cold"}
	var sources []corpus.Source
	for _, n := range names {
		s, _ := corpus.ByName(n)
		sources = append(sources, s)
	}
	apps, err := TranslateAll(sources)
	if err != nil {
		return nil, nil, err
	}
	sys := ExpertConfig("perf", sources, apps)
	return sys, apps, nil
}

// RunTable7b compares concurrent vs sequential verification runtimes
// (Table 7b shape: concurrent explodes, sequential stays flat).
func RunTable7b(opts iotsan.Options, maxEventsList []int, stateCap int) ([]Table7bRow, error) {
	sys, apps, err := table7bSystem()
	if err != nil {
		return nil, err
	}
	defaultLimits(&opts, stateCap, 12*time.Second)
	var rows []Table7bRow
	for _, n := range maxEventsList {
		row := Table7bRow{Events: n}

		for _, design := range []iotsan.Design{iotsan.Concurrent, iotsan.Sequential} {
			opts.MaxEvents, opts.Design = n, design
			rep, err := iotsan.AnalyzeTranslated(sys, apps, opts)
			if err != nil {
				return nil, err
			}
			states, truncated := 0, false
			for _, g := range rep.Groups {
				states += g.Result.StatesExplored
				truncated = truncated || g.Result.Truncated
			}
			if design == iotsan.Concurrent {
				row.ConcurrentStates = states
				row.ConcurrentTime = rep.Elapsed
				row.ConcurrentCap = truncated
			} else {
				row.SequentialStates = states
				row.SequentialTime = rep.Elapsed
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table8Row is one verification-time measurement (Table 8).
type Table8Row struct {
	Events    int
	States    int
	Elapsed   time.Duration
	Truncated bool
}

// Table8System builds the bigger violation-free system Table 8 times (5
// related apps, 10 devices in use).
func Table8System() (*config.System, map[string]*ir.App, error) {
	names := []string{"Good Night", "It's Too Cold", "Light Follows Me",
		"Darken Behind Me", "Lights Out at Night"}
	var sources []corpus.Source
	for _, n := range names {
		s, _ := corpus.ByName(n)
		sources = append(sources, s)
	}
	apps, err := TranslateAll(sources)
	if err != nil {
		return nil, nil, err
	}
	return ExpertConfig("table8", sources, apps), apps, nil
}

// RunTable8 measures sequential verification time versus event count on
// Table8System.
func RunTable8(opts iotsan.Options, events []int, stateCap int) ([]Table8Row, error) {
	sys, apps, err := Table8System()
	if err != nil {
		return nil, err
	}
	opts.NoDepGraph = true
	defaultLimits(&opts, stateCap, 30*time.Second)
	var rows []Table8Row
	for _, n := range events {
		opts.MaxEvents = n
		rep, err := iotsan.AnalyzeTranslated(sys, apps, opts)
		if err != nil {
			return nil, err
		}
		states, trunc := 0, false
		for _, g := range rep.Groups {
			states += g.Result.StatesExplored
			trunc = trunc || g.Result.Truncated
		}
		rows = append(rows, Table8Row{Events: n, States: states,
			Elapsed: rep.Elapsed, Truncated: trunc})
	}
	return rows, nil
}

// AttributionRow is one app's attribution outcome (§10.3).
type AttributionRow struct {
	App     string
	Tag     corpus.Tag
	Verdict attribution.Verdict
	Ratio1  float64
	Ratio2  float64
}

// RunAttribution evaluates the Output Analyzer on the 9 malicious apps,
// the 11 bad market apps, and 10 good apps (§10.3).
func RunAttribution(opts iotsan.Options, maxEvents int) ([]AttributionRow, error) {
	home := &config.System{
		Name: "attr-home", Modes: []string{"Home", "Away", "Night"}, Mode: "Home",
		Devices: HomeInventory(), Phones: []string{"15551230000"},
	}
	var rows []AttributionRow

	runSet := func(set []corpus.Source, tag corpus.Tag, limit int) error {
		for i, s := range set {
			if limit > 0 && i >= limit {
				break
			}
			app, err := smartapp.Translate(s.Groovy)
			if err != nil {
				return err
			}
			apps := map[string]*ir.App{s.Name: app}
			rep, err := attribution.AttributeNewApp(home, app, apps, attribution.Options{
				MaxEvents: maxEvents, MaxConfigs: 12, Failures: opts.Failures,
				Strategy: opts.Strategy, Workers: opts.Workers,
			})
			if err != nil {
				return err
			}
			rows = append(rows, AttributionRow{App: s.Name, Tag: tag,
				Verdict: rep.Verdict, Ratio1: rep.Phase1Ratio(), Ratio2: rep.Phase2Ratio()})
		}
		return nil
	}

	if err := runSet(corpus.WithTag(corpus.TagMalicious), corpus.TagMalicious, 0); err != nil {
		return nil, err
	}
	if err := runSet(corpus.WithTag(corpus.TagBad), corpus.TagBad, 0); err != nil {
		return nil, err
	}
	if err := runSet(corpus.WithTag(corpus.TagGood), corpus.TagGood, 10); err != nil {
		return nil, err
	}
	return rows, nil
}
