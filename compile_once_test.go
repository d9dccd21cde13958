// Gate for the per-call plan. Analyze prepares the device table, the
// invariant catalog and one compiled program per installed app once, and
// every related set of the call is built from them. The oracle is the
// one-shot path with nothing shared — props.CompileInvariants and
// model.New on a configuration restricted to the group's apps, one of
// each per related set, as Analyze itself ran before the plan existed.
package iotsan_test

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/device"
	"iotsan/internal/experiments"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/props"
	"iotsan/internal/smartapp"
)

// groupVerdict is what a related set's verification is compared on.
type groupVerdict struct {
	apps                         []string
	explored, stored, invariants int
	violations                   []string // sorted property + detail
	trails                       []string // FormatTrail, in found order (DFS only)
}

func verdictOf(gr iotsan.GroupResult, trails bool) groupVerdict {
	v := groupVerdict{
		apps: gr.Apps, explored: gr.Result.StatesExplored, stored: gr.Result.StatesStored,
		invariants: gr.InvariantCount,
	}
	for _, f := range gr.Result.Violations {
		v.violations = append(v.violations, f.Property+"\x00"+f.Detail)
		if trails {
			v.trails = append(v.trails, checker.FormatTrail(f))
		}
	}
	sort.Strings(v.violations)
	return v
}

func (v groupVerdict) diff(want groupVerdict) string {
	switch {
	case !slices.Equal(v.apps, want.apps):
		return fmt.Sprintf("apps %q, want %q", v.apps, want.apps)
	case v.explored != want.explored || v.stored != want.stored:
		return fmt.Sprintf("explored/stored %d/%d, want %d/%d", v.explored, v.stored, want.explored, want.stored)
	case v.invariants != want.invariants:
		return fmt.Sprintf("%d invariants, want %d", v.invariants, want.invariants)
	case !slices.Equal(v.violations, want.violations):
		return fmt.Sprintf("violations %q, want %q", v.violations, want.violations)
	case !slices.Equal(v.trails, want.trails):
		return "trail text differs"
	}
	return ""
}

// oneShotGroup verifies one related set the unshared way.
func oneShotGroup(t *testing.T, sys *config.System, apps map[string]*ir.App, names []string, opts iotsan.Options) iotsan.GroupResult {
	t.Helper()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	sub := &config.System{Name: sys.Name, Modes: sys.Modes, Mode: sys.Mode, Devices: sys.Devices, Phones: sys.Phones}
	for _, inst := range sys.Apps {
		if want[inst.App] {
			sub.Apps = append(sub.Apps, inst)
		}
	}
	m := oneShotModel(t, sub, apps, opts.MaxEvents)
	res := checker.Run(m.System(), checker.Options{
		MaxDepth: opts.MaxEvents + 64, MaxStates: 1_000_000,
		Strategy: opts.Strategy, Workers: opts.Workers,
	})
	return iotsan.GroupResult{Apps: names, Result: res, InvariantCount: len(m.Opts.Invariants)}
}

// oneShotModel builds the model Analyze builds for a related set that is
// the whole of sub — the catalog, the relevant-attribute event space,
// the block cache — through the one-shot entry points.
func oneShotModel(t *testing.T, sub *config.System, apps map[string]*ir.App, maxEvents int) *model.Model {
	t.Helper()
	invs, err := props.CompileInvariants(sub, nil, props.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	relevant := map[string]bool{"presence": true}
	for _, inst := range sub.Apps {
		for _, hi := range smartapp.AnalyzeHandlers(apps[inst.App]) {
			for _, in := range hi.Inputs {
				relevant[in.Attr] = true
			}
		}
	}
	for _, p := range props.Catalog() {
		if p.Kind != props.Physical || !p.Applicable(sub) {
			continue
		}
		for _, capName := range p.Capabilities {
			if c := device.CapabilityByName(capName); c != nil && c.Sensor {
				for _, a := range c.Attributes {
					relevant[a.Name] = true
				}
			}
		}
	}
	m, err := model.New(sub, apps, model.Options{
		MaxEvents:      maxEvents,
		CheckConflicts: true, CheckLeakage: true,
		Invariants:    invs,
		RelevantAttrs: relevant,
		Incremental:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompileOnceEquivalence(t *testing.T) {
	t.Parallel()
	engines := []struct {
		name string
		opts iotsan.Options
	}{
		{"dfs", iotsan.Options{}},
		{"steal2", iotsan.Options{Strategy: iotsan.StrategySteal, Workers: 2}},
	}
	for _, split := range []int64{1, 2} {
		programs, instances := 0, 0
		for gi, sources := range experiments.RandomGroups(split) {
			apps, err := experiments.TranslateAll(sources)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("split%d/market-%d", split, gi+1)
			sys := experiments.ExpertConfig(name, sources, apps)

			analyze := func(t *testing.T, opts iotsan.Options) *iotsan.Report {
				t.Helper()
				rep, err := iotsan.AnalyzeTranslated(sys, apps, opts)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			// The plan's work is the system's, not the groups': one program
			// per installed instance however many related sets hold it, one
			// atom table; and a second call does all of it again.
			t.Run(name+"/counts", func(t *testing.T) {
				rep := analyze(t, iotsan.Options{MaxEvents: 1})
				p, a := rep.CompiledCounts()
				if p != len(sys.Apps) || a != 1 {
					t.Errorf("compiled %d programs and %d atom tables for %d installed apps, want one each and one table", p, a, len(sys.Apps))
				}
				if p2, a2 := analyze(t, iotsan.Options{MaxEvents: 1}).CompiledCounts(); p2 != p || a2 != a {
					t.Errorf("second call compiled %d programs and %d atom tables, first %d and %d: something outlived the call", p2, a2, p, a)
				}
				programs += p
				for _, g := range rep.Groups {
					instances += len(g.Apps)
				}
				if p, a := analyze(t, iotsan.Options{MaxEvents: 1, Interpreter: true}).CompiledCounts(); p != 0 || a != 1 {
					t.Errorf("interpreter run compiled %d programs and %d atom tables, want 0 and 1", p, a)
				}
			})

			for _, events := range []int{1, 2} {
				if raceEnabled && (split != 1 || events != 1) {
					continue
				}
				for _, e := range engines {
					base := e.opts
					base.MaxEvents = events
					dfs := base.Strategy == iotsan.StrategyDFS
					// The oracle runs the compiled programs on this row's
					// engine; every variant of the row must equal it.
					var oracle []groupVerdict
					check := func(t *testing.T, opts iotsan.Options) {
						t.Helper()
						rep := analyze(t, opts)
						if oracle == nil {
							for _, g := range rep.Groups {
								oracle = append(oracle, verdictOf(oneShotGroup(t, sys, apps, g.Apps, base), dfs))
							}
						}
						if len(rep.Groups) != len(oracle) {
							t.Fatalf("%d groups, oracle %d", len(rep.Groups), len(oracle))
						}
						for i, g := range rep.Groups {
							if d := verdictOf(g, dfs).diff(oracle[i]); d != "" {
								t.Errorf("group %d %q: shared plan vs one-shot: %s", i, g.Apps, d)
							}
						}
					}
					row := fmt.Sprintf("%s/events%d/%s", name, events, e.name)
					// Workers: 1 verifies the related sets one after
					// another; wider budgets verify them concurrently.
					t.Run(row+"/sequential", func(t *testing.T) {
						opts := base
						opts.Workers = 1
						check(t, opts)
					})
					t.Run(row+"/group-parallel", func(t *testing.T) {
						for _, workers := range []int{2, 4} {
							opts := base
							opts.Workers = workers
							check(t, opts)
						}
					})
					if dfs {
						t.Run(row+"/interpreter", func(t *testing.T) {
							opts := base
							opts.Interpreter = true
							check(t, opts)
						})
					}
				}
			}
		}
		// 150 market apps per split, against 269 (split 1) and 473
		// (split 2) app instances over the related sets.
		if programs != 150 || instances <= programs {
			t.Errorf("split %d: %d programs compiled for %d app instances over all related sets, want 150 and more instances than programs", split, programs, instances)
		}
		t.Logf("split %d: %d programs compiled, %d app instances over all related sets", split, programs, instances)
	}
}

// TestPlanBuildWidths: Analyze translates the apps and builds the call's
// plan on one pool of Workers goroutines, and neither its errors nor its
// report depend on the width. With two unparsable sources the error is
// always the lexicographically first name's; with every source sound,
// an installed app with no source is named in installation order, and
// on AnalyzeTranslated too. (Config validation rejects an unknown
// device before any instance is prepared, so a PrepareApp error cannot
// reach either call.) A market system that installs one app twice, so
// that one translation serves two instances, reports the same related
// sets, violations and plan counts at every width.
func TestPlanBuildWidths(t *testing.T) {
	widths := []int{1, 2, 4}
	t.Run("errors", func(t *testing.T) {
		sys := &iotsan.System{
			Devices: []iotsan.Device{{ID: "l1", Model: "Smart Lock"}},
			Apps: []iotsan.AppInstance{{App: "Unlock Door", Bindings: map[string]iotsan.Binding{
				"lock1": {DeviceIDs: []string{"l1"}},
			}}},
		}
		sources := map[string]string{"b broken": "definition(", "a broken": "not groovy ("}
		for _, name := range []string{"Unlock Door", "Auto Mode Change", "It's Too Cold", "Good Night"} {
			sources[name] = corpus.MustSource(name)
		}
		missing := *sys
		missing.Apps = []iotsan.AppInstance{{App: "Zeta"}, sys.Apps[0], {App: "Alpha"}}
		sound := maps.Clone(sources)
		delete(sound, "a broken")
		delete(sound, "b broken")
		apps, err := experiments.TranslateAll([]corpus.Source{{Name: "Unlock Door", Groovy: sources["Unlock Door"]}})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name, want string
			analyze    func(iotsan.Options) (*iotsan.Report, error)
		}{
			{"translation", `iotsan: translating "a broken": `, func(o iotsan.Options) (*iotsan.Report, error) {
				return iotsan.Analyze(sys, sources, o)
			}},
			{"broken-before-missing", `iotsan: translating "a broken": `, func(o iotsan.Options) (*iotsan.Report, error) {
				return iotsan.Analyze(&missing, sources, o)
			}},
			{"missing", `iotsan: no source for installed app "Zeta"`, func(o iotsan.Options) (*iotsan.Report, error) {
				return iotsan.Analyze(&missing, sound, o)
			}},
			{"missing-translated", `iotsan: no source for installed app "Zeta"`, func(o iotsan.Options) (*iotsan.Report, error) {
				return iotsan.AnalyzeTranslated(&missing, apps, o)
			}},
		} {
			t.Run(c.name, func(t *testing.T) {
				var first string
				for _, workers := range widths {
					runs := 1
					if workers == 4 {
						runs = 20
					}
					for run := range runs {
						_, err := c.analyze(iotsan.Options{Workers: workers})
						if err == nil || !strings.HasPrefix(err.Error(), c.want) {
							t.Fatalf("workers=%d run %d: error %v, want one starting %q", workers, run, err, c.want)
						}
						if first == "" {
							first = err.Error()
						} else if err.Error() != first {
							t.Fatalf("workers=%d run %d: error %q, at one worker %q", workers, run, err, first)
						}
					}
				}
			})
		}
	})

	t.Run("app-installed-twice", func(t *testing.T) {
		sources := experiments.RandomGroups(1)[0]
		apps, err := experiments.TranslateAll(sources)
		if err != nil {
			t.Fatal(err)
		}
		sys := experiments.ExpertConfig("market-1-twice", sources, apps)
		sys.Apps = append(sys.Apps, sys.Apps[0])
		var want []groupVerdict
		var wantViolations []string
		for _, workers := range widths {
			rep, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{MaxEvents: 1, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if p, a := rep.CompiledCounts(); p != len(sys.Apps) || a != 1 {
				t.Errorf("workers=%d: compiled %d programs and %d atom tables for %d installed apps, want one each and one table", workers, p, a, len(sys.Apps))
			}
			var got []groupVerdict
			for _, g := range rep.Groups {
				got = append(got, verdictOf(g, true))
			}
			var violations []string
			for _, v := range rep.Violations {
				violations = append(violations, v.Property+"\x00"+v.Detail)
			}
			if want == nil {
				want, wantViolations = got, violations
				t.Logf("%d related sets, %d violations", len(got), len(violations))
				if !slices.ContainsFunc(got, func(v groupVerdict) bool { return slices.Contains(v.apps, sys.Apps[0].App) }) {
					t.Fatalf("no related set holds %q", sys.Apps[0].App)
				}
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d: %d groups, at one worker %d", workers, len(got), len(want))
			}
			for i := range got {
				if d := got[i].diff(want[i]); d != "" {
					t.Errorf("workers=%d: group %d: %s", workers, i, d)
				}
			}
			if !slices.Equal(violations, wantViolations) {
				t.Errorf("workers=%d: violations %q, at one worker %q", workers, violations, wantViolations)
			}
		}
	})
}
