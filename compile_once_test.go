// Gate for the per-call plan. Analyze prepares the device table, the
// invariant catalog and one compiled program per installed app once, and
// every related set of the call is built from them. The oracle is the
// one-shot path with nothing shared — props.CompileInvariants and
// model.New on a configuration restricted to the group's apps, one of
// each per related set, as Analyze itself ran before the plan existed.
package iotsan_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/config"
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
