// Package attribution implements IotSan's Output Analyzer (§9): the
// two-phase heuristic that attributes safety violations to potentially
// malicious apps, bad apps, or misconfiguration.
//
// Phase 1: when a user installs a new app, every possible configuration
// of that app (against the installed devices) is verified independently.
// A violation ratio at or above the threshold attributes the app as
// potentially malicious.
//
// Phase 2: otherwise the app is verified in conjunction with the
// previously installed apps, again across all configurations. A ratio
// at or above the threshold attributes it as a bad app; otherwise violations
// are attributed to misconfiguration and safe configurations are
// suggested.
package attribution

import (
	"fmt"
	"maps"
	"slices"

	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/device"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/props"
)

// Verdict is the attribution outcome.
type Verdict int

// Verdicts.
const (
	Clean Verdict = iota
	Misconfigured
	Bad
	Malicious
)

func (v Verdict) String() string {
	switch v {
	case Clean:
		return "clean"
	case Misconfigured:
		return "misconfigured"
	case Bad:
		return "bad app"
	case Malicious:
		return "potentially malicious"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// threshold is §9's violation-ratio cutoff: a ratio at or above it
// attributes the app as potentially malicious (phase 1) or bad (phase
// 2).
const threshold = 0.9

// Options configure attribution.
type Options struct {
	// MaxConfigs caps configuration enumeration (default 64).
	MaxConfigs int
	// MaxEvents per verification run (default 3).
	MaxEvents int
	// Failures enables failure enumeration during verification.
	Failures bool
	// Strategy selects the checker search strategy for each
	// verification run (sequential DFS default).
	Strategy checker.StrategyKind
	// Workers is the checker goroutine count for the steal strategy
	// (0 = GOMAXPROCS).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxConfigs == 0 {
		o.MaxConfigs = 64
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 3
	}
	return o
}

// Report is the attribution result for one newly installed app.
type Report struct {
	App     string
	Verdict Verdict

	Phase1Total     int
	Phase1Violating int
	Phase2Total     int
	Phase2Violating int

	// ViolatedProperties aggregates the distinct property ids seen.
	ViolatedProperties []string
	// SafeBindings are configurations with no violations (suggestions
	// for the user, §9), present when the verdict is Misconfigured.
	SafeBindings []map[string]config.Binding
}

// Phase1Ratio returns the fraction of standalone configurations that
// violate at least one property.
func (r *Report) Phase1Ratio() float64 {
	if r.Phase1Total == 0 {
		return 0
	}
	return float64(r.Phase1Violating) / float64(r.Phase1Total)
}

// Phase2Ratio returns the violating fraction in conjunction with the
// installed apps.
func (r *Report) Phase2Ratio() float64 {
	if r.Phase2Total == 0 {
		return 0
	}
	return float64(r.Phase2Violating) / float64(r.Phase2Total)
}

// AttributeNewApp runs the two-phase analysis for newApp being added to
// sys (whose Apps are the previously installed instances). The apps map
// must contain the translation of every installed app and of newApp.
func AttributeNewApp(sys *config.System, newApp *ir.App, apps map[string]*ir.App, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{App: newApp.Name}
	violProps := map[string]bool{}

	configs := EnumerateConfigs(sys, newApp, opts.MaxConfigs)
	if len(configs) == 0 {
		return nil, fmt.Errorf("attribution: no viable configuration for %q (missing devices)", newApp.Name)
	}

	// Every candidate system has sys's devices and differs only in the new
	// app's bindings: the device table, the invariant catalog and the
	// installed apps' compiled programs are prepared once for all of them.
	plan, err := model.Prepare(sys)
	if err != nil {
		return nil, err
	}
	installed, err := plan.PrepareApps(sys.Apps, apps, false)
	if err != nil {
		return nil, err
	}
	invs, err := props.CompileCatalog(plan, nil)
	if err != nil {
		return nil, err
	}
	mopts := model.Options{
		MaxEvents: opts.MaxEvents, Failures: opts.Failures,
		CheckConflicts: true, CheckLeakage: true, CheckRobustness: opts.Failures,
		Invariants:       invs,
		RelevantAttrs:    relevantAttrs(newApp, sys, apps),
		UserModeEvents:   true, // §9: reach mode-triggered behaviour standalone
		UserDeviceEvents: true, // physical interaction on subscribed attributes
		Incremental:      true,
	}
	// verify checks one candidate: the given installed instances plus,
	// when bindings is non-nil, the new app configured with them.
	verify := func(insts []*model.AppInst, bindings map[string]config.Binding) ([]string, error) {
		if bindings != nil {
			a, err := plan.PrepareApp(config.AppInstance{App: newApp.Name, Bindings: bindings}, newApp, false)
			if err != nil {
				return nil, err
			}
			insts = append(insts[:len(insts):len(insts)], a)
		}
		m, err := plan.Build(insts, mopts)
		if err != nil {
			return nil, err
		}
		return check(m, opts), nil
	}

	// Baseline: properties violated by the environment with no app under
	// test installed (e.g. "mode should be Away when empty" in a home
	// with no mode manager). These are not attributable to the new app.
	baseIDs, err := verify(installed, nil)
	if err != nil {
		return nil, err
	}
	baseline := map[string]bool{}
	for _, id := range baseIDs {
		baseline[id] = true
	}
	attributable := func(ids []string) []string {
		var out []string
		for _, id := range ids {
			if !baseline[id] {
				out = append(out, id)
			}
		}
		return out
	}

	// Phase 1: the new app alone, each configuration independently.
	for _, b := range configs {
		ids, err := verify(nil, b)
		if err != nil {
			return nil, err
		}
		ids = attributable(ids)
		rep.Phase1Total++
		if len(ids) > 0 {
			rep.Phase1Violating++
			for _, id := range ids {
				violProps[id] = true
			}
		}
	}
	if rep.Phase1Ratio() >= threshold {
		rep.Verdict = Malicious
		rep.ViolatedProperties = slices.Sorted(maps.Keys(violProps))
		return rep, nil
	}

	// Phase 2: in conjunction with the installed apps.
	var anyViolation bool
	for _, b := range configs {
		ids, err := verify(installed, b)
		if err != nil {
			return nil, err
		}
		ids = attributable(ids)
		rep.Phase2Total++
		if len(ids) > 0 {
			anyViolation = true
			rep.Phase2Violating++
			for _, id := range ids {
				violProps[id] = true
			}
		} else {
			rep.SafeBindings = append(rep.SafeBindings, b)
		}
	}
	rep.ViolatedProperties = slices.Sorted(maps.Keys(violProps))
	switch {
	case rep.Phase2Ratio() >= threshold:
		rep.Verdict = Bad
		rep.SafeBindings = nil
	case anyViolation:
		rep.Verdict = Misconfigured
	default:
		rep.Verdict = Clean
		rep.SafeBindings = nil
	}
	return rep, nil
}

// check searches one candidate model and returns the violated property
// ids. The event space (model.Options.RelevantAttrs) is all sensed
// attributes plus the attributes the analyzed apps subscribe to, so
// actuator-triggered apps are reachable via physical user interaction
// without flooding the baseline with arbitrary manual actuations.
func check(m *model.Model, opts Options) []string {
	res := checker.Run(m.System(), checker.Options{
		MaxDepth: opts.MaxEvents + 4, MaxStates: 25000,
		Strategy: opts.Strategy, Workers: opts.Workers,
	})
	// Execution errors are tooling diagnostics, not safety violations.
	var real []string
	for _, id := range res.PropertyIDs() {
		if id != model.PropExecError {
			real = append(real, id)
		}
	}
	return real
}

// relevantAttrs builds the event space for attribution runs: every
// sensed attribute of the registry plus the attributes the new and
// installed apps subscribe to.
func relevantAttrs(newApp *ir.App, sys *config.System, apps map[string]*ir.App) map[string]bool {
	out := map[string]bool{}
	for _, cn := range device.Capabilities() {
		c := device.CapabilityByName(cn)
		if !c.Sensor {
			continue
		}
		for _, a := range c.Attributes {
			out[a.Name] = true
		}
	}
	add := func(app *ir.App) {
		if app == nil {
			return
		}
		for _, sub := range app.Subscriptions {
			if sub.Attribute != "" {
				out[sub.Attribute] = true
			}
		}
	}
	add(newApp)
	for _, inst := range sys.Apps {
		add(apps[inst.App])
	}
	return out
}

// EnumerateConfigs generates the possible configurations of an app
// against the system's installed devices (§9 phase 1), capped at limit.
// Device inputs bind to each compatible device (and, when multiple, also
// to the full compatible set); enum inputs take each option; mode inputs
// each configured mode; literals take representative defaults.
func EnumerateConfigs(sys *config.System, app *ir.App, limit int) []map[string]config.Binding {
	type choice struct {
		input ir.Input
		opts  []config.Binding
	}
	var dims []choice

	for _, in := range app.Inputs {
		var opts []config.Binding
		switch in.Kind {
		case ir.InputDevice:
			compatible := devicesWithCapability(sys, in.Capability)
			for _, id := range compatible {
				opts = append(opts, config.Binding{DeviceIDs: []string{id}})
			}
			if in.Multiple && len(compatible) > 1 {
				opts = append(opts, config.Binding{DeviceIDs: compatible})
			}
			if len(opts) == 0 {
				if !in.Required {
					opts = append(opts, config.Binding{})
				} else {
					return nil // unconfigurable: required device missing
				}
			}
		case ir.InputEnum:
			for _, o := range in.Options {
				opts = append(opts, config.Binding{Value: o})
			}
			if len(opts) == 0 {
				opts = append(opts, config.Binding{Value: ""})
			}
		case ir.InputMode:
			for _, m := range sys.Modes {
				opts = append(opts, config.Binding{Value: m})
			}
		case ir.InputNumber:
			opts = append(opts, config.Binding{Value: 70})
		case ir.InputBool:
			opts = append(opts, config.Binding{Value: true}, config.Binding{Value: false})
		case ir.InputPhone, ir.InputContact:
			if len(sys.Phones) > 0 {
				opts = append(opts, config.Binding{Value: sys.Phones[0]})
			} else {
				opts = append(opts, config.Binding{Value: "5551230000"})
			}
		case ir.InputTime:
			opts = append(opts, config.Binding{Value: "22:00"})
		case ir.InputText:
			opts = append(opts, config.Binding{Value: "text"})
		default:
			opts = append(opts, config.Binding{})
		}
		dims = append(dims, choice{input: in, opts: opts})
	}

	out := []map[string]config.Binding{{}}
	for _, d := range dims {
		var next []map[string]config.Binding
		for _, base := range out {
			for _, o := range d.opts {
				nb := make(map[string]config.Binding, len(base)+1)
				for k, v := range base {
					nb[k] = v
				}
				nb[d.input.Name] = o
				next = append(next, nb)
				if len(next) >= limit*4 {
					break
				}
			}
		}
		out = next
		if len(out) > limit {
			out = out[:limit]
		}
	}
	return out
}

func devicesWithCapability(sys *config.System, capName string) []string {
	var out []string
	for _, d := range sys.Devices {
		if m := device.ModelByName(d.Model); m != nil && m.HasCapability(capName) {
			out = append(out, d.ID)
		}
	}
	return out
}
