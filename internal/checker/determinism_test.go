package checker_test

import (
	"runtime"
	"sort"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/props"
	"iotsan/internal/smartapp"
)

// corpusSystems builds three small corpus deployments spanning the main
// violation classes: an unsafe physical state (Fig. 7's unlocked main
// door while away), heater/AC command conflicts on a shared outlet, and
// repeated lighting commands.
func corpusSystems() map[string]*config.System {
	return map[string]*config.System{
		"alice-home": {
			Name: "alice-home", Modes: []string{"Home", "Away", "Night"}, Mode: "Home",
			Devices: []config.Device{
				{ID: "alicePresence", Label: "Alice's Presence", Model: "Presence Sensor"},
				{ID: "doorLock", Label: "Door Lock", Model: "Smart Lock", Association: "main door"},
			},
			Apps: []config.AppInstance{
				{App: "Auto Mode Change", Bindings: map[string]config.Binding{
					"people":   {DeviceIDs: []string{"alicePresence"}},
					"awayMode": {Value: "Away"},
					"homeMode": {Value: "Home"},
				}},
				{App: "Unlock Door", Bindings: map[string]config.Binding{
					"lock1": {DeviceIDs: []string{"doorLock"}},
				}},
			},
		},
		"thermo": {
			Name: "thermo", Modes: []string{"Home", "Away", "Night"}, Mode: "Home",
			Devices: []config.Device{
				{ID: "tempSensor", Label: "Living Room Temp", Model: "Temperature Sensor"},
				{ID: "heaterOutlet", Label: "Heater Outlet", Model: "Smart Power Outlet", Association: props.RoleHeater},
				{ID: "acOutlet", Label: "AC Outlet", Model: "Smart Power Outlet", Association: props.RoleAC},
			},
			Apps: []config.AppInstance{
				{App: "It's Too Cold", Bindings: map[string]config.Binding{
					"temperatureSensor1": {DeviceIDs: []string{"tempSensor"}},
					"temperature1":       {Value: 75},
					"heaterOutlet":       {DeviceIDs: []string{"heaterOutlet"}},
				}},
				{App: "It's Too Hot", Bindings: map[string]config.Binding{
					"temperatureSensor1": {DeviceIDs: []string{"tempSensor"}},
					"temperature1":       {Value: 75},
					"acOutlet":           {DeviceIDs: []string{"heaterOutlet"}},
				}},
			},
		},
		"lights": {
			Name: "lights", Modes: []string{"Home", "Away", "Night"}, Mode: "Home",
			Devices: []config.Device{
				{ID: "frontContact", Label: "Front Door Contact", Model: "Contact Sensor"},
				{ID: "luxSensor", Label: "Hallway Lux", Model: "Illuminance Sensor"},
				{ID: "hallBulb", Label: "Hall Bulb", Model: "Smart Bulb"},
			},
			Apps: []config.AppInstance{
				{App: "Brighten Dark Places", Bindings: map[string]config.Binding{
					"contact1":   {DeviceIDs: []string{"frontContact"}},
					"luminance1": {DeviceIDs: []string{"luxSensor"}},
					"switches":   {DeviceIDs: []string{"hallBulb"}},
				}},
				{App: "Let There Be Dark!", Bindings: map[string]config.Binding{
					"contact1": {DeviceIDs: []string{"frontContact"}},
					"switches": {DeviceIDs: []string{"hallBulb"}},
				}},
			},
		},
	}
}

func translateInstalled(t *testing.T, sys *config.System) map[string]*ir.App {
	t.Helper()
	out := map[string]*ir.App{}
	for _, inst := range sys.Apps {
		src, ok := corpus.ByName(inst.App)
		if !ok {
			t.Fatalf("unknown corpus app %q", inst.App)
		}
		app, err := smartapp.Translate(src.Groovy)
		if err != nil {
			t.Fatalf("translate %q: %v", inst.App, err)
		}
		out[inst.App] = app
	}
	return out
}

// distinctViolations returns the sorted property+detail keys of a run.
func distinctViolations(res *checker.Result) []string {
	var keys []string
	for _, f := range res.Violations {
		keys = append(keys, f.Property+": "+f.Detail)
	}
	sort.Strings(keys)
	return keys
}

// TestStealDeterminismOnCorpus: with Workers = GOMAXPROCS the steal
// strategy reports the identical distinct-violation set (and state
// count) as sequential DFS on three hand-configured corpus systems.
func TestStealDeterminismOnCorpus(t *testing.T) {
	const maxEvents = 2
	sawViolation := false
	for name, sys := range corpusSystems() {
		apps := translateInstalled(t, sys)
		invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := model.New(sys, apps, model.Options{
			MaxEvents:      maxEvents,
			CheckConflicts: true,
			Invariants:     invs,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		opts := checker.Options{MaxDepth: maxEvents + 64}
		seq := checker.Run(m.System(), opts)

		opts.Strategy = checker.StrategySteal
		opts.Workers = runtime.GOMAXPROCS(0)
		st := checker.Run(m.System(), opts)

		if seq.Truncated || st.Truncated {
			t.Fatalf("%s: unexpected truncation (seq=%v steal=%v)", name, seq.Truncated, st.Truncated)
		}
		got, want := distinctViolations(st), distinctViolations(seq)
		if len(got) != len(want) {
			t.Errorf("%s: steal found %d distinct violations, dfs %d\nsteal: %v\ndfs: %v",
				name, len(got), len(want), got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: violation sets differ at %d: steal %q vs dfs %q", name, i, got[i], want[i])
			}
		}
		if st.StatesExplored != seq.StatesExplored {
			t.Errorf("%s: steal explored %d states, dfs %d", name, st.StatesExplored, seq.StatesExplored)
		}
		if len(want) > 0 {
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Error("no corpus system produced a violation — the determinism check is vacuous")
	}
}
