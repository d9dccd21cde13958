package model

import (
	"strings"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/ir"
	"iotsan/internal/smartapp"
)

func translate(t *testing.T, names ...string) map[string]*ir.App {
	t.Helper()
	out := map[string]*ir.App{}
	for _, n := range names {
		app, err := smartapp.Translate(corpus.MustSource(n))
		if err != nil {
			t.Fatalf("translate %s: %v", n, err)
		}
		out[n] = app
	}
	return out
}

// aliceSystem is the paper's running example (§8 "Example"): a smart
// lock on the main door, Alice's presence sensor, and the apps Auto Mode
// Change and Unlock Door.
func aliceSystem() *config.System {
	return &config.System{
		Name:  "alice-home",
		Modes: []string{"Home", "Away", "Night"},
		Mode:  "Home",
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
	}
}

// doorUnlockedWhenAway is the Fig. 7 assertion over cfg's devices,
// G (anyone_home || !main_door_unlocked): the main door must not be
// unlocked while no one is at home.
func doorUnlockedWhenAway(t *testing.T, cfg *config.System) Invariant {
	t.Helper()
	plan, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	present, _ := EnumRefs(plan.ByCapability("presenceSensor"), "presence", "present")
	unlocked, _ := EnumRefs(plan.ByAssociation("main door"), "lock", "unlocked")
	table, err := plan.NewAtomTable([]Atom{anyEqAtom("anyone_home", present), anyEqAtom("main_door_unlocked", unlocked)})
	if err != nil {
		t.Fatal(err)
	}
	return Invariant{
		ID:          "lock.main-door-when-away",
		Description: "The main door should be locked when no one is at home",
		Atoms:       table,
		Over:        func(w uint64) bool { return w&1 != 0 || w&2 == 0 },
	}
}

// TestFigure7Violation reproduces the paper's §8 example end to end:
// Alice leaves → Auto Mode Change sets Away → Unlock Door unlocks on the
// mode change → unsafe state.
func TestFigure7Violation(t *testing.T) {
	apps := translate(t, "Auto Mode Change", "Unlock Door")
	m, err := New(aliceSystem(), apps, Options{
		MaxEvents:  2,
		Invariants: []Invariant{doorUnlockedWhenAway(t, aliceSystem())},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := checker.Run(m.System(), checker.Options{MaxDepth: 8})
	if !res.HasViolation("lock.main-door-when-away") {
		t.Fatalf("expected main-door violation; got %v (states=%d)",
			res.PropertyIDs(), res.StatesExplored)
	}

	// The counter-example trail must show the causal chain of Fig. 7.
	var found *checker.Found
	for i := range res.Violations {
		if res.Violations[i].Property == "lock.main-door-when-away" {
			found = &res.Violations[i]
			break
		}
	}
	trail := checker.FormatTrail(*found)
	for _, want := range []string{
		"presence = not present",
		"location.mode = Away",
		"Unlock Door.changedLocationMode",
		"lock = unlocked",
	} {
		if !strings.Contains(trail, want) {
			t.Errorf("trail missing %q:\n%s", want, trail)
		}
	}
}

// TestConflictingCommands reproduces Table 5's conflicting-commands
// example: Brighten Dark Places turns the light on when the door opens
// in the dark, while Let There Be Dark turns it off on the same event.
func TestConflictingCommands(t *testing.T) {
	apps := translate(t, "Brighten Dark Places", "Let There Be Dark!")
	m, err := New(conflictSystem(), apps, Options{MaxEvents: 3, CheckConflicts: true})
	if err != nil {
		t.Fatal(err)
	}
	res := checker.Run(m.System(), checker.Options{MaxDepth: 8})
	if !res.HasViolation(PropConflicting) {
		t.Fatalf("expected conflicting-commands; got %v", res.PropertyIDs())
	}
}

// conflictSystem installs two apps that answer the front door opening
// with opposite commands to one light.
func conflictSystem() *config.System {
	return &config.System{
		Name: "conflict-home",
		Devices: []config.Device{
			{ID: "frontDoor", Label: "Front Door", Model: "Contact Sensor"},
			{ID: "lux", Label: "Hallway Light Sensor", Model: "Illuminance Sensor"},
			{ID: "hallLight", Label: "Hallway Light", Model: "Smart Bulb"},
		},
		Apps: []config.AppInstance{
			{App: "Brighten Dark Places", Bindings: map[string]config.Binding{
				"contact1":   {DeviceIDs: []string{"frontDoor"}},
				"luminance1": {DeviceIDs: []string{"lux"}},
				"switches":   {DeviceIDs: []string{"hallLight"}},
			}},
			{App: "Let There Be Dark!", Bindings: map[string]config.Binding{
				"contact1": {DeviceIDs: []string{"frontDoor"}},
				"switches": {DeviceIDs: []string{"hallLight"}},
			}},
		},
	}
}

// TestRepeatedCommands: two apps both turning the same light on for the
// same event class.
func TestRepeatedCommands(t *testing.T) {
	apps := translate(t, "Big Turn On", "Make It So")
	apps2 := translate(t, "Auto Mode Change")
	for k, v := range apps2 {
		apps[k] = v
	}
	cfg := &config.System{
		Name:  "repeat-home",
		Modes: []string{"Home", "Away"},
		Devices: []config.Device{
			{ID: "light", Label: "Light", Model: "Smart Switch"},
			{ID: "lock", Label: "Lock", Model: "Smart Lock"},
			{ID: "pres", Label: "Pres", Model: "Presence Sensor"},
		},
		Apps: []config.AppInstance{
			{App: "Auto Mode Change", Bindings: map[string]config.Binding{
				"people":   {DeviceIDs: []string{"pres"}},
				"awayMode": {Value: "Away"},
				"homeMode": {Value: "Home"},
			}},
			{App: "Big Turn On", Bindings: map[string]config.Binding{
				"switches": {DeviceIDs: []string{"light"}},
			}},
			{App: "Make It So", Bindings: map[string]config.Binding{
				"switches": {DeviceIDs: []string{"light"}},
				"locks":    {DeviceIDs: []string{"lock"}},
			}},
		},
	}
	// Mode → Home: Make It So and Big Turn On both turn the light on →
	// repeated. Mode → Away: Make It So turns it off while Big Turn On
	// turns it on → conflicting.
	m, err := New(cfg, apps, Options{MaxEvents: 3, CheckConflicts: true})
	if err != nil {
		t.Fatal(err)
	}
	res := checker.Run(m.System(), checker.Options{MaxDepth: 10})
	if !res.HasViolation(PropRepeated) {
		t.Fatalf("expected repeated-commands; got %v", res.PropertyIDs())
	}
	if !res.HasViolation(PropConflicting) {
		t.Fatalf("expected conflicting-commands; got %v", res.PropertyIDs())
	}
}

// TestDeviceFailureViolation reproduces the Fig. 8b class of violations:
// with failure enumeration on, Make It So's lock command is lost and the
// door stays unlocked in Away mode.
func TestDeviceFailureViolation(t *testing.T) {
	apps := translate(t, "Auto Mode Change", "Make It So")
	cfg := aliceSystem()
	cfg.Apps[1] = config.AppInstance{App: "Make It So", Bindings: map[string]config.Binding{
		"locks": {DeviceIDs: []string{"doorLock"}},
	}}
	inv := doorUnlockedWhenAway(t, cfg)
	// Without failures: Make It So locks the door on Away → no violation.
	m, err := New(cfg, apps, Options{MaxEvents: 3, Invariants: []Invariant{inv}})
	if err != nil {
		t.Fatal(err)
	}
	res := checker.Run(m.System(), checker.Options{MaxDepth: 8})
	if res.HasViolation("lock.main-door-when-away") {
		t.Fatalf("unexpected violation without failures: %v", res.PropertyIDs())
	}

	// With failures: the lock command can be lost → violation; and the
	// app sends no notification → robustness violation.
	m2, err := New(cfg, apps, Options{
		MaxEvents: 3, Failures: true, CheckRobustness: true,
		Invariants: []Invariant{inv},
	})
	if err != nil {
		t.Fatal(err)
	}
	res2 := checker.Run(m2.System(), checker.Options{MaxDepth: 8})
	if !res2.HasViolation("lock.main-door-when-away") {
		t.Errorf("expected failure-induced violation; got %v", res2.PropertyIDs())
	}
	if !res2.HasViolation(PropRobustness) {
		t.Errorf("expected robustness violation; got %v", res2.PropertyIDs())
	}
}

// TestSequentialVsConcurrentFindSameViolations checks the §8 claim the
// design choice rests on: the sequential design discovers the violations
// the concurrent one finds.
func TestSequentialVsConcurrentFindSameViolations(t *testing.T) {
	apps := translate(t, "Auto Mode Change", "Unlock Door")
	for _, design := range []Design{Sequential, Concurrent} {
		m, err := New(aliceSystem(), apps, Options{
			Design: design, MaxEvents: 2,
			Invariants: []Invariant{doorUnlockedWhenAway(t, aliceSystem())},
		})
		if err != nil {
			t.Fatal(err)
		}
		res := checker.Run(m.System(), checker.Options{MaxDepth: 32})
		if !res.HasViolation("lock.main-door-when-away") {
			t.Errorf("%v design missed the violation: %v", design, res.PropertyIDs())
		}
	}
}

// TestConcurrentExploresMoreStates: the concurrent design explores
// (many) more states for the same system and event budget (Table 7b's
// cause).
func TestConcurrentExploresMoreStates(t *testing.T) {
	apps := translate(t, "Auto Mode Change", "Unlock Door", "Big Turn On")
	cfg := aliceSystem()
	cfg.Devices = append(cfg.Devices, config.Device{ID: "sw1", Label: "Switch 1", Model: "Smart Switch"})
	cfg.Apps = append(cfg.Apps, config.AppInstance{App: "Big Turn On",
		Bindings: map[string]config.Binding{"switches": {DeviceIDs: []string{"sw1"}}}})

	states := map[Design]int{}
	for _, design := range []Design{Sequential, Concurrent} {
		m, err := New(cfg, apps, Options{Design: design, MaxEvents: 3})
		if err != nil {
			t.Fatal(err)
		}
		res := checker.Run(m.System(), checker.Options{MaxDepth: 64, MaxStates: 2_000_000})
		states[design] = res.StatesExplored
	}
	if states[Concurrent] <= states[Sequential] {
		t.Errorf("concurrent (%d states) should explore more than sequential (%d)",
			states[Concurrent], states[Sequential])
	}
}

// TestTimerFires: Light Follows Me's runIn callback turns the light off
// after motion stops — some reachable timer firing takes the light from
// on to off.
func TestTimerFires(t *testing.T) {
	apps := translate(t, "Light Follows Me")
	cfg := &config.System{
		Name: "timer-home",
		Devices: []config.Device{
			{ID: "motion1", Label: "Motion", Model: "Motion Sensor"},
			{ID: "light", Label: "Light", Model: "Smart Switch"},
		},
		Apps: []config.AppInstance{
			{App: "Light Follows Me", Bindings: map[string]config.Binding{
				"motion1":  {DeviceIDs: []string{"motion1"}},
				"minutes1": {Value: 10},
				"switches": {DeviceIDs: []string{"light"}},
			}},
		},
	}
	m, err := New(cfg, apps, Options{MaxEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	light := func(s *State) string {
		v, _ := m.AttrValue(s, 1, "switch")
		return v.S
	}
	init := m.Initial()
	seen := map[string]bool{string(init.Encode(nil)): true}
	for queue := []*State{init}; len(queue) > 0; queue = queue[1:] {
		s := queue[0]
		for _, tr := range m.Expand(s) {
			next := tr.Next.(*State)
			if strings.HasPrefix(tr.Label, "timer: Light Follows Me.") && light(s) == "on" && light(next) == "off" {
				return
			}
			if key := string(next.Encode(nil)); !seen[key] {
				seen[key] = true
				queue = append(queue, next)
			}
		}
	}
	t.Errorf("no timer firing over %d states turns the light off", len(seen))
}

// TestStateEncodeDeterminism: the state vector encoding must be stable
// across Clone (hashing correctness).
func TestStateEncodeDeterminism(t *testing.T) {
	apps := translate(t, "Auto Mode Change", "Unlock Door")
	m, err := New(aliceSystem(), apps, Options{MaxEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Initial()
	s.Apps[0].KV = map[string]ir.Value{"b": ir.IntV(2), "a": ir.StrV("x"), "c": ir.BoolV(true)}
	e1 := s.Encode(nil)
	e2 := s.Clone().Encode(nil)
	if string(e1) != string(e2) {
		t.Error("encodings differ between state and clone")
	}
}

// TestEventSpacePruning: RelevantAttrs removes unobserved sensor events.
func TestEventSpacePruning(t *testing.T) {
	apps := translate(t, "Unlock Door")
	cfg := &config.System{
		Name: "prune-home",
		Devices: []config.Device{
			{ID: "lock1", Label: "Lock", Model: "Smart Lock"},
			{ID: "temp", Label: "Temp", Model: "Temperature Sensor"},
		},
		Apps: []config.AppInstance{
			{App: "Unlock Door", Bindings: map[string]config.Binding{
				"lock1": {DeviceIDs: []string{"lock1"}},
			}},
		},
	}
	all, err := New(cfg, apps, Options{MaxEvents: 1})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := New(cfg, apps, Options{MaxEvents: 1,
		RelevantAttrs: map[string]bool{"lock": true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.ExternalEvents()) >= len(all.ExternalEvents()) {
		t.Errorf("pruning did not shrink event space: %d vs %d",
			len(pruned.ExternalEvents()), len(all.ExternalEvents()))
	}
}
