package model

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/ir"
	"iotsan/internal/smartapp"
)

// symTestSystem installs the corpus symmetry group over three identical
// presence sensors and three identical entry contacts feeding a
// singleton light and lock — the canonical interchangeable-device
// deployment (mirrors experiments.SymmetrySystem, rebuilt here because
// the experiments package sits above model in the import graph).
func symTestSystem() *config.System {
	return &config.System{
		Name:  "sym-home",
		Modes: []string{"Home", "Away", "Night"},
		Mode:  "Home",
		Devices: []config.Device{
			{ID: "presA", Label: "Presence A", Model: "Presence Sensor"},
			{ID: "presB", Label: "Presence B", Model: "Presence Sensor"},
			{ID: "presC", Label: "Presence C", Model: "Presence Sensor"},
			{ID: "contactA", Label: "Door Contact A", Model: "Contact Sensor", Association: "entry contact"},
			{ID: "contactB", Label: "Door Contact B", Model: "Contact Sensor", Association: "entry contact"},
			{ID: "contactC", Label: "Door Contact C", Model: "Contact Sensor", Association: "entry contact"},
			{ID: "hallLight", Label: "Hall Light", Model: "Smart Bulb"},
			{ID: "frontLock", Label: "Front Door Lock", Model: "Smart Lock", Association: "main door"},
		},
		Apps: symTestApps(),
	}
}

func symTestApps() []config.AppInstance {
	people := config.Binding{DeviceIDs: []string{"presA", "presB", "presC"}}
	contacts := config.Binding{DeviceIDs: []string{"contactA", "contactB", "contactC"}}
	light := config.Binding{DeviceIDs: []string{"hallLight"}}
	lock := config.Binding{DeviceIDs: []string{"frontLock"}}
	return []config.AppInstance{
		{App: "Any Door Light On", Bindings: map[string]config.Binding{"contacts": contacts, "light": light}},
		{App: "Any Door Light Off", Bindings: map[string]config.Binding{"contacts": contacts, "light": light}},
		{App: "Arrival Hall Light", Bindings: map[string]config.Binding{"people": people, "light": light}},
		{App: "Last Out Lock", Bindings: map[string]config.Binding{"people": people, "lock1": lock}},
		{App: "First In Unlock", Bindings: map[string]config.Binding{"people": people, "lock1": lock}},
	}
}

func symTestModel(t *testing.T, opts Options) *Model {
	t.Helper()
	apps := translate(t, "Any Door Light On", "Any Door Light Off",
		"Arrival Hall Light", "Last Out Lock", "First In Unlock")
	opts.Symmetry = true
	if opts.MaxEvents == 0 {
		opts.MaxEvents = 2
	}
	opts.CheckConflicts = true
	m, err := New(symTestSystem(), apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSymmetryOrbits: the interchangeable-device deployment yields
// exactly two orbits — the three presence sensors and the three entry
// contacts — while the singleton light and lock stay out.
func TestSymmetryOrbits(t *testing.T) {
	m := symTestModel(t, Options{})
	st := m.SymmetryStats()
	if st.Orbits != 2 || st.Devices != 6 || st.Largest != 3 {
		t.Fatalf("orbits=%d devices=%d largest=%d, want 2/6/3 (orbits: %v)",
			st.Orbits, st.Devices, st.Largest, m.DeviceOrbits())
	}
	orbits := m.DeviceOrbits()
	want := [][]int{{0, 1, 2}, {3, 4, 5}}
	for i, o := range orbits {
		if fmt.Sprint(o) != fmt.Sprint(want[i]) {
			t.Errorf("orbit %d = %v, want %v", i, o, want[i])
		}
	}
}

// TestSymmetryOrbitSplits: devices must not share an orbit when any
// statically checkable interchangeability condition fails — differing
// initial state, differing association, asymmetric bindings, or an
// observing app whose footprint can distinguish the devices.
func TestSymmetryOrbitSplits(t *testing.T) {
	baseApps := func(t *testing.T) map[string]*ir.App {
		return translate(t, "Last Out Lock")
	}
	people3 := config.Binding{DeviceIDs: []string{"p1", "p2", "p3"}}
	lock := config.Binding{DeviceIDs: []string{"lk"}}
	devices := func(mut func(ds []config.Device)) []config.Device {
		ds := []config.Device{
			{ID: "p1", Label: "P1", Model: "Presence Sensor"},
			{ID: "p2", Label: "P2", Model: "Presence Sensor"},
			{ID: "p3", Label: "P3", Model: "Presence Sensor"},
			{ID: "lk", Label: "Lock", Model: "Smart Lock", Association: "main door"},
		}
		if mut != nil {
			mut(ds)
		}
		return ds
	}
	build := func(t *testing.T, ds []config.Device, apps map[string]*ir.App, insts []config.AppInstance) *Model {
		t.Helper()
		m, err := New(&config.System{
			Name: "split", Modes: []string{"Home", "Away"}, Mode: "Home",
			Devices: ds, Apps: insts,
		}, apps, Options{MaxEvents: 2, Symmetry: true})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	lastOut := []config.AppInstance{{App: "Last Out Lock",
		Bindings: map[string]config.Binding{"people": people3, "lock1": lock}}}

	t.Run("baseline-orbit-of-3", func(t *testing.T) {
		m := build(t, devices(nil), baseApps(t), lastOut)
		if st := m.SymmetryStats(); st.Largest != 3 {
			t.Fatalf("want an orbit of 3, got %+v", st)
		}
	})

	t.Run("initial-state-splits", func(t *testing.T) {
		m := build(t, devices(func(ds []config.Device) {
			ds[0].Initial = map[string]string{"presence": "not present"}
		}), baseApps(t), lastOut)
		if st := m.SymmetryStats(); st.Largest != 2 || st.Devices != 2 {
			t.Fatalf("want only p2/p3 interchangeable, got %+v (orbits %v)", st, m.DeviceOrbits())
		}
	})

	t.Run("association-splits", func(t *testing.T) {
		m := build(t, devices(func(ds []config.Device) {
			ds[1].Association = "courier"
		}), baseApps(t), lastOut)
		if st := m.SymmetryStats(); st.Largest != 2 || st.Devices != 2 {
			t.Fatalf("want only p1/p3 interchangeable, got %+v", st)
		}
	})

	t.Run("asymmetric-binding-splits", func(t *testing.T) {
		// p3 left out of the people list: its handler footprint (no
		// subscription, no binding) differs from p1/p2's.
		insts := []config.AppInstance{{App: "Last Out Lock", Bindings: map[string]config.Binding{
			"people": {DeviceIDs: []string{"p1", "p2"}}, "lock1": lock}}}
		m := build(t, devices(nil), baseApps(t), insts)
		if st := m.SymmetryStats(); st.Largest != 2 || st.Devices != 2 {
			t.Fatalf("want only p1/p2 interchangeable, got %+v", st)
		}
	})

	t.Run("identity-sensitive-app-splits", func(t *testing.T) {
		// An app that writes the triggering device's identity into
		// persistent state can distinguish the sensors: no orbit at all.
		src := `
definition(name: "Identity Tracker", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    state.lastPerson = evt.displayName
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Identity Tracker": app}
		insts := []config.AppInstance{{App: "Identity Tracker",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("identity-sensitive app must pin its devices to singletons, got %+v", st)
		}
	})

	t.Run("position-sensitive-app-splits", func(t *testing.T) {
		// sensors.first() extracts a position-determined device.
		src := `
definition(name: "First Sensor Gate", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def lead = people.first()
    if (lead.currentPresence == "present") { lock1.unlock() }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"First Sensor Gate": app}
		insts := []config.AppInstance{{App: "First Sensor Gate",
			Bindings: map[string]config.Binding{"people": people3, "lock1": lock}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("position-sensitive app must pin its devices to singletons, got %+v", st)
		}
	})

	t.Run("settings-qualified-indexing-splits", func(t *testing.T) {
		// settings.people[0] is the qualified spelling of people[0]; it
		// must not evade the position-sensitivity check.
		src := `
definition(name: "Settings Indexer", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    if (settings.people[0].currentPresence == "present") { lock1.unlock() }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Settings Indexer": app}
		insts := []config.AppInstance{{App: "Settings Indexer",
			Bindings: map[string]config.Binding{"people": people3, "lock1": lock}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("settings-qualified indexing must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("derived-list-indexing-splits", func(t *testing.T) {
		// Indexing the *result* of a list method on the device input
		// (findAll keeps binding order) must taint like the input itself.
		src := `
definition(name: "Derived Indexer", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def home = people.findAll { it.currentPresence == "present" }
    if (home[0]) { lock1.unlock() }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Derived Indexer": app}
		insts := []config.AppInstance{{App: "Derived Indexer",
			Bindings: map[string]config.Binding{"people": people3, "lock1": lock}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("derived-list indexing must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("chained-extraction-splits", func(t *testing.T) {
		// Inline chains must taint through every hop:
		// people.findAll{...}.first() extracts a position-determined
		// device without ever binding an intermediate local.
		src := `
definition(name: "Chain Extractor", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    if (people.findAll { it.currentPresence == "present" }.first()) { lock1.unlock() }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Chain Extractor": app}
		insts := []config.AppInstance{{App: "Chain Extractor",
			Bindings: map[string]config.Binding{"people": people3, "lock1": lock}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("chained extraction must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("list-stored-in-state-splits", func(t *testing.T) {
		// Storing the device list into persistent state lets another
		// handler read it back and index it — per-method analysis cannot
		// see that, so the store itself must defeat the certificate.
		src := `
definition(name: "List Stasher", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    state.saved = people
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"List Stasher": app}
		insts := []config.AppInstance{{App: "List Stasher",
			Bindings: map[string]config.Binding{"people": people3, "lock1": lock}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("device list stored in state must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("helper-returned-list-splits", func(t *testing.T) {
		// A helper returning the device list must carry the taint to its
		// call sites: ppl()[0] is people[0].
		src := `
definition(name: "Helper Indexer", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def ppl() { return people }
def presenceHandler(evt) {
    if (ppl()[0].currentPresence == "present") { lock1.unlock() }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Helper Indexer": app}
		insts := []config.AppInstance{{App: "Helper Indexer",
			Bindings: map[string]config.Binding{"people": people3, "lock1": lock}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("helper-returned list indexing must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("closure-element-sink-splits", func(t *testing.T) {
		// Iteration binds list elements to the closure param; writing
		// element-derived data to state is last-writer order-dependent.
		src := `
definition(name: "Element Stasher", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    people.each { state.last = it.currentPresence }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Element Stasher": app}
		insts := []config.AppInstance{{App: "Element Stasher",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("closure-element state write must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("argument-derived-list-splits", func(t *testing.T) {
		// The device list flowing through a call *argument*
		// (l.plus(people)) must taint the result like a receiver would.
		src := `
definition(name: "Arg Deriver", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def l = []
    l = l.plus(people)
    state.who = l[0].currentPresence
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Arg Deriver": app}
		insts := []config.AppInstance{{App: "Arg Deriver",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("argument-derived list indexing must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("logged-indexing-keeps-orbit", func(t *testing.T) {
		// Indexing inside a log argument is discarded by the model host:
		// it must NOT dissolve the orbit (fold-quality guard).
		src := `
definition(name: "Log Indexer", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    log.debug "first: ${people[0].currentPresence}"
    lock1.lock()
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Log Indexer": app}
		insts := []config.AppInstance{{App: "Log Indexer",
			Bindings: map[string]config.Binding{"people": people3, "lock1": lock}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Largest != 3 {
			t.Fatalf("log-only indexing must keep the orbit, got %+v", st)
		}
	})

	t.Run("forin-element-sink-splits", func(t *testing.T) {
		// for (p in people) binds elements like an .each closure param;
		// the loop-variable taint must not be the closure path's alone.
		src := `
definition(name: "ForIn Stasher", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    for (p in people) { state.last = p.currentPresence }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"ForIn Stasher": app}
		insts := []config.AppInstance{{App: "ForIn Stasher",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("for-in element state write must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("map-wrapped-element-sink-splits", func(t *testing.T) {
		// Wrapping element data in a map literal must not launder taint.
		src := `
definition(name: "Map Wrapper", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    people.each { state.x = [v: it.currentPresence] }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Map Wrapper": app}
		insts := []config.AppInstance{{App: "Map Wrapper",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("map-wrapped element sink must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("late-taint-in-loop-body-splits", func(t *testing.T) {
		// Iteration feeds later assignments into earlier statements on
		// the next pass: the walk must reach a taint fixpoint.
		src := `
definition(name: "Prev Writer", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def prev = null
    people.each {
        state.last = prev
        prev = it.currentPresence
    }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Prev Writer": app}
		insts := []config.AppInstance{{App: "Prev Writer",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("late-tainted loop-body sink must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("index-form-state-write-splits", func(t *testing.T) {
		// state["last"] = … is the index spelling of state.last = …
		src := `
definition(name: "Index Writer", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    people.each { state["last"] = it.currentPresence }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Index Writer": app}
		insts := []config.AppInstance{{App: "Index Writer",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("index-form state write must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("state-map-put-splits", func(t *testing.T) {
		// state.m.put(k, v) mutates persistent state in place: the
		// arguments are a sink without any assignment statement.
		src := `
definition(name: "Map Putter", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { state.m = [:]; subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    people.each { state.m.put("last", it.currentPresence) }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Map Putter": app}
		insts := []config.AppInstance{{App: "Map Putter",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("state-map put must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("nested-loop-fixpoint-splits", func(t *testing.T) {
		// An inner iteration must not clear the outer fixpoint's
		// progress: the late-tainted local still reaches the sink.
		src := `
definition(name: "Nested Looper", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def copyv = null
    people.each { p ->
        state.snap = copyv
        copyv = p.currentPresence
        people.each { q -> def z = 1 }
    }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Nested Looper": app}
		insts := []config.AppInstance{{App: "Nested Looper",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("nested-loop late taint must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("while-loop-carried-taint-splits", func(t *testing.T) {
		// Loop-carried taint through a while body (no element binding)
		// still needs the method-level fixpoint.
		src := `
definition(name: "While Carrier", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def zzz = null
    def i = 0
    while (i < 2) {
        state.s = zzz
        zzz = pickv()
        i = i + 1
    }
}
def pickv() { return people }
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"While Carrier": app}
		insts := []config.AppInstance{{App: "While Carrier",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("while-carried taint must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("deep-alias-chain-splits", func(t *testing.T) {
		// A reversed alias chain needs one fixpoint pass per hop; deep
		// chains must converge (or refuse the certificate), not
		// silently under-approximate.
		src := `
definition(name: "Chain Carrier", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def a1 = null
    def b1 = null
    def c1 = null
    def d1 = null
    def e1 = null
    people.each { p ->
        state.snap = e1
        e1 = d1
        d1 = c1
        c1 = b1
        b1 = a1
        a1 = p.currentPresence
    }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Chain Carrier": app}
		insts := []config.AppInstance{{App: "Chain Carrier",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("deep alias chain must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("helper-param-sink-splits", func(t *testing.T) {
		// A device list passed into a helper parameter must taint the
		// parameter inside the helper body.
		src := `
definition(name: "Param Router", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) { stash(people) }
def stash(lst) { state.first = lst[0].currentPresence }
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Param Router": app}
		insts := []config.AppInstance{{App: "Param Router",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("helper-parameter sink must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("helper-in-log-arg-splits", func(t *testing.T) {
		// A helper invoked inside a log argument still performs real
		// state writes: suppression must not leak into its body.
		src := `
definition(name: "Log Helper", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) { log.debug stamp() }
def stamp() {
    state.who = people[0].currentPresence
    return "x"
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Log Helper": app}
		insts := []config.AppInstance{{App: "Log Helper",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("state write inside log-invoked helper must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("helper-return-into-state-splits", func(t *testing.T) {
		// state.x = helper() where the helper returns list-derived data:
		// the sink check is value-level, so the call-site flags it.
		src := `
definition(name: "Return Stasher", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) { state.all = snapshot() }
def snapshot() { return people.collect { it.currentPresence } }
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Return Stasher": app}
		insts := []config.AppInstance{{App: "Return Stasher",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("helper-return state write must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("element-via-local-sink-splits", func(t *testing.T) {
		// Element-derived data routed through a local before the state
		// write must still taint (last-writer order dependence).
		src := `
definition(name: "Local Router", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def v = "none"
    people.each { v = it.currentPresence }
    state.x = v
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Local Router": app}
		insts := []config.AppInstance{{App: "Local Router",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("element-via-local state write must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("ordered-aggregate-comparison-splits", func(t *testing.T) {
		// Branching on an order-folded aggregate (collect{…}.join())
		// observes list order even without a state write.
		src := `
definition(name: "Join Gate", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    if (people.collect { it.currentPresence }.join() == "presentnot presentnot present") {
        lock1.unlock()
    }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Join Gate": app}
		insts := []config.AppInstance{{App: "Join Gate",
			Bindings: map[string]config.Binding{"people": people3, "lock1": lock}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("ordered-aggregate comparison must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("multiset-aggregates-keep-orbit", func(t *testing.T) {
		// any{}/count{}/size() are permutation-invariant: the ubiquitous
		// anyone-home pattern must keep its orbit (fold-quality guard).
		src := `
definition(name: "Multiset User", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def anyoneHome = people.any { it.currentPresence == "present" }
    def homeCount = people.count { it.currentPresence == "present" }
    if (!anyoneHome && homeCount == 0) { lock1.lock() }
    state.count = homeCount
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Multiset User": app}
		insts := []config.AppInstance{{App: "Multiset User",
			Bindings: map[string]config.Binding{"people": people3, "lock1": lock}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Largest != 3 {
			t.Fatalf("multiset aggregates must keep the orbit, got %+v", st)
		}
	})

	t.Run("shadowed-evt-param-splits", func(t *testing.T) {
		// A closure param shadowing the handler's event parameter is a
		// device element: its .name is identity, not the attribute name.
		src := `
definition(name: "Shadow Namer", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    people.each { evt -> state.x = evt.name }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Shadow Namer": app}
		insts := []config.AppInstance{{App: "Shadow Namer",
			Bindings: map[string]config.Binding{"people": people3}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("shadowed event param identity read must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("network-id-branching-splits", func(t *testing.T) {
		// deviceNetworkId resolves to per-device identity at runtime;
		// branching on it must defeat the certificate (while evt.name —
		// the attribute name — must not, covered by the baseline case
		// whose corpus apps read evt.value).
		src := `
definition(name: "NetId Gate", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    if (evt.device.deviceNetworkId == "dev-0") { lock1.unlock() }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"NetId Gate": app}
		insts := []config.AppInstance{{App: "NetId Gate",
			Bindings: map[string]config.Binding{"people": people3, "lock1": lock}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("deviceNetworkId branching must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("property-form-first-splits", func(t *testing.T) {
		// people.first (property form, no parens) extracts the
		// position-determined element just like people.first().
		src := `
definition(name: "Property First", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Lock") { input "lock1", "capability.lock" }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    def lead = people.first
    if (lead.currentPresence == "present") { lock1.unlock() }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps := map[string]*ir.App{"Property First": app}
		insts := []config.AppInstance{{App: "Property First",
			Bindings: map[string]config.Binding{"people": people3, "lock1": lock}}}
		m := build(t, devices(nil), apps, insts)
		if st := m.SymmetryStats(); st.Orbits != 0 {
			t.Fatalf("property-form first must pin devices to singletons, got %+v", st)
		}
	})

	t.Run("command-capable-devices-split", func(t *testing.T) {
		// Identical switches never orbit even under a symmetric app:
		// command-log violation details name the commanded device, so a
		// fold could drop label-distinct reports.
		src := `
definition(name: "All Off", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("Switches") { input "switches", "capability.switch", multiple: true }
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", presenceHandler) }
def updated() { unsubscribe(); subscribe(people, "presence", presenceHandler) }
def presenceHandler(evt) {
    switches.off()
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		ds := append(devices(nil),
			config.Device{ID: "sw1", Label: "SW1", Model: "Smart Switch"},
			config.Device{ID: "sw2", Label: "SW2", Model: "Smart Switch"},
			config.Device{ID: "sw3", Label: "SW3", Model: "Smart Switch"})
		apps := map[string]*ir.App{"All Off": app}
		insts := []config.AppInstance{{App: "All Off", Bindings: map[string]config.Binding{
			"people":   people3,
			"switches": {DeviceIDs: []string{"sw1", "sw2", "sw3"}}}}}
		m := build(t, ds, apps, insts)
		st := m.SymmetryStats()
		if st.Orbits != 1 || st.Largest != 3 {
			t.Fatalf("want exactly the presence orbit, got %+v (orbits %v)", st, m.DeviceOrbits())
		}
		for _, o := range m.DeviceOrbits() {
			for _, d := range o {
				if d > 2 {
					t.Fatalf("command-capable device %d landed in an orbit: %v", d, m.DeviceOrbits())
				}
			}
		}
	})
}

// symSampleStates collects a deterministic sample of reachable states
// by breadth-first expansion.
func symSampleStates(m *Model, limit int) []*State {
	states := []*State{m.Initial()}
	for i := 0; i < len(states) && len(states) < limit; i++ {
		for _, tr := range m.Expand(states[i]) {
			if len(states) >= limit {
				break
			}
			states = append(states, tr.Next.(*State))
		}
	}
	return states
}

// TestCanonicalizeIdempotent: canon(canon(s)) == canon(s), and the
// materialized representative encodes exactly to the direct canonical
// encoding (the differential check between the two canonical paths).
func TestCanonicalizeIdempotent(t *testing.T) {
	m := symTestModel(t, Options{Design: Concurrent})
	for i, s := range symSampleStates(m, 300) {
		direct := m.CanonicalEncode(s, nil)
		rep := m.Canonicalize(s)
		if got := rep.Encode(nil); !bytes.Equal(got, direct) {
			t.Fatalf("state %d: Canonicalize(s).Encode differs from CanonicalEncode(s)", i)
		}
		if got := m.CanonicalEncode(rep, nil); !bytes.Equal(got, direct) {
			t.Fatalf("state %d: canonical encode not idempotent", i)
		}
		rep2 := m.Canonicalize(rep)
		if got := rep2.Encode(nil); !bytes.Equal(got, direct) {
			t.Fatalf("state %d: Canonicalize not idempotent", i)
		}
	}
}

// TestCanonicalPermutationInvariance: fuzz over random within-orbit
// permutations — the canonical encoding of the permuted image must
// equal the canonical encoding of the original, and raw encodings must
// differ whenever the permutation actually moved distinguishable state
// (folding is exactly the orbit quotient).
func TestCanonicalPermutationInvariance(t *testing.T) {
	m := symTestModel(t, Options{Design: Concurrent})
	orbits := m.DeviceOrbits()
	if len(orbits) == 0 {
		t.Fatal("no orbits — fuzz is vacuous")
	}
	rng := rand.New(rand.NewSource(1))
	states := symSampleStates(m, 200)
	for i, s := range states {
		for round := 0; round < 4; round++ {
			perm := make([]int, len(m.Devices))
			for d := range perm {
				perm[d] = d
			}
			for _, o := range orbits {
				shuffled := append([]int(nil), o...)
				rng.Shuffle(len(shuffled), func(a, b int) {
					shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
				})
				for k, d := range o {
					perm[d] = shuffled[k]
				}
			}
			img, ok := m.ApplyDevicePermutation(s, perm)
			if !ok {
				t.Fatalf("state %d: permutation %v rejected", i, perm)
			}
			a := m.CanonicalEncode(s, nil)
			b := m.CanonicalEncode(img, nil)
			if !bytes.Equal(a, b) {
				t.Fatalf("state %d round %d: canonical encodings differ under orbit permutation %v",
					i, round, perm)
			}
		}
	}
}

// TestApplyDevicePermutationRejectsCrossOrbit: permutations that move a
// device out of its orbit (or touch a singleton) are not group members.
func TestApplyDevicePermutationRejectsCrossOrbit(t *testing.T) {
	m := symTestModel(t, Options{})
	s := m.Initial()
	perm := make([]int, len(m.Devices))
	for d := range perm {
		perm[d] = d
	}
	perm[0], perm[3] = 3, 0 // presence ↔ contact: cross-orbit
	if _, ok := m.ApplyDevicePermutation(s, perm); ok {
		t.Fatal("cross-orbit permutation accepted")
	}
	perm[0], perm[3] = 0, 3
	perm[6], perm[7] = 7, 6 // light ↔ lock: singletons
	if _, ok := m.ApplyDevicePermutation(s, perm); ok {
		t.Fatal("singleton-moving permutation accepted")
	}
}

// TestSymmetryOffIsRaw: without Options.Symmetry (or with no orbits)
// CanonicalEncode is byte-for-byte the raw encoding.
func TestSymmetryOffIsRaw(t *testing.T) {
	apps := translate(t, "Last Out Lock")
	m, err := New(&config.System{
		Name: "plain", Modes: []string{"Home"}, Mode: "Home",
		Devices: []config.Device{
			{ID: "p1", Label: "P1", Model: "Presence Sensor"},
			{ID: "lk", Label: "Lock", Model: "Smart Lock"},
		},
		Apps: []config.AppInstance{{App: "Last Out Lock", Bindings: map[string]config.Binding{
			"people": {DeviceIDs: []string{"p1"}}, "lock1": {DeviceIDs: []string{"lk"}}}}},
	}, apps, Options{MaxEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Initial()
	if !bytes.Equal(m.CanonicalEncode(s, nil), s.Encode(nil)) {
		t.Fatal("CanonicalEncode without a symmetry table must be the raw encoding")
	}
}

// TestSymmetryStoredRefTieBreak is the regression gate for the
// reference-counting tie-break in orbit ordering: two states that
// differ only in WHICH orbit member an app's stored VDevice reference
// names are images of each other under a transposition, so they must
// fold to one canonical key — which requires the device profiles to
// account for who points at whom (without reference items the orbit
// sort is blind to the reference, keeps identity order for both
// states, and the canonical encodings soundly-but-wastefully differ).
// A stored reference must still split from no reference at all.
func TestSymmetryStoredRefTieBreak(t *testing.T) {
	for _, inc := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", inc), func(t *testing.T) {
			m := symTestModel(t, Options{Design: Concurrent, Incremental: inc})
			base := m.Initial()
			withRef := func(v ir.Value) *State {
				s := base.Clone()
				s.Apps[0].KV = map[string]ir.Value{"buddy": v}
				s.MarkAllDirty()
				return s
			}
			// Devices 0..2 are the presence-sensor orbit.
			sA, sB := withRef(ir.DeviceV(0)), withRef(ir.DeviceV(1))
			if !bytes.Equal(m.CanonicalEncode(sA, nil), m.CanonicalEncode(sB, nil)) {
				t.Error("states differing only in the referenced orbit member did not fold")
			}
			if bytes.Equal(m.CanonicalEncode(sA, nil), m.CanonicalEncode(base, nil)) {
				t.Error("a stored device reference folded onto the reference-free state")
			}
			// Same via a nested reference (list-wrapped), exercising the
			// recursive walk.
			nA := withRef(ir.DevicesV([]ir.Value{ir.DeviceV(2)}))
			nB := withRef(ir.DevicesV([]ir.Value{ir.DeviceV(0)}))
			if !bytes.Equal(m.CanonicalEncode(nA, nil), m.CanonicalEncode(nB, nil)) {
				t.Error("nested orbit references did not fold")
			}
			if bytes.Equal(m.CanonicalEncode(nA, nil), m.CanonicalEncode(sA, nil)) {
				t.Error("a nested reference folded onto a direct reference")
			}
			// Two references to distinct members fold with any other
			// two-distinct-member pair but not with a doubled reference.
			dAB := withRef(ir.DevicesV([]ir.Value{ir.DeviceV(0), ir.DeviceV(1)}))
			dBC := withRef(ir.DevicesV([]ir.Value{ir.DeviceV(1), ir.DeviceV(2)}))
			dAA := withRef(ir.DevicesV([]ir.Value{ir.DeviceV(0), ir.DeviceV(0)}))
			if !bytes.Equal(m.CanonicalEncode(dAB, nil), m.CanonicalEncode(dBC, nil)) {
				t.Error("distinct-member reference pairs did not fold")
			}
			if bytes.Equal(m.CanonicalEncode(dAB, nil), m.CanonicalEncode(dAA, nil)) {
				t.Error("a doubled reference folded onto a distinct-member pair")
			}
			// The fold agrees with the group action on every sampled state:
			// permutation invariance with stashed references in play.
			orbits := m.DeviceOrbits()
			perm := make([]int, len(m.Devices))
			for d := range perm {
				perm[d] = d
			}
			o := orbits[0]
			perm[o[0]], perm[o[1]] = o[1], o[0]
			for i, s := range []*State{sA, sB, nA, dAB, dAA} {
				img, ok := m.ApplyDevicePermutation(s, perm)
				if !ok {
					t.Fatalf("state %d: transposition rejected", i)
				}
				if !bytes.Equal(m.CanonicalEncode(s, nil), m.CanonicalEncode(img, nil)) {
					t.Errorf("state %d: canonical encoding not invariant under transposition", i)
				}
			}
		})
	}
}

// Guard against the corpus drifting: the symmetry group must keep
// translating and stay symmetry-safe (its apps are the fold gate's
// fuel).
func TestSymmetryCorpusGroupTranslates(t *testing.T) {
	for _, s := range corpus.SymmetryGroup() {
		if _, err := smartapp.Translate(s.Groovy); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if n := len(corpus.SymmetryGroup()); n < 4 {
		t.Errorf("symmetry group has %d apps, want >= 4", n)
	}
}

// TestCanonicalDigestGolden pins the canonical representative the
// symmetry layer picks for the first 64 sampled states of the
// interchangeable-device deployment: the CanonicalEncode bytes and the
// canonical IncrementalDigest pair of each, with and without the block
// cache (hash-keyed versus content-keyed orbit profiles). The
// equivalence tests accept any representative of the orbit, so this is
// what holds the choice itself — and with it every stored digest and
// state count — fixed across changes to how the profiles are sorted.
//
// testdata/canonical_digest.golden is the output of this loop at the
// commit before the orbit-profile, queue and command-log sorts moved
// from sort.Slice to the slices package, written once by a copy of the
// test that saved got instead of comparing it. It is never rewritten
// from later code: a mismatch means a representative changed.
func TestCanonicalDigestGolden(t *testing.T) {
	inc := symTestModel(t, Options{Design: Concurrent, Incremental: true})
	plain := symTestModel(t, Options{Design: Concurrent})
	plainStates := symSampleStates(plain, 64)
	var got bytes.Buffer
	moved, sortedQueues := 0, 0
	for i, s := range symSampleStates(inc, 64) {
		enc := inc.CanonicalEncode(s, nil)
		h1, h2 := inc.IncrementalDigest(s, true)
		fmt.Fprintf(&got, "%d %x %016x %016x %x\n", i, enc, h1, h2, plain.CanonicalEncode(plainStates[i], nil))
		if !bytes.Equal(enc, s.Encode(nil)) {
			moved++
		}
		orbitEntries := 0
		for _, pe := range s.Queue {
			if inc.sym.roleOf[pe.SubIdx] >= 0 {
				orbitEntries++
			}
		}
		if orbitEntries > 1 {
			sortedQueues++
		}
	}
	// The sample must exercise what it pins: representatives that differ
	// from the raw state, and queues with several orbit entries to sort.
	t.Logf("%d of 64 states canonicalize away from raw, %d sort an orbit queue", moved, sortedQueues)
	if moved == 0 || sortedQueues == 0 {
		t.Fatalf("sample too shallow: %d states canonicalize away from raw, %d sort an orbit queue", moved, sortedQueues)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "canonical_digest.golden"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("state %d: canonical encoding or digest changed\n got %s\nwant %s", i, gotLines[i], wantLines[i])
		}
	}
}
