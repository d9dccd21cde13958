package model_test

import (
	"fmt"
	"testing"

	"iotsan/internal/config"
	"iotsan/internal/experiments"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/smartapp"
)

// contactCommanderSrc sends a command to every sensor of its contact
// list. Contact sensors have no commands, so the executor drops it; the
// light command is the one that reaches the command log.
const contactCommanderSrc = `
definition(name: "Contact Commander", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("Doors") { input "contacts", "capability.contactSensor", multiple: true }
    section("Light") { input "light", "capability.switch" }
}
def installed() { subscribe(contacts, "contact.open", openHandler) }
def updated() { unsubscribe(); subscribe(contacts, "contact.open", openHandler) }
def openHandler(evt) {
    contacts.on()
    light.on()
}
`

// motionLightsSrc switches a list of identical bulbs from a list of
// identical motion sensors: a uniform broadcast, so only the
// command-capability gate keeps the bulbs out of an orbit.
const motionLightsSrc = `
definition(name: "Motion Lights", namespace: "t", author: "t",
    description: "t", category: "t")
preferences {
    section("Motion") { input "motions", "capability.motionSensor", multiple: true }
    section("Lights") { input "switches", "capability.switch", multiple: true }
}
def installed() { subscribe(motions, "motion", motionHandler) }
def updated() { unsubscribe(); subscribe(motions, "motion", motionHandler) }
def motionHandler(evt) {
    if (evt.value == "active") { switches.on() } else { switches.off() }
}
`

type gateSystem struct {
	name string
	sys  *config.System
	apps map[string]*ir.App
}

// gateSystems returns the interchangeable-device deployment and the two
// fixtures, each a system with the translated sources of its apps.
func gateSystems(t *testing.T) []gateSystem {
	t.Helper()
	translate := func(name, src string) map[string]*ir.App {
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]*ir.App{name: app}
	}
	sym, symApps, err := experiments.SymmetrySystem("sym-gate")
	if err != nil {
		t.Fatal(err)
	}
	return []gateSystem{
		{"symmetry-system", sym, symApps},
		{"sensor-list-command", &config.System{
			Name: "contact-commander", Modes: []string{"Home", "Away"}, Mode: "Home",
			Devices: []config.Device{
				{ID: "c1", Label: "Contact 1", Model: "Contact Sensor"},
				{ID: "c2", Label: "Contact 2", Model: "Contact Sensor"},
				{ID: "c3", Label: "Contact 3", Model: "Contact Sensor"},
				{ID: "hall", Label: "Hall Light", Model: "Smart Bulb"},
			},
			Apps: []config.AppInstance{{App: "Contact Commander", Bindings: map[string]config.Binding{
				"contacts": {DeviceIDs: []string{"c1", "c2", "c3"}},
				"light":    {DeviceIDs: []string{"hall"}},
			}}},
		}, translate("Contact Commander", contactCommanderSrc)},
		{"identical-bulbs", &config.System{
			Name: "motion-lights", Modes: []string{"Home", "Away"}, Mode: "Home",
			Devices: []config.Device{
				{ID: "m1", Label: "Motion 1", Model: "Motion Sensor"},
				{ID: "m2", Label: "Motion 2", Model: "Motion Sensor"},
				{ID: "b1", Label: "Bulb 1", Model: "Smart Bulb"},
				{ID: "b2", Label: "Bulb 2", Model: "Smart Bulb"},
			},
			Apps: []config.AppInstance{{App: "Motion Lights", Bindings: map[string]config.Binding{
				"motions":  {DeviceIDs: []string{"m1", "m2"}},
				"switches": {DeviceIDs: []string{"b1", "b2"}},
			}}},
		}, translate("Motion Lights", motionLightsSrc)},
	}
}

// TestCommandsNeverNameOrbitDevices is the gate the canonical encoding
// rests on: it encodes the command log and the in-flight buffer as they
// are, which is sound only because no entry of either ever targets an
// orbit device. Every reachable state of each system, in both designs,
// with and without persistent faults, is checked for it. The walk must
// reach non-empty logs (and, with faults, a held command), or the check
// would be vacuous.
func TestCommandsNeverNameOrbitDevices(t *testing.T) {
	for _, g := range gateSystems(t) {
		for _, design := range []model.Design{model.Sequential, model.Concurrent} {
			for _, faults := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/faults=%v", g.name, design, faults), func(t *testing.T) {
					opts := model.Options{Design: design, MaxEvents: 2, Symmetry: true, CheckConflicts: true}
					if faults {
						opts.Faults, opts.MaxFaults = true, 1
					}
					m, err := model.New(g.sys, g.apps, opts)
					if err != nil {
						t.Fatal(err)
					}
					orbits := m.DeviceOrbits()
					if len(orbits) == 0 {
						t.Fatal("no orbits: the gate is vacuous")
					}
					inOrbit := map[int]bool{}
					for _, o := range orbits {
						for _, d := range o {
							inOrbit[d] = true
						}
					}
					var states, withCmds, withInFlight int
					seen := map[string]bool{}
					var stack []*model.State
					var key []byte
					visit := func(s *model.State) {
						key = s.Encode(key[:0])
						if seen[string(key)] {
							return
						}
						seen[string(key)] = true
						states++
						if len(s.Cmds) > 0 {
							withCmds++
						}
						if len(s.InFlight) > 0 {
							withInFlight++
						}
						for _, c := range s.Cmds {
							if inOrbit[c.Dev] {
								t.Fatalf("command log entry %s.%s names orbit device %d (orbits %v)",
									m.Devices[c.Dev].Label, c.Cmd, c.Dev, orbits)
							}
						}
						for _, c := range s.InFlight {
							if inOrbit[c.Dev] {
								t.Fatalf("in-flight entry %s.%s names orbit device %d (orbits %v)",
									m.Devices[c.Dev].Label, c.Cmd, c.Dev, orbits)
							}
						}
						stack = append(stack, s)
					}
					visit(m.Initial())
					for len(stack) > 0 {
						s := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						for _, tr := range m.Expand(s) {
							visit(tr.Next.(*model.State))
						}
					}
					t.Logf("%d states, %d with commands, %d with commands in flight, orbits %v",
						states, withCmds, withInFlight, orbits)
					if withCmds == 0 {
						t.Error("no reachable state has a command log entry")
					}
					if faults && withInFlight == 0 {
						t.Error("no reachable state holds a command in flight")
					}
				})
			}
		}
	}
}
