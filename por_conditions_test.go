// The POR side-condition rows: two small concurrent-design systems, each
// built so that one side condition of the model's persistent sets
// (internal/model/por.go) is what keeps the reduction sound. Both are
// rows of the verdict matrix and of the walker. With the spawn-threat
// condition dropped, por-spawn loses a violation; with either purity
// condition dropped, por-impure trips the walker's progress check.
package iotsan_test

import (
	"iotsan/internal/config"
	"iotsan/internal/ir"
	"iotsan/internal/smartapp"
)

// porSpawnApps: after the presence change, Arrival Counter's pure-local
// count, Arrival Relay's relay and Arrival Diary's pure-local note are
// pending. relay turns the light on and sends "ping", which wakes react,
// and react commands the light from what count wrote. relay does not
// touch what count does, so {count} is dependence-closed, but relay can
// enqueue react, which depends on count (the spawn threat): dispatching
// count first loses every order in which react runs before count, and
// with it react's off(), which conflicts with relay's on(). {note} is
// the reduction that stays.
var porSpawnApps = []string{`
definition(name: "Arrival Counter", namespace: "iotsan.test", author: "iotsan",
    description: "Arm on presence; on a ping, light the hall if armed.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Light") { input "light", "capability.switch" }
}
def installed() {
    subscribe(people, "presence", countHandler)
    subscribe(people, "ping", reactHandler)
}
def countHandler(evt) {
    state.armed = true
}
def reactHandler(evt) {
    if (state.armed) {
        light.on()
    } else {
        light.off()
    }
}
`, `
definition(name: "Arrival Relay", namespace: "iotsan.test", author: "iotsan",
    description: "Light the hall on presence and send a ping.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Light") { input "light", "capability.switch" }
}
def installed() { subscribe(people, "presence", relayHandler) }
def relayHandler(evt) {
    light.on()
    sendEvent(name: "ping", value: "go")
}
`, `
definition(name: "Arrival Diary", namespace: "iotsan.test", author: "iotsan",
    description: "Note the last presence change.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", noteHandler) }
def noteHandler(evt) {
    state.last = "changed"
}
`}

// porImpureApps: after the presence change, Porch Switcher's switchOn
// (impure: it commands the light), Light Watcher's pure-local watch (it
// reads the light, and the light's switch event wakes it again) and
// Arrival Notes' two pure-local notes are pending. {switchOn, watch} ties {noteA, noteB}
// for the smallest dependence-closed set and comes first in the queue,
// so it is the one Reduce picks unless the purity conditions reject it:
// Reduce's own for switchOn as a seed, closeSet's for switchOn pulled in
// by watch. Dispatching switchOn enqueues watch again, so that set would
// make no progress.
var porImpureApps = []string{`
definition(name: "Porch Switcher", namespace: "iotsan.test", author: "iotsan",
    description: "Light the porch on presence.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Light") { input "light", "capability.switch" }
}
def installed() { subscribe(people, "presence", switchOnHandler) }
def switchOnHandler(evt) {
    light.on()
}
`, `
definition(name: "Light Watcher", namespace: "iotsan.test", author: "iotsan",
    description: "Remember the light's state.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Light") { input "light", "capability.switch" }
}
def installed() {
    subscribe(people, "presence", watchHandler)
    subscribe(light, "switch", watchHandler)
}
def watchHandler(evt) {
    state.lit = light.currentSwitch
}
`, `
definition(name: "Arrival Notes", namespace: "iotsan.test", author: "iotsan",
    description: "Note presence changes twice.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() {
    subscribe(people, "presence", noteAHandler)
    subscribe(people, "presence", noteBHandler)
}
def noteAHandler(evt) {
    state.a = 1
}
def noteBHandler(evt) {
    state.b = 2
}
`}

// porConditionSystem installs the apps, in order, on one presence sensor
// that starts present and a hall light that starts off: the one external
// event is the departure, which leaves no one home in Home mode.
func porConditionSystem(name string, sources []string) (*config.System, map[string]*ir.App, error) {
	sys := &config.System{Name: name, Devices: []config.Device{
		{ID: "presA", Label: "Presence A", Model: "Presence Sensor", Initial: map[string]string{"presence": "present"}},
		{ID: "hallLight", Label: "Hall Light", Model: "Smart Bulb", Initial: map[string]string{"switch": "off"}},
	}}
	apps := map[string]*ir.App{}
	for _, src := range sources {
		app, err := smartapp.Translate(src)
		if err != nil {
			return nil, nil, err
		}
		apps[app.Name] = app
		inst := config.AppInstance{App: app.Name, Bindings: map[string]config.Binding{
			"people": {DeviceIDs: []string{"presA"}},
		}}
		for _, in := range app.Inputs {
			if in.Name == "light" {
				inst.Bindings["light"] = config.Binding{DeviceIDs: []string{"hallLight"}}
			}
		}
		sys.Apps = append(sys.Apps, inst)
	}
	return sys, apps, sys.Validate()
}
