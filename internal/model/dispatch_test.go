package model

import (
	"slices"
	"testing"

	"iotsan/internal/config"
	"iotsan/internal/eval"
	"iotsan/internal/ir"
	"iotsan/internal/smartapp"
)

// routerApp subscribes through every source the dispatch indexes serve:
// device attributes with and without a value filter, an attribute its
// device's schema lacks (reachable by sendEvent only), a missing
// handler, the location mode, the sun and the app itself.
const routerApp = `
definition(name: "Router", namespace: "t", author: "t", description: "t", category: "t")
preferences {
    section("s") { input "motion1", "capability.motionSensor" }
    section("s") { input "switches", "capability.switch", multiple: true }
}
def installed() {
    subscribe(motion1, "motion", onMotion)
    subscribe(motion1, "motion.active", onActive)
    subscribe(switches, "switch", onSwitch)
    subscribe(switches, "bogus", onBogus)
    subscribe(switches, "switch.on", undefinedHandler)
    subscribe(location, "mode", onMode)
    subscribe(location, "sunrise", onSun)
    subscribe(app, onTouch)
}
def onMotion(evt) { switches.on() }
def onActive(evt) { sendEvent(name: "bogus", value: "x") }
def onSwitch(evt) { state.n = (state.n ?: 0) + 1 }
def onBogus(evt) { state.b = true }
def onMode(evt) { switches.off() }
def onSun(evt) { switches.on() }
def onTouch(evt) { switches.off() }
`

// TestDispatchIndexMatchesScan: for every event the executor can
// enqueue, subsFor returns exactly what a linear scan of the
// subscription table by (source, name) finds, in table order; and every
// subscription carries the compiled program CallHandler would look up.
func TestDispatchIndexMatchesScan(t *testing.T) {
	app, err := smartapp.Translate(routerApp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config.System{
		Name: "router-home",
		Devices: []config.Device{
			{ID: "m1", Label: "Motion", Model: "Motion Sensor"},
			{ID: "sw1", Label: "Light", Model: "Smart Switch"},
			{ID: "sw2", Label: "Fan", Model: "Smart Switch"},
		},
		Apps: []config.AppInstance{
			{App: "Router", Bindings: map[string]config.Binding{
				"motion1":  {DeviceIDs: []string{"m1"}},
				"switches": {DeviceIDs: []string{"sw1", "sw2"}},
			}},
		},
	}
	for _, interpreter := range []bool{false, true} {
		m, err := New(cfg, map[string]*ir.App{"Router": app}, Options{MaxEvents: 2, Interpreter: interpreter})
		if err != nil {
			t.Fatal(err)
		}
		scan := func(match func(*resolvedSub) bool) []int32 {
			var out []int32
			for si := range m.subs {
				if match(&m.subs[si]) {
					out = append(out, int32(si))
				}
			}
			return out
		}
		check := func(ev cyberEvent, want []int32) {
			t.Helper()
			if got := m.subsFor(&ev); !slices.Equal(got, want) {
				t.Errorf("interpreter=%v: subsFor(%+v) = %v, scan finds %v", interpreter, ev, got, want)
			}
		}
		routed := 0
		for _, d := range m.Devices {
			for ai := range d.Attrs {
				want := scan(func(s *resolvedSub) bool { return s.Source == d.Idx && s.Attr == d.Attrs[ai].Name })
				check(attrEvent(d, ai, 0), want)
				routed += len(want)
			}
		}
		if routed != 6 { // motion and motion.active on m1; switch and switch.on on sw1 and on sw2
			t.Errorf("interpreter=%v: %d device subscriptions routed by index, want 6", interpreter, routed)
		}
		for _, name := range []string{"motion", "switch", "bogus", "absent"} {
			check(cyberEvent{Source: srcSynth, Attr: -1, Name: name},
				scan(func(s *resolvedSub) bool { return s.Source >= 0 && s.Attr == name }))
		}
		for _, ev := range []cyberEvent{
			{Source: srcLocation, Attr: -1, Name: "mode"},
			{Source: srcSun, Attr: -1, Name: "sun"},
			{Source: srcLocation, Attr: -1, Name: "absent"},
		} {
			check(ev, scan(func(s *resolvedSub) bool { return s.Source == ev.Source && s.Attr == ev.Name }))
		}
		if len(m.subsFor(&cyberEvent{Source: srcLocation, Attr: -1, Name: "mode"})) != 1 ||
			len(m.subsFor(&cyberEvent{Source: srcSynth, Attr: -1, Name: "bogus"})) != 2 {
			t.Errorf("interpreter=%v: the mode or the sendEvent-only subscriptions are not indexed", interpreter)
		}

		for si := range m.subs {
			sub := &m.subs[si]
			var want *eval.Program
			if prog := m.Apps[sub.AppIdx].Prog; prog != nil {
				want = prog.Methods[sub.Handler]
			}
			if sub.prog != want || (want == nil) != (interpreter || sub.Handler == "undefinedHandler") {
				t.Errorf("interpreter=%v: subscription %d (%s) carries program %p, Methods has %p",
					interpreter, si, sub.Handler, sub.prog, want)
			}
		}
	}
}
