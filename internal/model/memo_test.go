package model

import (
	"fmt"
	"strings"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/ir"
	"iotsan/internal/smartapp"
)

// followApp turns a switch on and off with one motion sensor. A
// transition reads and writes only the device its event comes from, the
// switch when the handler runs, and the header, so states that differ
// only in the other devices of followModel share memo entries: a search
// splices most of its new states.
const followApp = `
definition(name: "Follow", namespace: "t", author: "t", description: "t", category: "t")
preferences {
    section("s") { input "motion1", "capability.motionSensor" }
    section("s") { input "switches", "capability.switch" }
}
def installed() {
    subscribe(motion1, "motion", onMotion)
}
def onMotion(evt) {
    if (evt.value == "active") { switches.on() } else { switches.off() }
}
`

func followModel(t *testing.T, events int) *Model {
	t.Helper()
	return followModelOpts(t, Options{MaxEvents: events, Incremental: true})
}

func followModelOpts(t *testing.T, opts Options) *Model {
	t.Helper()
	m, err := New(followSystem(), map[string]*ir.App{"Follow": followIR(t)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func followIR(t *testing.T) *ir.App {
	t.Helper()
	app, err := smartapp.Translate(followApp)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func followSystem() *config.System {
	return &config.System{
		Name: "follow-home",
		Devices: []config.Device{
			{ID: "m1", Label: "Hall Motion", Model: "Motion Sensor"},
			{ID: "m2", Label: "Porch Motion", Model: "Motion Sensor"},
			{ID: "c1", Label: "Back Door", Model: "Contact Sensor"},
			{ID: "sw1", Label: "Hall Light", Model: "Smart Switch"},
		},
		Apps: []config.AppInstance{{App: "Follow", Bindings: map[string]config.Binding{
			"motion1":  {DeviceIDs: []string{"m1"}},
			"switches": {DeviceIDs: []string{"sw1"}},
		}}},
	}
}

// corruptSpy flips one captured attribute word of the first memo entry
// that reaches use `at` and writes a device block, at the end of the
// Step that brought it there; with at memoStep it flips nothing.
type corruptSpy struct {
	scratchSpy
	at      uint8
	flipped *memoEntry
}

func (c *corruptSpy) Step(sc checker.Scratch, parent checker.State, stub *checker.Transition) checker.Transition {
	tr := c.sysAdapter.Step(sc, parent, stub)
	if c.flipped != nil || c.at == memoStep {
		return tr
	}
	mm := &sc.(*Scratch).memo
	nDev := len(c.m.Devices)
	for i := range mm.entries {
		e := &mm.entries[i]
		if e.use != c.at {
			continue
		}
		for _, cb := range mm.blocks[e.content : e.content+e.nContent] {
			if int(cb.b) <= nDev {
				mm.cattrs[cb.off] ^= 1
				c.flipped = e
				return tr
			}
		}
	}
	return tr
}

// TestCorruptedSpliceFailsRun: a memo entry whose captured contents go
// wrong fails the run loudly, naming the transition. Flipped before the
// entry's first splice, which re-hashes what it splices, the engine's
// check of that step reports the digest (Result.Err from confirm).
// Flipped after it, when splices trust the captured hashes, the splice
// check (CheckSplices) re-steps the splice and reports the difference.
// Left intact, the same search splices most of its new states with the
// check armed and silent.
func TestCorruptedSpliceFailsRun(t *testing.T) {
	for _, c := range []struct {
		name  string
		at    uint8
		check bool
		want  string
	}{
		{"intact", memoStep, true, ""},
		{"before-first-splice", memoRehash, false, "predicted digest"},
		{"after-first-splice", memoSplice, true, "splice-check"},
	} {
		t.Run(c.name, func(t *testing.T) {
			CheckSplices(c.check)
			defer CheckSplices(false)
			spy := &corruptSpy{scratchSpy: scratchSpy{sysAdapter: sysAdapter{followModel(t, 6)}}, at: c.at}
			res := checker.Run(spy, checker.Options{MaxDepth: 100})
			if c.want == "" {
				if n := spy.made[0].Splices(); res.Err != nil || n*2 < res.StatesStored {
					t.Fatalf("err %v, %d splices for %d stored states: want most new states spliced", res.Err, n, res.StatesStored)
				}
				return
			}
			if spy.flipped == nil {
				t.Fatal("no entry reached the use the test corrupts")
			}
			key := fmt.Sprintf("(key %#x)", spy.flipped.stub)
			if res.Err == nil || !strings.Contains(res.Err.Error(), c.want) || !strings.Contains(res.Err.Error(), key) {
				t.Fatalf("err %v, want one with %q naming the transition %s", res.Err, c.want, key)
			}
			t.Log(res.Err)
		})
	}
}
