package iotsan_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"iotsan"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
	"iotsan/internal/ir"
)

// The metamorphic relations need no second implementation: each runs
// AnalyzeTranslated on two related inputs and compares the reports'
// violated properties. The inputs are the six market groups, each under
// the expert configuration and under volunteer seeds 1–5, at 2 events;
// -short keeps the expert and volunteer-seed-1 configurations.

// metaConfig is one configuration the relations run over.
type metaConfig struct {
	name string
	sys  *iotsan.System
	apps map[string]*ir.App
}

// knownAppOrderFlips are the configurations whose violated properties
// change when their apps are listed in another order: the sequential
// design runs the subscribers of one event in the order of System.Apps
// (ROADMAP item 27). The list may only shrink — an entry that no longer
// flips fails the relation too.
var knownAppOrderFlips = map[string]bool{
	"g3-vol1": true, // other.night-devices-off
	"g3-vol2": true, // repeated-commands
	"g3-vol5": true, // repeated-commands
	"g4-vol1": true, // sec.alarm-on-intrusion-motion, sec.no-spurious-alarm, therm.ac-and-heater-both-on
	"g4-vol2": true, // sec.camera-privacy-at-home
	"g4-vol4": true, // sec.camera-privacy-at-home
}

func metaConfigs(t *testing.T) []metaConfig {
	t.Helper()
	seeds := 5
	if testing.Short() {
		seeds = 1
	}
	var cfgs []metaConfig
	for g := 1; g <= 6; g++ {
		sources := corpus.Group(g)
		apps, err := experiments.TranslateAll(sources)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("g%d-expert", g)
		cfgs = append(cfgs, metaConfig{name, experiments.ExpertConfig(name, sources, apps), apps})
		for seed := 1; seed <= seeds; seed++ {
			name := fmt.Sprintf("g%d-vol%d", g, seed)
			cfgs = append(cfgs, metaConfig{name, experiments.VolunteerConfig(name, sources, apps, int64(seed)), apps})
		}
	}
	return cfgs
}

// violated is the sorted list of properties sys violates at events.
func violated(t *testing.T, sys *iotsan.System, apps map[string]*ir.App, events int) []string {
	t.Helper()
	rep, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{MaxEvents: events})
	if err != nil {
		t.Fatalf("%s: %v", sys.Name, err)
	}
	return rep.ViolatedProperties()
}

// reorder lists xs in the order perm gives.
func reorder[T any](xs []T, perm []int) []T {
	out := make([]T, len(xs))
	for i, j := range perm {
		out[i] = xs[j]
	}
	return out
}

// withApps and withDevices are copies of sys that list its apps, or its
// devices, in the order perm gives.
func withApps(sys *iotsan.System, perm func(n int) []int) *iotsan.System {
	c := *sys
	c.Apps = reorder(sys.Apps, perm(len(sys.Apps)))
	return &c
}

func withDevices(sys *iotsan.System, perm func(n int) []int) *iotsan.System {
	c := *sys
	c.Devices = reorder(sys.Devices, perm(len(sys.Devices)))
	return &c
}

// renamed is a copy of sys whose device IDs are renamed one to one, in
// System.Devices and in every binding, to names that sort in the
// reverse of the listed order.
func renamed(sys *iotsan.System) *iotsan.System {
	c := *sys
	to := make(map[string]string, len(sys.Devices))
	c.Devices = slices.Clone(sys.Devices)
	for i := range c.Devices {
		id := fmt.Sprintf("renamed%04d", len(c.Devices)-i)
		to[c.Devices[i].ID] = id
		c.Devices[i].ID = id
	}
	c.Apps = slices.Clone(sys.Apps)
	for i, a := range c.Apps {
		bs := make(map[string]iotsan.Binding, len(a.Bindings))
		for k, b := range a.Bindings {
			if b.DeviceIDs != nil {
				ids := make([]string, len(b.DeviceIDs))
				for j, id := range b.DeviceIDs {
					ids[j] = to[id]
				}
				b.DeviceIDs = ids
			}
			bs[k] = b
		}
		c.Apps[i].Bindings = bs
	}
	return &c
}

func reversed(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}

func shuffled(n int) []int { return rand.New(rand.NewSource(1)).Perm(n) }

func TestMetamorphic(t *testing.T) {
	cfgs := metaConfigs(t)
	// base memoises each configuration's verdict at 2 events, which
	// every relation compares against.
	base := map[string][]string{}
	at2 := func(c metaConfig) []string {
		if v, ok := base[c.name]; ok {
			return v
		}
		v := violated(t, c.sys, c.apps, 2)
		base[c.name] = v
		return v
	}

	// (a) Listing the apps in reverse, or in a seeded shuffle, leaves the
	// violated properties unchanged, except on the known flips.
	t.Run("app-order", func(t *testing.T) {
		for _, c := range cfgs {
			want := at2(c)
			rev := violated(t, withApps(c.sys, reversed), c.apps, 2)
			shuf := violated(t, withApps(c.sys, shuffled), c.apps, 2)
			flips := !slices.Equal(rev, want) || !slices.Equal(shuf, want)
			switch {
			case flips && !knownAppOrderFlips[c.name]:
				t.Errorf("%s: app order changes the verdict: listed %v, reversed %v, shuffled %v", c.name, want, rev, shuf)
			case !flips && knownAppOrderFlips[c.name]:
				t.Errorf("%s: listed as an app-order flip but no longer flips: drop it from knownAppOrderFlips", c.name)
			}
		}
	})

	// (b) A seeded shuffle of the devices leaves the violated properties
	// unchanged.
	t.Run("device-order", func(t *testing.T) {
		for _, c := range cfgs {
			want := at2(c)
			if got := violated(t, withDevices(c.sys, shuffled), c.apps, 2); !slices.Equal(got, want) {
				t.Errorf("%s: device order changes the verdict: listed %v, shuffled %v", c.name, want, got)
			}
		}
	})

	// (e) Renaming every device consistently leaves the violated
	// properties unchanged.
	t.Run("device-rename", func(t *testing.T) {
		for _, c := range cfgs {
			want := at2(c)
			if got := violated(t, renamed(c.sys), c.apps, 2); !slices.Equal(got, want) {
				t.Errorf("%s: renaming the devices changes the verdict: listed %v, renamed %v", c.name, want, got)
			}
		}
	})

	// (c) A property violated within k events is violated within k+1.
	t.Run("event-bound", func(t *testing.T) {
		for _, c := range cfgs {
			v1, v2, v3 := violated(t, c.sys, c.apps, 1), at2(c), violated(t, c.sys, c.apps, 3)
			for _, p := range [][2][]string{{v1, v2}, {v2, v3}} {
				for _, prop := range p[0] {
					if !slices.Contains(p[1], prop) {
						t.Errorf("%s: %s violated at 1 or 2 events is lost one event later: %v then %v", c.name, prop, p[0], p[1])
					}
				}
			}
		}
	})
}
