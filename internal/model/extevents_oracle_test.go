package model_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"iotsan/internal/config"
	"iotsan/internal/device"
	"iotsan/internal/experiments"
	"iotsan/internal/model"
	"iotsan/internal/smartapp"
)

// TestExternalEventsOracle: on every market system of splits 1 and 2,
// built from one plan under the default options, Failures,
// UserModeEvents, UserDeviceEvents and a nil RelevantAttrs (the others
// restrict to the apps' input attributes plus presence, as the facade
// does), Model.ExternalEvents and every Enabled label of the initial
// state and its successors equal the per-model enumeration below:
// fmt-formatted labels, stable-sorted by label.
func TestExternalEventsOracle(t *testing.T) {
	variants := []struct {
		name string
		opts func(relevant map[string]bool) model.Options
	}{
		{"defaults", func(r map[string]bool) model.Options { return model.Options{RelevantAttrs: r} }},
		{"failures", func(r map[string]bool) model.Options { return model.Options{RelevantAttrs: r, Failures: true} }},
		{"user-modes", func(r map[string]bool) model.Options { return model.Options{RelevantAttrs: r, UserModeEvents: true} }},
		{"user-devices", func(r map[string]bool) model.Options { return model.Options{RelevantAttrs: r, UserDeviceEvents: true} }},
		{"all-attrs", func(map[string]bool) model.Options { return model.Options{} }},
	}
	for split := int64(1); split <= 2; split++ {
		for gi, group := range experiments.RandomGroups(split) {
			apps, err := experiments.TranslateAll(group)
			if err != nil {
				t.Fatal(err)
			}
			sys := experiments.ExpertConfig(fmt.Sprintf("market-%d-%d", split, gi+1), group, apps)
			p, err := model.Prepare(sys)
			if err != nil {
				t.Fatal(err)
			}
			insts, err := p.PrepareApps(sys.Apps, apps, false)
			if err != nil {
				t.Fatal(err)
			}
			relevant := map[string]bool{"presence": true}
			for _, inst := range sys.Apps {
				for _, hi := range smartapp.AnalyzeHandlers(apps[inst.App]) {
					for _, in := range hi.Inputs {
						relevant[in.Attr] = true
					}
				}
			}
			for _, v := range variants {
				opts := v.opts(relevant)
				opts.MaxEvents = 2
				m, err := p.Build(insts, opts)
				if err != nil {
					t.Fatal(err)
				}
				name := sys.Name + "/" + v.name
				want := refExternalEvents(m)
				if got := m.ExternalEvents(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %d external events differ from the %d enumerated", name, len(got), len(want))
					for i := range min(len(got), len(want)) {
						if got[i] != want[i] {
							t.Errorf("%s: first difference at %d: %+v, want %+v", name, i, got[i], want[i])
							break
						}
					}
					continue
				}
				s := m.Initial()
				states := []*model.State{s}
				for _, tr := range m.Expand(s) {
					states = append(states, tr.Next.(*model.State))
				}
				for k, st := range states {
					var got []string
					for _, tr := range m.Enabled(st, nil) {
						got = append(got, tr.Label)
					}
					if want := refEnabledLabels(m, want, st); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: state %d: Enabled labels %q, want %q", name, k, got, want)
					}
				}
			}
		}
	}
}

// TestExternalEventsTieOrder: a device event and a mode event with the
// same label keep the enumeration's order, device first, whichever
// device order produced them.
func TestExternalEventsTieOrder(t *testing.T) {
	sys := &config.System{
		Name:  "ties",
		Modes: []string{"Home", "Hall.motion = active"},
		Mode:  "Home",
		Devices: []config.Device{
			{ID: "m2", Label: "user sets mode Hall", Model: "Motion Sensor"},
			{ID: "m1", Label: "user sets mode Hall", Model: "Motion Sensor"},
		},
	}
	m, err := model.New(sys, nil, model.Options{UserModeEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	want := refExternalEvents(m)
	if got := m.ExternalEvents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("external events\n%+v\nwant\n%+v", got, want)
	}
	tie := slices.IndexFunc(want, func(ev model.ExtEvent) bool { return ev.Kind == model.EvMode && ev.Label != "user sets mode Home" })
	if tie < 2 || want[tie-2].Label != want[tie].Label || want[tie-2].Kind != model.EvDevice {
		t.Fatalf("fixture lost its tie: %+v", want)
	}
}

// refExternalEvents enumerates a model's external events from its
// devices, options and apps' subscriptions, labelling with fmt, and
// stable-sorts them by label.
func refExternalEvents(m *model.Model) []model.ExtEvent {
	var out []model.ExtEvent
	for _, d := range m.Devices {
		for ai, a := range d.Attrs {
			if !refSensed(d, a.Name) && (!m.Opts.UserDeviceEvents || a.Numeric) {
				continue
			}
			if m.Opts.RelevantAttrs != nil && !m.Opts.RelevantAttrs[a.Name] {
				continue
			}
			if a.Numeric {
				for _, gv := range a.GenValues {
					out = append(out, model.ExtEvent{Kind: model.EvDevice, Dev: d.Idx, AttrIdx: ai, Val: int16(gv),
						Label: fmt.Sprintf("%s.%s = %d", d.Label, a.Name, gv)})
				}
			} else {
				for vi, v := range a.Values {
					out = append(out, model.ExtEvent{Kind: model.EvDevice, Dev: d.Idx, AttrIdx: ai, Val: int16(vi),
						Label: fmt.Sprintf("%s.%s = %s", d.Label, a.Name, v)})
				}
			}
		}
	}
	sun := false
	for ai, app := range m.Apps {
		touched := false
		for _, sub := range app.App.Subscriptions {
			switch {
			case sub.Source == "app" && !touched:
				touched = true
				out = append(out, model.ExtEvent{Kind: model.EvTouch, AppIdx: ai,
					Label: fmt.Sprintf("app touch: %s", app.App.Name)})
			case sub.Source == "location":
				switch sub.Attribute {
				case "sunrise", "sunset", "sunriseTime", "sunsetTime":
					sun = true
				}
			}
		}
	}
	if sun {
		out = append(out,
			model.ExtEvent{Kind: model.EvSun, Val: 0, Label: "sunrise"},
			model.ExtEvent{Kind: model.EvSun, Val: 1, Label: "sunset"})
	}
	if m.Opts.UserModeEvents {
		for i, mode := range m.Cfg.Modes {
			out = append(out, model.ExtEvent{Kind: model.EvMode, Val: int16(i), Label: "user sets mode " + mode})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

func refSensed(d *model.DevInst, attr string) bool {
	for _, cn := range d.Model.Capabilities {
		if c := device.CapabilityByName(cn); c.Sensor && c.Attribute(attr) != nil {
			return true
		}
	}
	return false
}

// refEnabledLabels lists the labels of a sequential model's external
// choices at s: every event that changes something, then every pending
// timer, each under every failure mode it admits.
func refEnabledLabels(m *model.Model, events []model.ExtEvent, s *model.State) []string {
	if s.EventsUsed >= m.Opts.MaxEvents {
		return nil
	}
	modes := []string{""}
	if m.Opts.Failures {
		modes = []string{"", " [sensor offline]", " [sensor report lost]", " [actuator command lost]"}
	}
	sensorOnly := func(fm int) bool { return fm == 1 || fm == 2 }
	var out []string
	for _, ev := range events {
		if ev.Kind == model.EvDevice && s.Devices[ev.Dev].Attrs[ev.AttrIdx] == ev.Val ||
			ev.Kind == model.EvMode && s.Mode == uint8(ev.Val) {
			continue
		}
		for fm, suffix := range modes {
			if ev.Kind != model.EvDevice && sensorOnly(fm) {
				continue
			}
			out = append(out, ev.Label+suffix)
		}
	}
	for ai := range s.Apps {
		for _, tm := range s.Apps[ai].Timers {
			for fm, suffix := range modes {
				if !sensorOnly(fm) {
					out = append(out, "timer: "+m.Apps[ai].App.Name+"."+tm.Handler+suffix)
				}
			}
		}
	}
	return out
}
