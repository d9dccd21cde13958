package experiments

import (
	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/ir"
	"iotsan/internal/props"
)

// SymmetrySystem builds the interchangeable-device deployment the
// symmetry gates and benchmarks share: the corpus symmetry group
// installed over three identical presence sensors and three identical
// entry contacts (two orbit capability types) driving a singleton hall
// light and front-door lock. Every multi-device input binds the whole
// fleet, so within-orbit sensor permutations induce isomorphic
// subspaces for the canonicalization layer to fold.
func SymmetrySystem(name string) (*config.System, map[string]*ir.App, error) {
	sources := corpus.SymmetryGroup()
	apps, err := TranslateAll(sources)
	if err != nil {
		return nil, nil, err
	}
	sys := &config.System{
		Name:  name,
		Modes: []string{"Home", "Away", "Night"},
		Mode:  "Home",
		Devices: []config.Device{
			{ID: "presA", Label: "Presence A", Model: "Presence Sensor"},
			{ID: "presB", Label: "Presence B", Model: "Presence Sensor"},
			{ID: "presC", Label: "Presence C", Model: "Presence Sensor"},
			{ID: "contactA", Label: "Door Contact A", Model: "Contact Sensor", Association: props.RoleEntryContact},
			{ID: "contactB", Label: "Door Contact B", Model: "Contact Sensor", Association: props.RoleEntryContact},
			{ID: "contactC", Label: "Door Contact C", Model: "Contact Sensor", Association: props.RoleEntryContact},
			{ID: "hallLight", Label: "Hall Light", Model: "Smart Bulb"},
			{ID: "frontLock", Label: "Front Door Lock", Model: "Smart Lock", Association: props.RoleMainDoor},
		},
		Phones: []string{"15551230000"},
	}
	people := config.Binding{DeviceIDs: []string{"presA", "presB", "presC"}}
	contacts := config.Binding{DeviceIDs: []string{"contactA", "contactB", "contactC"}}
	light := config.Binding{DeviceIDs: []string{"hallLight"}}
	lock := config.Binding{DeviceIDs: []string{"frontLock"}}
	for _, s := range sources {
		inst := config.AppInstance{App: s.Name, Bindings: map[string]config.Binding{}}
		for _, in := range apps[s.Name].Inputs {
			switch in.Name {
			case "people":
				inst.Bindings[in.Name] = people
			case "contacts":
				inst.Bindings[in.Name] = contacts
			case "light":
				inst.Bindings[in.Name] = light
			case "lock1":
				inst.Bindings[in.Name] = lock
			}
		}
		sys.Apps = append(sys.Apps, inst)
	}
	return sys, apps, nil
}

// FaultSystem builds the climate deployment the fault-injection gates
// and benchmarks share: the corpus fault group installed over a
// temperature sensor, a space-heater outlet (association "heater"), a
// window-AC outlet (association "ac"), and a motion sensor. The
// heater/AC pair is switched off-before-on inside single handler runs,
// so the mutual-exclusion invariant over their associations only
// becomes violable once an outage can hold one of the commands in
// flight.
func FaultSystem(name string) (*config.System, map[string]*ir.App, error) {
	sources := corpus.FaultGroup()
	apps, err := TranslateAll(sources)
	if err != nil {
		return nil, nil, err
	}
	sys := &config.System{
		Name:  name,
		Modes: []string{"Home", "Away", "Night"},
		Mode:  "Home",
		Devices: []config.Device{
			{ID: "tempSensor", Label: "Room Temperature", Model: "Temperature Sensor"},
			{ID: "heaterOutlet", Label: "Space Heater", Model: "Space Heater", Association: props.RoleHeater},
			{ID: "acOutlet", Label: "Window AC", Model: "Window AC", Association: props.RoleAC},
			{ID: "hallMotion", Label: "Hall Motion", Model: "Motion Sensor"},
		},
		Phones: []string{"15551230000"},
	}
	for _, s := range sources {
		inst := config.AppInstance{App: s.Name, Bindings: map[string]config.Binding{}}
		for _, in := range apps[s.Name].Inputs {
			switch in.Name {
			case "sensor":
				inst.Bindings[in.Name] = config.Binding{DeviceIDs: []string{"tempSensor"}}
			case "heater":
				inst.Bindings[in.Name] = config.Binding{DeviceIDs: []string{"heaterOutlet"}}
			case "ac":
				inst.Bindings[in.Name] = config.Binding{DeviceIDs: []string{"acOutlet"}}
			case "motion":
				inst.Bindings[in.Name] = config.Binding{DeviceIDs: []string{"hallMotion"}}
			case "setpoint":
				inst.Bindings[in.Name] = config.Binding{Value: 75}
			}
		}
		sys.Apps = append(sys.Apps, inst)
	}
	return sys, apps, nil
}
