package config

import (
	"slices"
	"strings"
	"testing"
)

// valid is a small configuration every rejection below breaks in one
// place.
const valid = `{
  "name": "home",
  "modes": ["Home", "Away"],
  "mode": "Away",
  "devices": [
    {"id": "pres", "label": "Presence", "model": "Presence Sensor"},
    {"id": "lock", "label": "Front Lock", "model": "Smart Lock", "association": "main door"}
  ],
  "apps": [
    {"app": "Unlock Door", "bindings": {"lock1": {"devices": ["lock"]}, "note": {"value": "hi"}}}
  ]
}`

func TestDecodeValid(t *testing.T) {
	sys, err := Decode([]byte(valid))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Mode != "Away" || len(sys.Devices) != 2 || sys.Apps[0].Bindings["lock1"].DeviceIDs[0] != "lock" {
		t.Errorf("decoded %+v", sys)
	}
}

// TestDecodeRejects: Decode refuses each way a configuration can be
// malformed or inconsistent, naming the cause.
func TestDecodeRejects(t *testing.T) {
	for _, c := range []struct{ name, from, to, want string }{
		{"malformed JSON", `"name": "home",`, `"name": "home"`, "config: invalid character"},
		{"duplicate device id", `"id": "lock"`, `"id": "pres"`, `duplicate device id "pres"`},
		{"unknown model", `"model": "Smart Lock"`, `"model": "Smart Toaster"`, `unknown model "Smart Toaster"`},
		{"initial mode not in modes", `"mode": "Away"`, `"mode": "Night"`, `initial mode "Night" not in modes`},
		{"binding to an uninstalled device", `["lock"]`, `["garage"]`, `unknown device "garage"`},
	} {
		data := strings.Replace(valid, c.from, c.to, 1)
		if data == valid {
			t.Fatalf("%s: the edit does not apply", c.name)
		}
		sys, err := Decode([]byte(data))
		if err == nil || sys != nil {
			t.Errorf("%s: Decode = %v, %v; want an error", c.name, sys, err)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}
}

// TestValidateDefaultsModes: a configuration without modes gets Home,
// Away and Night, and starts in the first.
func TestValidateDefaultsModes(t *testing.T) {
	sys := &System{Devices: []Device{{ID: "pres", Model: "Presence Sensor"}}}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sys.Modes, []string{"Home", "Away", "Night"}) || sys.Mode != "Home" {
		t.Errorf("modes %q, mode %q; want the defaults, starting in Home", sys.Modes, sys.Mode)
	}
}

// FuzzDecode: Decode returns an error or a system that validates again,
// and never panics.
func FuzzDecode(f *testing.F) {
	for _, seed := range []string{
		valid,
		`{}`,
		`{"modes": [], "mode": ""}`,
		`{"devices": [{"id": "a", "model": "Smart Bulb"}, {"id": "a", "model": "Smart Bulb"}]}`,
		`{"apps": [{"app": "x", "bindings": {"in": {"devices": ["nowhere"], "value": [1, "two", null]}}}]}`,
		`{"name": 7}`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := Decode(data)
		if err != nil {
			if sys != nil {
				t.Fatalf("Decode returned a system with the error %v", err)
			}
			return
		}
		if err := sys.Validate(); err != nil {
			t.Fatalf("a decoded system fails Validate: %v", err)
		}
	})
}
