// Package config defines the system configuration the Configuration
// Extractor produces (§7): the installed devices, the installed smart
// apps, each app's input bindings, and the device association
// information the user supplies (e.g. "this outlet controls the AC"),
// which the property library uses to instantiate safety properties.
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"iotsan/internal/device"
	"iotsan/internal/ir"
)

// Device is one installed device instance.
type Device struct {
	ID    string `json:"id"`    // stable identifier, e.g. "myTempMeas"
	Label string `json:"label"` // display name
	Model string `json:"model"` // device.Model name
	// Association is the user-supplied role of the device in the home:
	// "heater", "ac", "main door lock", "living room light", "alarm",
	// "water valve", ... Properties bind to associations.
	Association string `json:"association,omitempty"`
	// Initial overrides initial attribute values ("switch": "on").
	Initial map[string]string `json:"initial,omitempty"`
}

// Binding is the configured value of one app input.
type Binding struct {
	// DeviceIDs holds the bound device id(s) for device inputs.
	DeviceIDs []string `json:"devices,omitempty"`
	// Value holds the literal for number/enum/text/phone/bool/mode/time
	// inputs, JSON-encoded naturally (string, number, bool).
	Value any `json:"value,omitempty"`
}

// AppInstance is one installed app with its configuration.
type AppInstance struct {
	App      string             `json:"app"` // corpus / market name
	Bindings map[string]Binding `json:"bindings"`
}

// System is a complete deployment configuration.
type System struct {
	Name    string        `json:"name"`
	Modes   []string      `json:"modes"` // e.g. ["Home", "Away", "Night"]
	Mode    string        `json:"mode"`  // initial location mode
	Devices []Device      `json:"devices"`
	Apps    []AppInstance `json:"apps"`
	// Phones lists the phone numbers the user configured for
	// notifications; SMS to other recipients is information leakage (§3).
	Phones []string `json:"phones,omitempty"`
}

// Validate checks internal consistency: device models exist, bindings
// reference installed devices.
func (s *System) Validate() error {
	ids := map[string]bool{}
	for _, d := range s.Devices {
		if ids[d.ID] {
			return fmt.Errorf("config: duplicate device id %q", d.ID)
		}
		ids[d.ID] = true
		if device.ModelByName(d.Model) == nil {
			return fmt.Errorf("config: device %q: unknown model %q", d.ID, d.Model)
		}
	}
	if len(s.Modes) == 0 {
		s.Modes = []string{"Home", "Away", "Night"}
	}
	if s.Mode == "" {
		s.Mode = s.Modes[0]
	}
	found := false
	for _, m := range s.Modes {
		if m == s.Mode {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("config: initial mode %q not in modes %v", s.Mode, s.Modes)
	}
	for _, a := range s.Apps {
		for input, b := range a.Bindings {
			for _, id := range b.DeviceIDs {
				if !ids[id] {
					return fmt.Errorf("config: app %q input %q: unknown device %q", a.App, input, id)
				}
			}
		}
	}
	return nil
}

// DevicesByAssociation returns the ids of devices with the given
// association role.
func (s *System) DevicesByAssociation(assoc string) []string {
	var out []string
	for _, d := range s.Devices {
		if d.Association == assoc {
			out = append(out, d.ID)
		}
	}
	return out
}

// BindingValue converts a JSON-decoded binding literal to an ir.Value.
func BindingValue(v any) ir.Value {
	switch x := v.(type) {
	case nil:
		return ir.NullV()
	case bool:
		return ir.BoolV(x)
	case float64:
		if x == float64(int64(x)) {
			return ir.IntV(int64(x))
		}
		return ir.NumV(x)
	case int:
		return ir.IntV(int64(x))
	case int64:
		return ir.IntV(x)
	case string:
		return ir.StrV(x)
	case []any:
		var l []ir.Value
		for _, e := range x {
			l = append(l, BindingValue(e))
		}
		return ir.ListV(l)
	}
	return ir.StrV(fmt.Sprint(v))
}

// Load reads a system configuration from a JSON file.
func Load(path string) (*System, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode parses a JSON system configuration and validates it.
func Decode(data []byte) (*System, error) {
	var s System
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
