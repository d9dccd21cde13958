// Package device models the IoT devices an IotSan system is built from.
//
// Following §8 of the paper, each device is modeled by its capabilities:
// the attributes it exposes (with their value domains), the commands it
// accepts, and the events it can generate. Sensors generate events from
// the physical environment; actuators change state in response to
// commands and broadcast state-change events to subscribers. The package
// registers 30+ device models covering the paper's corpus, plus the
// location (mode) pseudo-device and environmental event sources (sunrise
// and sunset).
package device

import (
	"fmt"
	"slices"
	"sort"
)

// Attribute describes one observable attribute of a capability.
type Attribute struct {
	Name    string
	Values  []string // enumerated domain; nil for numeric attributes
	Numeric bool
	// GenValues are the representative numeric values the model checker
	// injects when this attribute belongs to a sensor (discretising the
	// physical domain, e.g. temperature {50, 75, 95}).
	GenValues []int
	// Default is the initial value: index into Values, or the numeric
	// starting point for numeric attributes.
	Default int
}

// Command describes one actuator command of a capability.
type Command struct {
	Name      string
	Attribute string // attribute the command drives
	Value     string // enum value it sets ("" when the command takes an argument)
	TakesArg  bool   // numeric argument commands (setLevel, setHeatingSetpoint)
}

// Capability is a named bundle of attributes and commands, mirroring
// SmartThings capabilities (capability.switch, capability.lock, ...).
type Capability struct {
	Name       string // SmartThings id without prefix: "switch", "motionSensor"
	Attributes []Attribute
	Commands   []Command
	Sensor     bool // generates events from the environment
}

// Attribute returns the attribute schema with the given name, or nil.
func (c *Capability) Attribute(name string) *Attribute {
	for i := range c.Attributes {
		if c.Attributes[i].Name == name {
			return &c.Attributes[i]
		}
	}
	return nil
}

// Command returns the command schema with the given name, or nil.
func (c *Capability) Command(name string) *Command {
	for i := range c.Commands {
		if c.Commands[i].Name == name {
			return &c.Commands[i]
		}
	}
	return nil
}

// Model is a device type: a named set of capabilities, as exposed by a
// SmartThings device handler.
type Model struct {
	Name         string // "Motion Sensor", "Smart Power Outlet", ...
	Capabilities []string
}

var (
	capabilities = map[string]*Capability{}
	models       = map[string]*Model{}
	// attributes holds the name of every attribute of a registered
	// capability, and commandAttrs every command name's driven attributes
	// (see CommandAttributes), both kept by RegisterCapability.
	attributes   = map[string]bool{}
	commandAttrs = map[string][]string{}
)

// RegisterCapability adds a capability to the global registry. It panics
// on duplicates, mirroring the fail-fast registration style of gopacket's
// RegisterLayerType.
func RegisterCapability(c *Capability) *Capability {
	if _, dup := capabilities[c.Name]; dup {
		panic(fmt.Sprintf("device: duplicate capability %q", c.Name))
	}
	capabilities[c.Name] = c
	for _, a := range c.Attributes {
		attributes[a.Name] = true
	}
	for i, cmd := range c.Commands {
		// Command resolves a name to its first entry; a repeat adds nothing.
		if cmd.Attribute != "" && c.Command(cmd.Name) == &c.Commands[i] {
			commandAttrs[cmd.Name] = append(commandAttrs[cmd.Name], cmd.Attribute)
			slices.Sort(commandAttrs[cmd.Name])
		}
	}
	return c
}

// RegisterModel adds a device model to the global registry.
func RegisterModel(m *Model) *Model {
	if _, dup := models[m.Name]; dup {
		panic(fmt.Sprintf("device: duplicate model %q", m.Name))
	}
	for _, c := range m.Capabilities {
		if capabilities[c] == nil {
			panic(fmt.Sprintf("device: model %q references unknown capability %q", m.Name, c))
		}
	}
	models[m.Name] = m
	return m
}

// CapabilityByName returns a registered capability, or nil.
func CapabilityByName(name string) *Capability { return capabilities[name] }

// IsAttribute reports whether any registered capability has an attribute
// of the given name.
func IsAttribute(name string) bool { return attributes[name] }

// CommandAttributes returns, sorted, the attribute that each registered
// capability's command of this name drives — one entry per capability,
// so a name shared by several capabilities may repeat an attribute — or
// nil when no capability has such a command. The slice is the
// registry's index; callers must not mutate it.
func CommandAttributes(name string) []string { return commandAttrs[name] }

// ModelByName returns a registered device model, or nil.
func ModelByName(name string) *Model { return models[name] }

// Capabilities returns all registered capability names, sorted.
func Capabilities() []string {
	out := make([]string, 0, len(capabilities))
	for n := range capabilities {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Models returns all registered model names, sorted.
func Models() []string {
	out := make([]string, 0, len(models))
	for n := range models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HasCapability reports whether the model exposes the capability.
func (m *Model) HasCapability(name string) bool {
	for _, c := range m.Capabilities {
		if c == name {
			return true
		}
	}
	return false
}

// Attributes returns the attribute schemas of all the model's
// capabilities, deduplicated by name, in deterministic order.
func (m *Model) Attributes() []Attribute {
	var out []Attribute
	seen := map[string]bool{}
	for _, cn := range m.Capabilities {
		for _, a := range capabilities[cn].Attributes {
			if !seen[a.Name] {
				seen[a.Name] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// FindCommand resolves a command name against the model's capabilities.
func (m *Model) FindCommand(name string) (*Capability, *Command) {
	for _, cn := range m.Capabilities {
		c := capabilities[cn]
		if cmd := c.Command(name); cmd != nil {
			return c, cmd
		}
	}
	return nil, nil
}
