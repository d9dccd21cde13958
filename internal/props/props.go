// Package props carries IotSan's default safety-property catalog: the
// 45 properties of §8 — 38 safe-physical-state properties across the six
// categories of Table 4 (expressed in LTL and compiled through the ltl
// package), free-of-conflicting-commands, free-of-repeated-commands,
// four information-leakage / suspicious-behaviour properties, and the
// device-failure robustness property.
//
// Physical properties are written against device *association roles*
// (§7: the user tells the Configuration Extractor that an outlet
// controls the AC, that a lock is the main door, ...). Compilation binds
// roles to the system's devices and skips properties whose roles are
// absent, mirroring "the LTL format of the selected properties are
// automatically generated" from the device association information.
package props

import (
	"fmt"

	"iotsan/internal/config"
	"iotsan/internal/ltl"
	"iotsan/internal/model"
)

// Thresholds parameterise the numeric properties ("predefined
// threshold" in the paper).
type Thresholds struct {
	TempLow   int64 // heater should run below this
	TempHigh  int64 // AC should run above this; heater must not
	SoilLow   int64
	SoilHigh  int64
	HumidHigh int64
}

// DefaultThresholds are sensible smart-home defaults (°F).
func DefaultThresholds() Thresholds {
	return Thresholds{TempLow: 60, TempHigh: 80, SoilLow: 20, SoilHigh: 50, HumidHigh: 70}
}

// Kind distinguishes how a property is checked.
type Kind int

// Property kinds.
const (
	// Physical properties are LTL invariants over device state,
	// evaluated on every reached state.
	Physical Kind = iota
	// Event properties are raised by the execution engine on
	// transitions (conflicting/repeated commands, leakage, robustness).
	Event
)

// Property is one catalog entry.
type Property struct {
	ID          string
	Category    string // Table 4 category
	Description string
	Kind        Kind
	// LTL is the formal statement for Physical properties.
	LTL string
	// Roles lists association roles the property requires; Capabilities
	// lists required device capabilities. A physical property compiles
	// only when every requirement is satisfiable in the system.
	Roles        []string
	Capabilities []string
}

// Association roles the catalog binds to (users assign these in the
// Configuration Extractor).
const (
	RoleHeater        = "heater"
	RoleAC            = "ac"
	RoleMainDoor      = "main door"
	RoleGarage        = "garage door"
	RoleEntryContact  = "entry contact"
	RoleAlarm         = "alarm"
	RoleSecuritySw    = "security switch"
	RoleFireValve     = "fire sprinkler valve"
	RoleWaterMain     = "main water valve"
	RoleSprinkler     = "sprinkler"
	RoleNightDevice   = "night-off device"
	RoleAwayDevice    = "away-off device"
	RoleEntertainment = "entertainment"
	RoleShade         = "window shade"
	RoleCamera        = "camera"
	RoleNightLight    = "night light"
)

// Catalog returns all 45 properties.
func Catalog() []Property {
	all := make([]Property, 0, 45)
	all = append(all, physicalCatalog()...)
	all = append(all,
		Property{ID: model.PropConflicting, Category: "Commands", Kind: Event,
			Description: "When a single external event happens, an actuator should not receive two conflicting commands"},
		Property{ID: model.PropRepeated, Category: "Commands", Kind: Event,
			Description: "When a single event happens, an actuator should not receive repeated commands of the same type"},
		Property{ID: model.PropLeakNetwork, Category: "Leakage", Kind: Event,
			Description: "Private information is sent out via message interfaces only, never via network interfaces"},
		Property{ID: model.PropLeakSMS, Category: "Leakage", Kind: Event,
			Description: "Recipients of messaging methods match the configured phone numbers or contacts"},
		Property{ID: model.PropSuspUnsub, Category: "Leakage", Kind: Event,
			Description: "No security-sensitive unsubscribe command is executed at run time"},
		Property{ID: model.PropSuspFakeEvent, Category: "Leakage", Kind: Event,
			Description: "No fake physical events are generated by apps"},
		Property{ID: model.PropRobustness, Category: "Robustness", Kind: Event,
			Description: "An app should verify that actuator commands were acted upon and notify the user when one is lost — to a transient failure or to a persistent device outage that silently drops it"},
	)
	return all
}

// IDs returns the catalog property ids.
func IDs() []string {
	var out []string
	for _, p := range Catalog() {
		out = append(out, p.ID)
	}
	return out
}

// ByID returns a catalog property.
func ByID(id string) (Property, bool) {
	for _, p := range Catalog() {
		if p.ID == id {
			return p, true
		}
	}
	return Property{}, false
}

// Applicable reports whether a physical property's required roles and
// capabilities exist in the system.
func (p *Property) Applicable(sys *config.System) bool {
	if p.Kind != Physical {
		return true
	}
	for _, r := range p.Roles {
		if len(sys.DevicesByAssociation(r)) == 0 {
			return false
		}
	}
	for _, c := range p.Capabilities {
		if !systemHasCapability(sys, c) {
			return false
		}
	}
	return true
}

func systemHasCapability(sys *config.System, capName string) bool {
	for _, d := range sys.Devices {
		if m := modelOf(d.Model); m != nil && m.HasCapability(capName) {
			return true
		}
	}
	return false
}

// Compile builds the predicate of one physical property on its own: the
// formula run straight over the atom predicates, every atom it names
// scanned on every call — no valuation word, no verdict cache. It shares
// the atom builders with CompileCatalog and nothing else, which makes it
// the twin the catalog path is tested against. The predicate holds on a
// state that satisfies the property, and reads device indexes: it is
// valid only on states of models over sys's device list.
func (p *Property) Compile(sys *config.System, th Thresholds) (func(*model.State) bool, error) {
	plan, err := model.Prepare(sys)
	if err != nil {
		return nil, err
	}
	atoms := commonAtoms(plan, th)
	return bind(p, atoms, func(slot int) func(*model.State) bool { return atoms[slot].Holds })
}

// bind binds the property's propositional body to evaluators over T,
// one per slot of atoms: stepping it is then closed closure calls with
// no per-evaluation environment closure or atom map lookups.
func bind[T any](p *Property, atoms []model.Atom, bySlot func(slot int) func(T) bool) (func(T) bool, error) {
	if p.Kind != Physical {
		return nil, fmt.Errorf("props: %s is not a physical property", p.ID)
	}
	body, err := ltl.Parse(p.LTL)
	if err != nil {
		return nil, fmt.Errorf("props: %s: %w", p.ID, err)
	}
	bound, err := ltl.Bind(body, func(name string) func(T) bool {
		// alarm_active is alarm_off's negation: it has no slot, scan or
		// read-set of its own.
		negate := name == "alarm_active"
		if negate {
			name = "alarm_off"
		}
		for slot := range atoms {
			if atoms[slot].Name != name {
				continue
			}
			a := bySlot(slot)
			if negate {
				return func(v T) bool { return !a(v) }
			}
			return a
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("props: %s: %w", p.ID, err)
	}
	return bound, nil
}

// CompileInvariants compiles every applicable physical property (or the
// selected subset when ids is non-nil) under th against a system: the
// one-shot form of CompileCatalog, over a device table of its own. The
// result fits any model over an equal device list.
func CompileInvariants(sys *config.System, ids []string, th Thresholds) ([]model.Invariant, error) {
	plan, err := model.Prepare(sys)
	if err != nil {
		return nil, err
	}
	return compileCatalog(plan, ids, th)
}

// CompileCatalog compiles every applicable physical property (or the
// selected subset when ids is non-nil) under DefaultThresholds against
// plan's device table: one atom table, resolved to device and attribute
// indexes here and shared by every property, each of which becomes a
// function of the table's valuation word — atom i is a test of bit i.
// The table and the invariants are immutable, so one catalog serves
// every model built from the plan, from any number of goroutines;
// model.Plan.Build rejects any other device list.
func CompileCatalog(plan *model.Plan, ids []string) ([]model.Invariant, error) {
	return compileCatalog(plan, ids, DefaultThresholds())
}

// compileCatalog is CompileCatalog under th.
func compileCatalog(plan *model.Plan, ids []string, th Thresholds) ([]model.Invariant, error) {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	atoms := commonAtoms(plan, th)
	table, err := plan.NewAtomTable(atoms)
	if err != nil {
		return nil, err
	}
	bit := func(slot int) func(uint64) bool {
		mask := uint64(1) << uint(slot)
		return func(word uint64) bool { return word&mask != 0 }
	}
	var out []model.Invariant
	for _, p := range Catalog() {
		if p.Kind != Physical {
			continue
		}
		if ids != nil && !want[p.ID] {
			continue
		}
		if !p.Applicable(plan.Cfg) {
			continue
		}
		over, err := bind(&p, atoms, bit)
		if err != nil {
			return nil, err
		}
		out = append(out, model.Invariant{
			ID:          p.ID,
			Description: p.Description,
			Atoms:       table,
			Over:        over,
		})
	}
	return out, nil
}
