package model

import (
	"iotsan/internal/ir"
)

// View is a read-only window over one state by device, attribute and
// mode name: what an opaque invariant (Invariant.Holds) queries.
type View struct {
	M *Model
	S *State
}

// Mode returns the current location mode.
func (v *View) Mode() string { return v.M.Cfg.Modes[v.S.Mode] }

// Attr reads an attribute of a device by index.
func (v *View) Attr(dev int, attr string) (ir.Value, bool) {
	return v.M.AttrValue(v.S, dev, attr)
}

// ByAssociation is Plan.ByAssociation for the view's model.
func (v *View) ByAssociation(assoc string) []*DevInst { return v.M.byAssoc[assoc] }

// ByCapability is Plan.ByCapability for the view's model.
func (v *View) ByCapability(capName string) []*DevInst { return v.M.byCap[capName] }

// AttrEquals reports whether the device's attribute currently holds the
// given string value, resolving the names on every call — an invariant
// evaluated per state should resolve them once (EnumRefs) and use
// State.AnyEq/AllEq.
func (v *View) AttrEquals(d *DevInst, attr, value string) bool {
	i := d.AttrIndex(attr)
	if i < 0 {
		return false
	}
	a := &d.Attrs[i]
	if a.Numeric {
		return false
	}
	raw := int(v.S.Devices[d.Idx].Attrs[i])
	return raw < len(a.Values) && a.Values[raw] == value
}

// AttrNumber returns a numeric attribute value (see AttrEquals on
// resolving once: NumRefs and Raw).
func (v *View) AttrNumber(d *DevInst, attr string) (int64, bool) {
	i := d.AttrIndex(attr)
	if i < 0 || !d.Attrs[i].Numeric {
		return 0, false
	}
	return int64(v.S.Devices[d.Idx].Attrs[i]), true
}

// AttrRef is one device attribute resolved to state indexes, with — for
// an enum test — the index of the value tested for. Resolving an atom's
// device lists and attribute and value names once per Plan leaves an
// int16 compare per device, and the refs an atom scans are the reads it
// declares (Atom.Reads).
type AttrRef struct {
	Dev, Attr int32
	Val       int16
}

// EnumRefs resolves the test "attr == value" on each of devs. A device
// on which it can never hold (no such attribute, a numeric one, or a
// value outside its enum) gets no ref and clears all: an any-of test
// skips it, an all-of test is false whatever the state.
func EnumRefs(devs []*DevInst, attr, value string) (refs []AttrRef, all bool) {
	all = true
	for _, d := range devs {
		i := d.AttrIndex(attr)
		k := -1
		if i >= 0 && !d.Attrs[i].Numeric {
			k = indexOf(d.Attrs[i].Values, value)
		}
		if k < 0 {
			all = false
			continue
		}
		refs = append(refs, AttrRef{Dev: int32(d.Idx), Attr: int32(i), Val: int16(k)})
	}
	return refs, all
}

// NumRefs resolves the numeric attribute attr on each of devs that has
// one (Val is unused).
func NumRefs(devs []*DevInst, attr string) []AttrRef {
	var refs []AttrRef
	for _, d := range devs {
		if i := d.AttrIndex(attr); i >= 0 && d.Attrs[i].Numeric {
			refs = append(refs, AttrRef{Dev: int32(d.Idx), Attr: int32(i)})
		}
	}
	return refs
}

// Raw returns the encoded value of the attribute r names.
func (s *State) Raw(r AttrRef) int16 { return s.Devices[r.Dev].Attrs[r.Attr] }

// AnyEq reports whether any of the enum tests holds.
func (s *State) AnyEq(refs []AttrRef) bool {
	for _, r := range refs {
		if s.Raw(r) == r.Val {
			return true
		}
	}
	return false
}

// AllEq reports whether every one of the enum tests holds.
func (s *State) AllEq(refs []AttrRef) bool {
	for _, r := range refs {
		if s.Raw(r) != r.Val {
			return false
		}
	}
	return true
}

// Watch is the enum tests behind the View's built-in predicates — a
// sensor of the kind reporting the value — resolved against the plan's
// device inventory at Prepare. The catalog's atoms of the same meaning
// are built from these refs (props).
type Watch struct {
	Presence, Motion, Smoke, CO, Leak []AttrRef
	NoPresenceSensors                 bool
}

// Watch returns the plan's resolved built-in predicates.
func (p *Plan) Watch() Watch { return p.watch }

func (p *Plan) resolveViewWatch() Watch {
	anyOf := func(capName, attr, value string) []AttrRef {
		refs, _ := EnumRefs(p.byCap[capName], attr, value)
		return refs
	}
	return Watch{
		Presence:          anyOf("presenceSensor", "presence", "present"),
		Motion:            anyOf("motionSensor", "motion", "active"),
		Smoke:             anyOf("smokeDetector", "smoke", "detected"),
		CO:                anyOf("carbonMonoxideDetector", "carbonMonoxide", "detected"),
		Leak:              anyOf("waterSensor", "water", "wet"),
		NoPresenceSensors: len(p.byCap["presenceSensor"]) == 0,
	}
}

// AnyoneHome reports whether any presence sensor reports "present".
// Without presence sensors the home is conservatively considered
// occupied (presence-conditioned properties never fire).
func (v *View) AnyoneHome() bool {
	return v.M.watch.NoPresenceSensors || v.S.AnyEq(v.M.watch.Presence)
}

// AnyMotion reports whether any motion sensor is active.
func (v *View) AnyMotion() bool { return v.S.AnyEq(v.M.watch.Motion) }

// SmokeDetected reports whether any smoke detector reports smoke.
func (v *View) SmokeDetected() bool { return v.S.AnyEq(v.M.watch.Smoke) }
