package model

import (
	"iotsan/internal/ir"
)

// ViewMemoSlots is the size of the View's per-state atom memo table
// (see View.Memo). The props package assigns one slot per shared atom
// name; the constant leaves headroom for catalog growth.
const ViewMemoSlots = 48

// View is a read-only window over one state, used by property monitors
// (the props package builds Invariants whose atoms query a View).
type View struct {
	M *Model
	S *State

	// memo caches shared atom results for this state: the invariant
	// catalog re-evaluates the same named predicates (anyone_home,
	// mode_away, ...) across dozens of properties, and Inspect builds
	// one View per state, so each memoized atom runs its device scan
	// once. 0 = unevaluated, 1 = false, 2 = true.
	memo [ViewMemoSlots]uint8
}

// Memo returns f(v), computing it at most once per View per slot. Slots
// are assigned by the atom catalog (props); predicates must be pure
// functions of the underlying state.
func (v *View) Memo(slot int, f func(*View) bool) bool {
	if m := v.memo[slot]; m != 0 {
		return m == 2
	}
	r := f(v)
	if r {
		v.memo[slot] = 2
	} else {
		v.memo[slot] = 1
	}
	return r
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
// AnyEq/AllEq.
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
// an enum test — the index of the value tested for. Invariant atoms run
// on every stored state; resolving their device lists and attribute and
// value names once per Plan leaves an int16 compare per device.
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
func (v *View) Raw(r AttrRef) int16 { return v.S.Devices[r.Dev].Attrs[r.Attr] }

// AnyEq reports whether any of the enum tests holds.
func (v *View) AnyEq(refs []AttrRef) bool {
	for _, r := range refs {
		if v.Raw(r) == r.Val {
			return true
		}
	}
	return false
}

// AllEq reports whether every one of the enum tests holds.
func (v *View) AllEq(refs []AttrRef) bool {
	for _, r := range refs {
		if v.Raw(r) != r.Val {
			return false
		}
	}
	return true
}

// viewWatch is the View's built-in predicates resolved against the
// plan's device inventory at Prepare.
type viewWatch struct {
	presence, motion, smoke, co, leak []AttrRef
	noPresenceSensors                 bool
}

func (p *Plan) resolveViewWatch() viewWatch {
	anyOf := func(capName, attr, value string) []AttrRef {
		refs, _ := EnumRefs(p.byCap[capName], attr, value)
		return refs
	}
	return viewWatch{
		presence:          anyOf("presenceSensor", "presence", "present"),
		motion:            anyOf("motionSensor", "motion", "active"),
		smoke:             anyOf("smokeDetector", "smoke", "detected"),
		co:                anyOf("carbonMonoxideDetector", "carbonMonoxide", "detected"),
		leak:              anyOf("waterSensor", "water", "wet"),
		noPresenceSensors: len(p.byCap["presenceSensor"]) == 0,
	}
}

// AnyoneHome reports whether any presence sensor reports "present".
// Without presence sensors the home is conservatively considered
// occupied (presence-conditioned properties never fire).
func (v *View) AnyoneHome() bool {
	return v.M.watch.noPresenceSensors || v.AnyEq(v.M.watch.presence)
}

// AnyMotion reports whether any motion sensor is active.
func (v *View) AnyMotion() bool { return v.AnyEq(v.M.watch.motion) }

// SmokeDetected reports whether any smoke detector reports smoke.
func (v *View) SmokeDetected() bool { return v.AnyEq(v.M.watch.smoke) }

// CODetected reports whether any CO detector reports carbon monoxide.
func (v *View) CODetected() bool { return v.AnyEq(v.M.watch.co) }

// LeakDetected reports whether any water sensor is wet.
func (v *View) LeakDetected() bool { return v.AnyEq(v.M.watch.leak) }
