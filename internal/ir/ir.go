// Package ir defines the intermediate representation that smart apps are
// translated into before model generation — the analogue of the Bandera
// BIR stage in the IotSan pipeline (§6). An ir.App carries the app's
// metadata, its configuration surface (inputs), its event wiring
// (subscriptions and schedules), and its executable method bodies
// (Groovy ASTs annotated with inferred types).
package ir

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"iotsan/internal/groovy"
)

// InputKind classifies a preferences input.
type InputKind int

// Input kinds.
const (
	InputDevice InputKind = iota // capability.*
	InputNumber                  // number / decimal
	InputEnum
	InputText
	InputBool
	InputTime
	InputPhone
	InputContact
	InputMode
	InputIcon // decorative, ignored by the model
)

func (k InputKind) String() string {
	switch k {
	case InputDevice:
		return "device"
	case InputNumber:
		return "number"
	case InputEnum:
		return "enum"
	case InputText:
		return "text"
	case InputBool:
		return "bool"
	case InputTime:
		return "time"
	case InputPhone:
		return "phone"
	case InputContact:
		return "contact"
	case InputMode:
		return "mode"
	case InputIcon:
		return "icon"
	}
	return fmt.Sprintf("InputKind(%d)", int(k))
}

// Input is one user-configurable binding declared in preferences (Fig. 1).
type Input struct {
	Name       string
	Kind       InputKind
	Capability string // for InputDevice: "switch", "motionSensor", ...
	Title      string
	Multiple   bool
	Required   bool // SmartThings defaults required to true
	Options    []string
	Default    Value
}

// Subscription is one subscribe(...) registration: the app asks to be
// notified of events from a device input, the location, or the app itself.
type Subscription struct {
	Source    string // input name, or "location" / "app"
	Attribute string // event attribute ("contact"), or "" for all
	Value     string // specific value filter ("contact.open"), "" for any
	Handler   string // method name invoked
}

// ScheduleKind distinguishes timer registrations.
type ScheduleKind int

// Schedule kinds.
const (
	ScheduleCron  ScheduleKind = iota // schedule("0 0 ...", handler) / schedule(time, handler)
	ScheduleRunIn                     // runIn(seconds, handler)
)

// Schedule is one timer registration.
type Schedule struct {
	Kind    ScheduleKind
	Seconds int64 // delay for runIn; period approximation for cron
	Handler string
}

// App is a translated smart app.
type App struct {
	Name        string
	Namespace   string
	Description string
	Category    string

	Inputs        []Input
	Subscriptions []Subscription
	Schedules     []Schedule

	// Methods holds every method body keyed by name. Handler methods are
	// those referenced by Subscriptions/Schedules.
	Methods map[string]*groovy.MethodDecl

	// Fields lists script-level variables (rare in market apps).
	Fields []string

	// Source retains the original Groovy for diagnostics.
	Source string
}

// Input returns the input with the given name, or nil.
func (a *App) Input(name string) *Input {
	for i := range a.Inputs {
		if a.Inputs[i].Name == name {
			return &a.Inputs[i]
		}
	}
	return nil
}

// HandlerNames returns the set of methods registered as event or timer
// handlers, sorted.
func (a *App) HandlerNames() []string {
	set := map[string]bool{}
	for _, s := range a.Subscriptions {
		set[s.Handler] = true
	}
	for _, s := range a.Schedules {
		set[s.Handler] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		if _, ok := a.Methods[n]; ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// ---- Types (inference results) ----

// TypeKind is the base kind of an inferred type.
type TypeKind int

// Type kinds.
const (
	KindDynamic TypeKind = iota
	KindBool
	KindInt
	KindNum
	KindString
	KindDevice
	KindList
	KindMap
	KindNull
	KindVoid
	KindEvent    // event object passed to handlers
	KindLocation // the location object
)

// Type is an inferred static type; Elem is set for lists, Capability for
// devices.
type Type struct {
	Kind       TypeKind
	Elem       *Type
	Capability string
}

// Common types.
var (
	Dynamic = Type{Kind: KindDynamic}
	Bool    = Type{Kind: KindBool}
	Int     = Type{Kind: KindInt}
	Num     = Type{Kind: KindNum}
	String  = Type{Kind: KindString}
	Null    = Type{Kind: KindNull}
	Event   = Type{Kind: KindEvent}
)

// IsNumericKind reports whether the type is int or decimal.
func (t Type) IsNumericKind() bool { return t.Kind == KindInt || t.Kind == KindNum }

// DeviceType returns the type of a device exposing the given capability.
func DeviceType(capability string) Type {
	return Type{Kind: KindDevice, Capability: capability}
}

// ListOf returns the type of a homogeneous list.
func ListOf(elem Type) Type {
	e := elem
	return Type{Kind: KindList, Elem: &e}
}

func (t Type) String() string {
	switch t.Kind {
	case KindDynamic:
		return "def"
	case KindBool:
		return "boolean"
	case KindInt:
		return "int"
	case KindNum:
		return "decimal"
	case KindString:
		return "String"
	case KindDevice:
		if t.Capability != "" {
			return "Device<" + t.Capability + ">"
		}
		return "Device"
	case KindList:
		if t.Elem != nil {
			return t.Elem.String() + "[]"
		}
		return "List"
	case KindMap:
		return "Map"
	case KindNull:
		return "null"
	case KindVoid:
		return "void"
	case KindEvent:
		return "Event"
	case KindLocation:
		return "Location"
	}
	return fmt.Sprintf("Type(%d)", int(t.Kind))
}

// ---- Runtime values ----

// ValueKind discriminates Value.
type ValueKind uint8

// Value kinds.
const (
	VNull ValueKind = iota
	VBool
	VInt
	VNum
	VStr
	VList
	VMap
	VDevice  // reference to a device instance (index into the system)
	VDevices // multi-bound device input
	VClosure // closure value (AST reference)
	VTime    // model time value (seconds)
)

// Value is a runtime value in the evaluator and in persisted app state.
// The zero Value is null. It is five words, so operands, frame slots and
// persisted state slots move by a few register-sized copies: the kind,
// one payload word for whichever scalar the kind has (bool, int64 or
// time, float64 bits, device index), the string, and one reference to a
// box for the kinds that own a container or a closure. Build values with
// the constructors and read them through the accessors below.
type Value struct {
	Kind ValueKind
	w    uint64
	S    string
	box  *box
}

// box is what a VList/VDevices, VMap or VClosure value refers to. A copy
// of the Value shares it, as a copied slice header shares its array.
type box struct {
	l       []Value
	m       map[string]Value
	closure *groovy.ClosureExpr
}

var noBox box

// Convenience constructors.
func NullV() Value { return Value{} }
func BoolV(b bool) Value {
	if b {
		return Value{Kind: VBool, w: 1}
	}
	return Value{Kind: VBool}
}
func IntV(i int64) Value    { return Value{Kind: VInt, w: uint64(i)} }
func NumV(f float64) Value  { return Value{Kind: VNum, w: math.Float64bits(f)} }
func StrV(s string) Value   { return Value{Kind: VStr, S: s} }
func ListV(l []Value) Value { return Value{Kind: VList, box: &box{l: l}} }
func DeviceV(idx int) Value { return Value{Kind: VDevice, w: uint64(int64(idx))} }
func DevicesV(l []Value) Value {
	return Value{Kind: VDevices, box: &box{l: l}}
}
func MapV(m map[string]Value) Value { return Value{Kind: VMap, box: &box{m: m}} }
func ClosureV(c *groovy.ClosureExpr) Value {
	return Value{Kind: VClosure, box: &box{closure: c}}
}

// Accessors: B of a VBool, I of a VInt or VTime, F of a VNum, Dev (the
// device instance index) of a VDevice, L of a VList or VDevices, M of a
// VMap, Closure of a VClosure — each the zero of its type on any other
// kind (AsInt/AsFloat are the coercing reads). L and M are the value's
// own slice and map: a write through them reaches every copy.
func (v Value) B() bool                      { return v.Kind == VBool && v.w != 0 }
func (v Value) I() int64                     { return int64(v.word(VInt, VTime)) }
func (v Value) F() float64                   { return math.Float64frombits(v.word(VNum, VNum)) }
func (v Value) Dev() int                     { return int(int64(v.word(VDevice, VDevice))) }
func (v Value) L() []Value                   { return v.ref().l }
func (v Value) M() map[string]Value          { return v.ref().m }
func (v Value) Closure() *groovy.ClosureExpr { return v.ref().closure }

func (v Value) word(k1, k2 ValueKind) uint64 {
	if v.Kind == k1 || v.Kind == k2 {
		return v.w
	}
	return 0
}

func (v Value) ref() *box {
	if v.box == nil {
		return &noBox
	}
	return v.box
}

// Truthy implements Groovy truth: null/false/0/""/empty collections are
// false, everything else true.
func (v Value) Truthy() bool {
	switch v.Kind {
	case VNull:
		return false
	case VBool, VInt:
		return v.w != 0
	case VNum:
		return v.F() != 0
	case VStr:
		return v.S != ""
	case VList, VDevices:
		return len(v.L()) > 0
	case VMap:
		return len(v.M()) > 0
	}
	return true
}

// IsNumeric reports whether v is an int or decimal.
func (v Value) IsNumeric() bool { return v.Kind == VInt || v.Kind == VNum }

// AsFloat returns the numeric value of v (0 for non-numerics).
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case VInt:
		return float64(int64(v.w))
	case VNum:
		return math.Float64frombits(v.w)
	case VBool:
		if v.w != 0 {
			return 1
		}
	}
	return 0
}

// AsInt returns the value truncated to int64.
func (v Value) AsInt() int64 {
	if v.Kind == VNum {
		return int64(v.F())
	}
	return v.I()
}

// Equal compares two values Groovy-style: numerics compare by value
// across int/decimal, strings by content.
func (v Value) Equal(o Value) bool {
	if v.IsNumeric() && o.IsNumeric() {
		return v.AsFloat() == o.AsFloat()
	}
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case VNull:
		return true
	case VBool, VDevice:
		return v.w == o.w
	case VStr:
		return v.S == o.S
	case VList, VDevices:
		vl, ol := v.L(), o.L()
		if len(vl) != len(ol) {
			return false
		}
		for i := range vl {
			if !vl[i].Equal(ol[i]) {
				return false
			}
		}
		return true
	case VMap:
		vm, om := v.M(), o.M()
		if len(vm) != len(om) {
			return false
		}
		for k, a := range vm {
			b, ok := om[k]
			if !ok || !a.Equal(b) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the value Groovy-style (used for GString interpolation).
func (v Value) String() string {
	switch v.Kind {
	case VNull:
		return "null"
	case VBool:
		if v.B() {
			return "true"
		}
		return "false"
	case VInt:
		return fmt.Sprintf("%d", v.I())
	case VNum:
		return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.4f", v.F()), "0"), ".")
	case VStr:
		return v.S
	case VList, VDevices:
		parts := make([]string, len(v.L()))
		for i, e := range v.L() {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case VMap:
		m := v.M()
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + ":" + m[k].String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case VDevice:
		return fmt.Sprintf("device#%d", v.Dev())
	case VClosure:
		return "{ ... }"
	case VTime:
		return fmt.Sprintf("t+%ds", v.I())
	}
	return "?"
}

// Encode appends a deterministic binary encoding of v to buf, for state
// hashing. The encoding is unambiguous (kind-tagged, length-prefixed).
func (v Value) Encode(buf []byte) []byte {
	return v.EncodeMapped(buf, nil)
}

// EncodeMapped is Encode with device references renumbered through
// devMap (old index → new index; indices outside devMap pass through).
// The symmetry-reduction layer uses it to encode app state under an
// orbit permutation without materializing renamed values. A nil devMap
// is the identity — Encode delegates here, so the two paths share one
// switch and a future Value kind cannot diverge between raw and
// canonical encodings.
func (v Value) EncodeMapped(buf []byte, devMap []int32) []byte {
	buf, _ = v.EncodeMappedDev(buf, devMap)
	return buf
}

// EncodeMappedDev is EncodeMapped additionally reporting whether the
// value (recursively) contains a device reference. The incremental
// encoder uses the bit to decide which cached app-block hashes survive
// a device renumbering: a block whose last encoding carried no VDevice
// is invariant under every devMap.
func (v Value) EncodeMappedDev(buf []byte, devMap []int32) ([]byte, bool) {
	hasDev := false
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case VBool:
		buf = append(buf, byte(v.w))
	case VInt, VTime:
		buf = appendInt64(buf, int64(v.w))
	case VNum:
		buf = appendInt64(buf, int64(v.F()*1000))
	case VStr:
		buf = appendString(buf, v.S)
	case VDevice:
		hasDev = true
		buf = appendInt64(buf, int64(mapDev(v.Dev(), devMap)))
	case VList, VDevices:
		l := v.L()
		buf = appendInt64(buf, int64(len(l)))
		for i := range l {
			var h bool
			buf, h = l[i].EncodeMappedDev(buf, devMap)
			hasDev = hasDev || h
		}
	case VMap:
		m := v.M()
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf = appendInt64(buf, int64(len(keys)))
		for _, k := range keys {
			buf = appendString(buf, k)
			var h bool
			buf, h = m[k].EncodeMappedDev(buf, devMap)
			hasDev = hasDev || h
		}
	}
	return buf, hasDev
}

// mapDev renumbers a device index (indices outside devMap pass through).
func mapDev(d int, devMap []int32) int {
	if d >= 0 && d < len(devMap) {
		return int(devMap[d])
	}
	return d
}

// MapDevices returns a deep copy of v with device references renumbered
// through devMap (nil = identity; v is returned unchanged).
func (v Value) MapDevices(devMap []int32) Value {
	if devMap == nil {
		return v
	}
	return v.deepCopy(devMap)
}

// Clone returns a deep copy of v: lists and maps get their own box and
// backing store, recursively, so no write through the copy reaches v.
func (v Value) Clone() Value { return v.deepCopy(nil) }

func (v Value) deepCopy(devMap []int32) Value {
	switch v.Kind {
	case VDevice:
		return DeviceV(mapDev(v.Dev(), devMap))
	case VList, VDevices:
		l := make([]Value, len(v.L()))
		for i, e := range v.L() {
			l[i] = e.deepCopy(devMap)
		}
		v.box = &box{l: l}
	case VMap:
		m := make(map[string]Value, len(v.M()))
		for k, e := range v.M() {
			m[k] = e.deepCopy(devMap)
		}
		v.box = &box{m: m}
	}
	return v
}

func appendInt64(buf []byte, v int64) []byte {
	u := uint64(v)
	return append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func appendString(buf []byte, s string) []byte {
	buf = appendInt64(buf, int64(len(s)))
	return append(buf, s...)
}
