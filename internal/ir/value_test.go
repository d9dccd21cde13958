package ir

import (
	"fmt"
	"testing"
	"unsafe"

	"iotsan/internal/groovy"
)

// TestValueLayout pins the size the handler cascade copies per operand,
// frame slot and persisted state slot.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 40 {
		t.Fatalf("unsafe.Sizeof(ir.Value{}) = %d, want <= 40", n)
	}
}

// kindSamples has at least one value of every ValueKind, nested
// containers and device references on both sides of a remap included.
func kindSamples() map[string]Value {
	return map[string]Value{
		"null":   NullV(),
		"true":   BoolV(true),
		"false":  BoolV(false),
		"int":    IntV(-7),
		"bigint": IntV(1 << 40),
		"num":    NumV(72.5),
		"negnum": NumV(-0.0015),
		"str":    StrV("on"),
		"empty":  StrV(""),
		"list":   ListV([]Value{IntV(1), StrV("a"), ListV([]Value{BoolV(true)})}),
		"map": MapV(map[string]Value{
			"k": ListV([]Value{IntV(1), IntV(2)}),
			"a": MapV(map[string]Value{"z": DeviceV(2)}),
		}),
		"device":          DeviceV(1),
		"device-unmapped": DeviceV(3),
		"device-negative": DeviceV(-1),
		"devices":         DevicesV([]Value{DeviceV(0), DeviceV(2)}),
		"closure":         ClosureV(&groovy.ClosureExpr{}),
		"time":            {Kind: VTime, w: 3600},
	}
}

// TestEncodeGolden compares Encode, EncodeMappedDev (under the device
// remap 0→2, 1→0, 2→1) and String with the bytes the nine-field Value
// of the parent commit produced for the same values: expected.json and
// every stored digest depend on them.
func TestEncodeGolden(t *testing.T) {
	devMap := []int32{2, 0, 1}
	golden := []struct {
		name, raw, mapped string
		hasDev            bool
		str               string
	}{
		{"null", "00", "00", false, "null"},
		{"true", "0101", "0101", false, "true"},
		{"false", "0100", "0100", false, "false"},
		{"int", "02f9ffffffffffffff", "02f9ffffffffffffff", false, "-7"},
		{"bigint", "020000000000010000", "020000000000010000", false, "1099511627776"},
		{"num", "03341b010000000000", "03341b010000000000", false, "72.5"},
		{"negnum", "03ffffffffffffffff", "03ffffffffffffffff", false, "-0.0015"},
		{"str", "0402000000000000006f6e", "0402000000000000006f6e", false, "on"},
		{"empty", "040000000000000000", "040000000000000000", false, ""},
		{"list", "050300000000000000020100000000000000040100000000000000610501000000000000000101", "050300000000000000020100000000000000040100000000000000610501000000000000000101", false, "[1, a, [true]]"},
		{"map", "06020000000000000001000000000000006106010000000000000001000000000000007a07020000000000000001000000000000006b050200000000000000020100000000000000020200000000000000", "06020000000000000001000000000000006106010000000000000001000000000000007a07010000000000000001000000000000006b050200000000000000020100000000000000020200000000000000", true, "[a:[z:device#2], k:[1, 2]]"},
		{"device", "070100000000000000", "070000000000000000", true, "device#1"},
		{"device-unmapped", "070300000000000000", "070300000000000000", true, "device#3"},
		{"device-negative", "07ffffffffffffffff", "07ffffffffffffffff", true, "device#-1"},
		{"devices", "080200000000000000070000000000000000070200000000000000", "080200000000000000070200000000000000070100000000000000", true, "[device#0, device#2]"},
		{"closure", "09", "09", false, "{ ... }"},
		{"time", "0a100e000000000000", "0a100e000000000000", false, "t+3600s"},
	}
	samples := kindSamples()
	seen := map[ValueKind]bool{}
	for _, g := range golden {
		v, ok := samples[g.name]
		if !ok {
			t.Fatalf("no sample %q", g.name)
		}
		seen[v.Kind] = true
		if got := fmt.Sprintf("%x", v.Encode(nil)); got != g.raw {
			t.Errorf("%s: Encode = %s, want %s", g.name, got, g.raw)
		}
		mapped, hasDev := v.EncodeMappedDev(nil, devMap)
		if got := fmt.Sprintf("%x", mapped); got != g.mapped || hasDev != g.hasDev {
			t.Errorf("%s: EncodeMappedDev = %s, %v, want %s, %v", g.name, got, hasDev, g.mapped, g.hasDev)
		}
		if got := fmt.Sprintf("%x", v.MapDevices(devMap).Encode(nil)); got != g.mapped {
			t.Errorf("%s: MapDevices then Encode = %s, want %s", g.name, got, g.mapped)
		}
		if got := v.String(); got != g.str {
			t.Errorf("%s: String = %q, want %q", g.name, got, g.str)
		}
	}
	for k := VNull; k <= VTime; k++ {
		if !seen[k] {
			t.Errorf("no golden row of kind %d", k)
		}
	}
}

// TestValueAccessors round-trips every constructor through its accessor,
// Equal and Truthy, and checks that an accessor of another kind reads
// that type's zero rather than the shared payload word.
func TestValueAccessors(t *testing.T) {
	if !BoolV(true).B() || BoolV(false).B() || IntV(1).B() {
		t.Error("B")
	}
	if IntV(-7).I() != -7 || BoolV(true).I() != 0 || NumV(2).I() != 0 || DeviceV(4).I() != 0 {
		t.Error("I")
	}
	if NumV(72.5).F() != 72.5 || IntV(3).F() != 0 {
		t.Error("F")
	}
	if DeviceV(4).Dev() != 4 || DeviceV(-1).Dev() != -1 || IntV(4).Dev() != 0 {
		t.Error("Dev")
	}
	if NumV(2.9).AsInt() != 2 || IntV(2).AsFloat() != 2 || BoolV(true).AsFloat() != 1 || BoolV(true).AsInt() != 0 || StrV("2").AsInt() != 0 {
		t.Error("AsInt/AsFloat")
	}
	if l := ListV([]Value{IntV(1)}); len(l.L()) != 1 || l.M() != nil || l.Closure() != nil {
		t.Error("L")
	}
	if m := MapV(map[string]Value{"a": IntV(1)}); m.M()["a"].I() != 1 || m.L() != nil {
		t.Error("M")
	}
	cl := &groovy.ClosureExpr{}
	if ClosureV(cl).Closure() != cl || NullV().L() != nil || NullV().M() != nil || NullV().Closure() != nil {
		t.Error("Closure / box-less accessors")
	}

	truthy := map[string]bool{
		"null": false, "true": true, "false": false, "int": true, "bigint": true, "num": true,
		"negnum": true, "str": true, "empty": false, "list": true, "map": true, "device": true,
		"device-unmapped": true, "device-negative": true, "devices": true, "closure": true, "time": true,
	}
	samples := kindSamples()
	for name, v := range samples {
		if v.Truthy() != truthy[name] {
			t.Errorf("%s: Truthy = %v", name, v.Truthy())
		}
		// Closures and times have no equality (as before the slimming).
		wantSelf := v.Kind != VClosure && v.Kind != VTime
		if v.Equal(v.Clone()) != wantSelf {
			t.Errorf("%s: Equal(Clone) = %v, want %v", name, !wantSelf, wantSelf)
		}
		for other, o := range samples {
			if other != name && v.Equal(o) {
				t.Errorf("%s equals %s", name, other)
			}
		}
	}
	for _, v := range []Value{IntV(0), NumV(0), ListV(nil), DevicesV(nil), MapV(nil)} {
		if v.Truthy() {
			t.Errorf("%v is truthy", v)
		}
	}
	if !IntV(2).Equal(NumV(2)) || IntV(1).Equal(BoolV(true)) || DeviceV(1).Equal(IntV(1)) {
		t.Error("cross-kind Equal")
	}
}

// TestCloneDeepCopiesBox: a clone owns its list and map, at every depth,
// while a plain copy of the Value shares them.
func TestCloneDeepCopiesBox(t *testing.T) {
	inner := MapV(map[string]Value{"n": IntV(1)})
	orig := ListV([]Value{IntV(1), inner})
	alias, clone := orig, orig.Clone()

	clone.L()[0] = IntV(99)
	clone.L()[1].M()["n"] = IntV(99)
	if orig.L()[0].I() != 1 || orig.L()[1].M()["n"].I() != 1 {
		t.Fatalf("mutating the clone reached the original: %v", orig)
	}
	alias.L()[0] = IntV(7)
	if orig.L()[0].I() != 7 {
		t.Fatal("a copy of a list Value must share its backing slice")
	}
	if d := DevicesV([]Value{DeviceV(0)}).Clone(); d.Kind != VDevices || d.L()[0].Dev() != 0 {
		t.Fatalf("Clone lost the VDevices kind: %v", d)
	}
}
