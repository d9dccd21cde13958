package device

import (
	"slices"
	"sort"
	"testing"
)

// TestIsAttribute: every attribute of every registered capability is
// reported, and names that are only commands, capabilities or nothing
// at all are not.
func TestIsAttribute(t *testing.T) {
	n := 0
	for _, cn := range Capabilities() {
		for _, a := range CapabilityByName(cn).Attributes {
			n++
			if !IsAttribute(a.Name) {
				t.Errorf("capability %s: attribute %q not reported", cn, a.Name)
			}
		}
	}
	if n == 0 {
		t.Fatal("no capability attributes registered")
	}
	for _, name := range []string{"", "setLevel", "presenceSensor", "unlock", "Switch", "no-such-attribute"} {
		if IsAttribute(name) {
			t.Errorf("%q reported as an attribute", name)
		}
	}
}

// TestCapabilitiesSorted: Capabilities lists every registered name once,
// in sorted order.
func TestCapabilitiesSorted(t *testing.T) {
	caps := Capabilities()
	if len(caps) != len(capabilities) {
		t.Fatalf("%d names for %d registered capabilities", len(caps), len(capabilities))
	}
	for i := 1; i < len(caps); i++ {
		if caps[i-1] >= caps[i] {
			t.Errorf("capabilities not strictly ascending at %d: %q, %q", i, caps[i-1], caps[i])
		}
	}
}

// TestCommandAttributes: the registration-time index answers what a scan
// of every capability in name order, sorted afterwards, answers — for
// every registered command name and for names that are no command.
func TestCommandAttributes(t *testing.T) {
	scan := func(name string) []string {
		var out []string
		for _, cn := range Capabilities() {
			if cmd := CapabilityByName(cn).Command(name); cmd != nil && cmd.Attribute != "" {
				out = append(out, cmd.Attribute)
			}
		}
		sort.Strings(out)
		return out
	}
	names := []string{"", "switch", "motion", "noSuchCommand"}
	for _, cn := range Capabilities() {
		for _, cmd := range CapabilityByName(cn).Commands {
			names = append(names, cmd.Name)
		}
	}
	for _, name := range names {
		if got, want := CommandAttributes(name), scan(name); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Errorf("CommandAttributes(%q) = %q, want %q", name, got, want)
		}
	}
}
