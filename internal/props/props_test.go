package props_test

import (
	"fmt"
	"strings"
	"testing"

	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/device"
	"iotsan/internal/experiments"
	"iotsan/internal/ir"
	"iotsan/internal/ltl"
	"iotsan/internal/model"
	"iotsan/internal/props"
)

// fullSystem carries every association role the catalog binds to and a
// device of every registered model, hence every capability.
func fullSystem() *config.System {
	devs := experiments.HomeInventory()
	for i, name := range device.Models() {
		devs = append(devs, config.Device{ID: fmt.Sprintf("extra%d", i), Model: name})
	}
	devs = append(devs, config.Device{ID: "nightLight", Model: "Smart Bulb", Association: props.RoleNightLight})
	return &config.System{Name: "full", Devices: devs}
}

func physical() []props.Property {
	var out []props.Property
	for _, p := range props.Catalog() {
		if p.Kind == props.Physical {
			out = append(out, p)
		}
	}
	return out
}

// Every physical property parses, is an invariant monitor, is applicable
// on the full system and binds every atom it names; the catalog compile
// yields the same list in catalog order over one atom table.
func TestCatalogCompilesOnFullSystem(t *testing.T) {
	sys := fullSystem()
	th := props.DefaultThresholds()
	phys := physical()
	if len(phys) != 38 {
		t.Fatalf("%d physical properties, want 38", len(phys))
	}
	for _, p := range phys {
		f, err := ltl.Parse(p.LTL)
		if err != nil {
			t.Errorf("%s: %v", p.ID, err)
			continue
		}
		if mon, err := ltl.CompileSafety(f); err != nil || mon.Kind != ltl.Invariant {
			t.Errorf("%s: not an invariant monitor (%v)", p.ID, err)
		}
		if !p.Applicable(sys) {
			t.Errorf("%s: not applicable on the full system (roles %q, capabilities %q)", p.ID, p.Roles, p.Capabilities)
		}
		inv, err := p.Compile(sys, th)
		if err != nil {
			t.Errorf("%s: %v", p.ID, err)
		} else if inv.ID != p.ID || inv.Holds == nil || inv.DeviceKey == "" {
			t.Errorf("%s: compiled to %+v", p.ID, inv)
		}
	}

	plan, err := model.Prepare(sys)
	if err != nil {
		t.Fatal(err)
	}
	invs, err := props.CompileCatalog(plan, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != len(phys) {
		t.Fatalf("catalog compiled %d invariants, want %d", len(invs), len(phys))
	}
	for i, inv := range invs {
		if inv.ID != phys[i].ID || inv.DeviceKey != plan.DeviceKey() {
			t.Errorf("invariant %d is %s keyed %q, want %s keyed to the plan", i, inv.ID, inv.DeviceKey, phys[i].ID)
		}
	}
	if plan.Counts.AtomTables != 1 {
		t.Errorf("%d atom tables for one catalog compile, want 1", plan.Counts.AtomTables)
	}

	// A selection compiles exactly the selected, applicable properties.
	some, err := props.CompileCatalog(plan, []string{phys[3].ID, model.PropConflicting, phys[0].ID}, th)
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].ID != phys[0].ID || some[1].ID != phys[3].ID {
		t.Errorf("selection compiled %d invariants", len(some))
	}
	if _, err := (&props.Property{ID: model.PropConflicting, Kind: props.Event}).Compile(sys, th); err == nil {
		t.Error("an event property compiled to an invariant")
	}
}

func TestAtomSlotsFitViewMemo(t *testing.T) {
	if props.NumSlots > model.ViewMemoSlots {
		t.Fatalf("the atom catalog uses %d memo slots, model.ViewMemoSlots is %d", props.NumSlots, model.ViewMemoSlots)
	}
}

func corpusGroup(t *testing.T, g int) (*config.System, map[string]*ir.App) {
	t.Helper()
	sources := corpus.Group(g)
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	return experiments.ExpertConfig(fmt.Sprintf("group%d", g), sources, apps), apps
}

// The shared catalog (one atom table, one View memo per state for all
// properties) agrees state by state with twins compiled one property at
// a time, each over a device table and atom table of its own and
// evaluated on a View of its own.
func TestSharedCatalogMatchesPerPropertyCompile(t *testing.T) {
	sys, apps := corpusGroup(t, 3)
	th := props.DefaultThresholds()
	shared, err := props.CompileInvariants(sys, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	var twins []model.Invariant
	for _, p := range physical() {
		if !p.Applicable(sys) {
			continue
		}
		inv, err := p.Compile(sys, th)
		if err != nil {
			t.Fatal(err)
		}
		twins = append(twins, inv)
	}
	if len(twins) != len(shared) || len(shared) == 0 {
		t.Fatalf("%d shared invariants, %d twins", len(shared), len(twins))
	}
	m, err := model.New(sys, apps, model.Options{MaxEvents: 2, Invariants: shared})
	if err != nil {
		t.Fatal(err)
	}

	const budget = 4000
	init := m.Initial()
	seen := map[string]bool{string(init.Encode(nil)): true}
	violated := map[string]bool{}
	for queue := []*model.State{init}; len(queue) > 0; queue = queue[1:] {
		s := queue[0]
		view := &model.View{M: m, S: s}
		for i, inv := range shared {
			got, want := inv.Holds(view), twins[i].Holds(&model.View{M: m, S: s})
			if got != want {
				t.Fatalf("state %d: %s holds = %v on the shared catalog, %v on its twin", len(seen), inv.ID, got, want)
			}
			if !got {
				violated[inv.ID] = true
			}
		}
		for _, tr := range m.Expand(s) {
			next := tr.Next.(*model.State)
			if key := string(next.Encode(nil)); !seen[key] && len(seen) < budget {
				seen[key] = true
				queue = append(queue, next)
			}
		}
	}
	// Not vacuous: the walk met states on both sides of some invariants.
	if len(seen) < 1000 || len(violated) < 3 {
		t.Fatalf("walked %d states, %d invariants ever false: too little to compare", len(seen), len(violated))
	}
	t.Logf("%d states × %d invariants, %d false somewhere", len(seen), len(shared), len(violated))
}

// A catalog's atoms hold device indexes: a model over any other device
// list must be refused, not searched.
func TestCatalogRefusesOtherDeviceList(t *testing.T) {
	sysA, apps := corpusGroup(t, 3)
	invs, err := props.CompileInvariants(sysA, nil, props.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.New(sysA, apps, model.Options{Invariants: invs}); err != nil {
		t.Fatalf("one-shot catalog and one-shot model over the same devices: %v", err)
	}

	others := map[string]func(d []config.Device) []config.Device{
		"reordered": func(d []config.Device) []config.Device { d[0], d[1] = d[1], d[0]; return d },
		"one fewer": func(d []config.Device) []config.Device { return d[:len(d)-1] },
		"other model": func(d []config.Device) []config.Device {
			d[len(d)-1].Model = "Smart Bulb"
			return d
		},
		"other role": func(d []config.Device) []config.Device {
			d[len(d)-1].Association = props.RoleHeater
			return d
		},
	}
	for name, change := range others {
		sysB := *sysA
		sysB.Devices = change(append([]config.Device(nil), sysA.Devices...))
		sysB.Apps = nil // the last device may be bound; the guard is about devices alone
		_, err := model.New(&sysB, apps, model.Options{Invariants: invs})
		if err == nil || !strings.Contains(err.Error(), "different device list") {
			t.Errorf("%s: model.New accepted a catalog compiled for another device list (err = %v)", name, err)
		}
	}
}
