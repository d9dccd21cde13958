package props_test

import (
	"fmt"
	"math/rand"
	"slices"
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
		} else if inv.ID != p.ID || inv.Holds == nil || inv.Atoms != nil || inv.DeviceKey == "" {
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
		if inv.Over == nil || inv.Holds != nil || inv.Atoms != invs[0].Atoms || len(inv.Atoms.Atoms) != props.NumSlots {
			t.Errorf("invariant %s is not a function of the catalog's one atom table: %+v", inv.ID, inv)
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

// The atom table fits one 64-bit valuation word.
func TestAtomSlotsFitOneWord(t *testing.T) {
	if props.NumSlots > model.MaxAtoms {
		t.Fatalf("the atom catalog has %d atoms, a valuation word holds %d", props.NumSlots, model.MaxAtoms)
	}
	plan, err := model.Prepare(fullSystem())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.NewAtomTable(make([]model.Atom, model.MaxAtoms+1)); err == nil {
		t.Error("an atom table wider than the word was accepted")
	}
}

// An atom is re-evaluated only on a state whose transition wrote a
// device in its declared Reads (or the mode, with ReadsMode), so the
// declaration must cover everything the predicate reads. On random
// states of the full-catalog system, rewriting any attribute of any
// device — or the mode — changes no atom that does not declare the
// read; and no declaration is idle: every atom changes under some write
// inside its read-set.
func TestAtomReadSets(t *testing.T) {
	sys := fullSystem()
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(sys, nil, model.Options{Invariants: invs})
	if err != nil {
		t.Fatal(err)
	}
	table := invs[0].Atoms
	reads := make([]map[int]bool, len(table.Atoms)) // atom → devices declared
	for i, a := range table.Atoms {
		reads[i] = map[int]bool{}
		for _, r := range a.Reads {
			reads[i][int(r.Dev)] = true
		}
		if a.Name == "" || a.Holds == nil {
			t.Fatalf("slot %d has no atom", i)
		}
	}

	rng := rand.New(rand.NewSource(22))
	// pick draws a value of the attribute's domain: any enum index; for
	// a numeric one its generated values or anything around the
	// catalog's thresholds.
	pick := func(a device.Attribute) int16 {
		if !a.Numeric {
			return int16(rng.Intn(len(a.Values)))
		}
		if len(a.GenValues) > 0 && rng.Intn(2) == 0 {
			return int16(a.GenValues[rng.Intn(len(a.GenValues))])
		}
		return int16(rng.Intn(131) - 10)
	}
	flipped := make([]bool, len(table.Atoms))
	s := m.Initial()
	for trial := 0; trial < 60; trial++ {
		for d, dev := range m.Devices {
			for j, a := range dev.Attrs {
				s.Devices[d].Attrs[j] = pick(a)
			}
		}
		s.Mode = uint8(rng.Intn(len(m.Cfg.Modes)))
		before := table.Valuation(s)
		check := func(what string, declared func(atom int) bool) {
			changed := before ^ table.Valuation(s)
			for i := range table.Atoms {
				if changed&(1<<uint(i)) == 0 {
					continue
				}
				flipped[i] = true
				if !declared(i) {
					t.Fatalf("trial %d: atom %s changed with %s, which it does not declare reading", trial, table.Atoms[i].Name, what)
				}
			}
		}
		for d, dev := range m.Devices {
			for j, a := range dev.Attrs {
				old := s.Devices[d].Attrs[j]
				for k := 0; k < 4; k++ {
					s.Devices[d].Attrs[j] = pick(a)
					check(fmt.Sprintf("%s.%s", dev.ID, a.Name), func(i int) bool { return reads[i][d] })
				}
				s.Devices[d].Attrs[j] = old
			}
		}
		old := s.Mode
		for mode := range m.Cfg.Modes {
			s.Mode = uint8(mode)
			check("the mode", func(i int) bool { return table.Atoms[i].ReadsMode })
		}
		s.Mode = old
	}
	for i, a := range table.Atoms {
		if !flipped[i] {
			t.Errorf("atom %s (reads %d devices, mode %v) never changed under a write inside its read-set", a.Name, len(reads[i]), a.ReadsMode)
		}
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

// The shared catalog (one atom table, one valuation word per state, one
// verdict per distinct word) agrees state by state with twins compiled
// one property at a time, each over a device table and atom table of its
// own and run atom by atom on a View.
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
		var want []string
		for _, twin := range twins {
			if !twin.Holds(&model.View{M: m, S: s}) {
				want = append(want, twin.ID)
				violated[twin.ID] = true
			}
		}
		var got []string
		for _, v := range m.Inspect(s) {
			got = append(got, v.Property)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("state %d: the shared catalog reports %q, the twins %q", len(seen), got, want)
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
