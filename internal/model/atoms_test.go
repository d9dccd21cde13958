package model

import (
	"strings"
	"sync"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/ir"
)

// anyEqAtom is the atom "some ref's attribute holds its value".
func anyEqAtom(name string, refs []AttrRef) Atom {
	return Atom{Name: name, Reads: refs, Holds: func(s *State) bool { return s.AnyEq(refs) }}
}

// cascadeCatalog is a two-atom catalog over the cascade home: "the
// light is off while motion is active" never holds for long, "no motion"
// fails on every active state.
func cascadeCatalog(t *testing.T) []Invariant {
	t.Helper()
	plan, err := Prepare(cascadeConfig())
	if err != nil {
		t.Fatal(err)
	}
	motion, _ := EnumRefs(plan.ByCapability("motionSensor"), "motion", "active")
	on, _ := EnumRefs(plan.ByCapability("switch"), "switch", "on")
	table, err := plan.NewAtomTable([]Atom{anyEqAtom("motion_active", motion), anyEqAtom("light_on", on)})
	if err != nil {
		t.Fatal(err)
	}
	return []Invariant{
		{ID: "lit-when-moving", Description: "the light is on while motion is active", Atoms: table,
			Over: func(w uint64) bool { return w&1 == 0 || w&2 != 0 }},
		{ID: "still", Description: "no motion", Atoms: table, Over: func(w uint64) bool { return w&1 == 0 }},
	}
}

// TestInspectHitZeroAlloc is the allocation gate for Inspect by lookup:
// on a valuation the model has decided before, Inspect allocates nothing
// — no violation slice — whether every atom is stale or none,
// and it returns the violations decided the first time.
func TestInspectHitZeroAlloc(t *testing.T) {
	m := cascadeModelOpts(t, Options{MaxEvents: 3, Incremental: true, Invariants: cascadeCatalog(t)})
	motion := m.atoms.Atoms[0].Holds
	s := m.Initial()
	for _, tr := range m.Expand(s) {
		if next := tr.Next.(*State); motion(next) {
			s = next
		}
	}
	first := m.Inspect(s) // the miss
	if len(first) != 1 || first[0].Property != "still" {
		t.Fatalf("motion with the light on reports %q, want exactly \"still\"", first)
	}
	var got []checker.Violation
	if allocs := testing.AllocsPerRun(200, func() { got = m.Inspect(s) }); allocs != 0 {
		t.Errorf("Inspect of a settled state allocates %.2f times on a hit, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		s.MarkAllDirty()
		got = m.Inspect(s)
	}); allocs != 0 {
		t.Errorf("Inspect of an all-stale state allocates %.2f times on a hit, want 0", allocs)
	}
	if len(got) != 1 || &got[0] != &first[0] {
		t.Errorf("a hit returned %q, want the verdict published by the miss", got)
	}
	if n := m.VerdictsDecided(); n != 1 {
		t.Errorf("%d verdicts decided for one valuation", n)
	}
}

// The verdict cache is read by every worker of a steal search and
// written by whichever misses: under concurrent lookups and inserts
// across several table growths, every valuation ends up with exactly one
// verdict, the right one, and keeps it.
func TestVerdictCacheConcurrent(t *testing.T) {
	m := cascadeModelOpts(t, Options{Invariants: cascadeCatalog(t)})
	const workers, words = 8, 3000
	published := make([][]*verdict, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			published[w] = make([]*verdict, words)
			for i := 0; i < words; i++ {
				// Each worker walks the same words from its own offset, so
				// lookups of a word race with its insertion.
				k := (i + w*words/workers) % words
				word := uint64(k) * 0x9e3779b97f4a7c15
				v := m.catalog().get(word)
				if v == nil {
					v = m.catalog().decideOnce(word)
				}
				published[w][k] = v
			}
		}()
	}
	wg.Wait()
	if n := m.VerdictsDecided(); n != words {
		t.Errorf("%d verdicts decided for %d distinct valuations", n, words)
	}
	for k := 0; k < words; k++ {
		word := uint64(k) * 0x9e3779b97f4a7c15
		v := m.catalog().get(word)
		if v == nil || v.word != word {
			t.Fatalf("valuation %#x lost its verdict", word)
		}
		want := 0
		for _, inv := range m.Opts.Invariants {
			if !inv.Over(word) {
				want++
			}
		}
		if len(v.viols) != want || cap(v.viols) != len(v.viols) {
			t.Errorf("valuation %#x: %d violations (cap %d), want %d with no spare capacity", word, len(v.viols), cap(v.viols), want)
		}
		for w := range published {
			if published[w][k] != v {
				t.Fatalf("valuation %#x: worker %d was handed a different verdict than the published one", word, w)
			}
		}
	}
}

// TestVerdictCachePerCatalog: models built with the same invariant list
// share one verdict cache, so a valuation one of them decided is a hit
// for the other; a model over the same atom table with another list —
// here a prefix of it — decides on its own, with its own invariants.
func TestVerdictCachePerCatalog(t *testing.T) {
	catalog := cascadeCatalog(t)
	a := cascadeModelOpts(t, Options{Invariants: catalog})
	b := cascadeModelOpts(t, Options{Invariants: catalog})
	c := cascadeModelOpts(t, Options{Invariants: catalog[:1]})
	if a.catalog() != b.catalog() || a.catalog() == c.catalog() {
		t.Fatal("want one cache for the two models of one invariant list, another for the prefix")
	}
	const word = 1 // motion with the light off: both invariants fail
	if got := a.verdictOf(word); len(got) != 2 {
		t.Fatalf("the whole catalog reports %q, want both invariants", got)
	}
	if a.VerdictsDecided() != 1 || b.VerdictsDecided() != 1 || c.VerdictsDecided() != 0 {
		t.Errorf("verdicts decided %d, %d, %d: want the shared cache's one, and none for the prefix",
			a.VerdictsDecided(), b.VerdictsDecided(), c.VerdictsDecided())
	}
	if got := c.verdictOf(word); len(got) != 1 || got[0].Property != "lit-when-moving" {
		t.Errorf("the prefix reports %q, want its one invariant", got)
	}
}

// Build takes invariants over one atom table resolved against its own
// device list, and refuses what it cannot evaluate soundly.
func TestBuildRefusesInvariants(t *testing.T) {
	catalog := cascadeCatalog(t)
	m := cascadeModelOpts(t, Options{Invariants: catalog})
	if m.atoms != catalog[0].Atoms {
		t.Errorf("model over table %p, want the catalog's %p", m.atoms, catalog[0].Atoms)
	}
	other := cascadeConfig()
	other.Devices[0].Model = "Smart Switch"
	other.Apps = nil
	otherPlan, err := Prepare(other)
	if err != nil {
		t.Fatal(err)
	}
	otherTable, err := otherPlan.NewAtomTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	app := m.Apps[0].App
	for name, invs := range map[string][]Invariant{
		"second atom table":   {catalog[0], cascadeCatalog(t)[1]},
		"nothing to evaluate": {{ID: "empty"}},
		"no formula":          {{ID: "half", Atoms: catalog[0].Atoms}},
		"no table":            {{ID: "bare", Over: catalog[0].Over}},
		"other device list":   {{ID: "elsewhere", Atoms: otherTable, Over: catalog[0].Over}},
	} {
		_, err := New(cascadeConfig(), map[string]*ir.App{"Cascade": app}, Options{Invariants: invs})
		if err == nil || !strings.Contains(err.Error(), "invariant") {
			t.Errorf("%s: New accepted it (err = %v)", name, err)
		}
	}
}
