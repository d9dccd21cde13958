package model

import (
	"strings"
	"sync"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/ir"
)

// cascadeCatalog is a two-atom catalog over the cascade home: "the
// light is off while motion is active" never holds for long, "no motion"
// fails on every active state.
func cascadeCatalog(t *testing.T) []Invariant {
	t.Helper()
	plan, err := Prepare(cascadeConfig())
	if err != nil {
		t.Fatal(err)
	}
	motion := plan.Watch().Motion
	on, _ := EnumRefs(plan.ByCapability("switch"), "switch", "on")
	table, err := plan.NewAtomTable([]Atom{
		{Name: "motion_active", Reads: motion, Holds: func(s *State) bool { return s.AnyEq(motion) }},
		{Name: "light_on", Reads: on, Holds: func(s *State) bool { return s.AnyEq(on) }},
	})
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
// — no View, no violation slice — whether every atom is stale or none,
// and it returns the violations decided the first time.
func TestInspectHitZeroAlloc(t *testing.T) {
	m := cascadeModelOpts(t, Options{MaxEvents: 3, Incremental: true, Invariants: cascadeCatalog(t)})
	s := m.Initial()
	for _, tr := range m.Expand(s) {
		if next := tr.Next.(*State); next.AnyEq(m.watch.Motion) {
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
				v := m.verdicts.get(word)
				if v == nil {
					v = m.decideOnce(word)
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
		v := m.verdicts.get(word)
		if v == nil || v.word != word {
			t.Fatalf("valuation %#x lost its verdict", word)
		}
		want := 0
		for _, inv := range m.decided {
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

// Build sorts the invariants by form and refuses what it cannot
// evaluate soundly.
func TestBuildSplitsInvariants(t *testing.T) {
	catalog := cascadeCatalog(t)
	opaque := Invariant{ID: "opaque", Holds: func(*View) bool { return true }}
	m := cascadeModelOpts(t, Options{Invariants: []Invariant{opaque, catalog[0], catalog[1]}})
	if m.atoms != catalog[0].Atoms || len(m.decided) != 2 || len(m.opaque) != 1 {
		t.Errorf("split into %d catalog and %d opaque invariants over table %p", len(m.decided), len(m.opaque), m.atoms)
	}
	app := m.Apps[0].App
	for name, invs := range map[string][]Invariant{
		"second atom table":   {catalog[0], cascadeCatalog(t)[1]},
		"nothing to evaluate": {{ID: "empty"}},
		"no formula":          {{ID: "half", Atoms: catalog[0].Atoms}},
	} {
		_, err := New(cascadeConfig(), map[string]*ir.App{"Cascade": app}, Options{Invariants: invs})
		if err == nil || !strings.Contains(err.Error(), "invariant") {
			t.Errorf("%s: New accepted it (err = %v)", name, err)
		}
	}
}
