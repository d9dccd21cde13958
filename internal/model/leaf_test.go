package model

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"iotsan/internal/checker"
)

// followCatalog is a catalog over followModel's home whose atoms read
// the devices a motion event on the hall sensor writes together with
// devices it does not: "lit_open" (the hall light is on while the back
// door is open) and "moving" (either motion sensor active). So the leaf
// lookups of that event's memo entries key on the door and the porch
// sensor (X_e).
func followCatalog(t *testing.T) []Invariant {
	t.Helper()
	plan, err := Prepare(followSystem())
	if err != nil {
		t.Fatal(err)
	}
	on, _ := EnumRefs(plan.ByCapability("switch"), "switch", "on")
	open, _ := EnumRefs(plan.ByCapability("contactSensor"), "contact", "open")
	motion, _ := EnumRefs(plan.ByCapability("motionSensor"), "motion", "active")
	litOpen := Atom{Name: "lit_open", Reads: slices.Concat(on, open),
		Holds: func(s *State) bool { return s.AnyEq(on) && s.AnyEq(open) }}
	table, err := plan.NewAtomTable([]Atom{litOpen, anyEqAtom("moving", motion)})
	if err != nil {
		t.Fatal(err)
	}
	return []Invariant{
		{ID: "dark-open-door", Description: "the light is off while the door is open", Atoms: table,
			Over: func(w uint64) bool { return w&1 == 0 }},
		{ID: "still", Description: "no motion", Atoms: table, Over: func(w uint64) bool { return w&2 == 0 }},
	}
}

// leafSpy counts the leaves a search looks up, on any worker, and can
// corrupt the leaf lookup's records at the end of a Step: "bit" flips
// one recorded atom bit of the first leaf key it finds, "device" drops
// the back door from the X_e of every entry that has it.
type leafSpy struct {
	sysAdapter
	mutate  string
	looked  atomic.Int64
	mutated bool
}

func (s *leafSpy) InspectLeaf(sc checker.Scratch, parent checker.State) ([]checker.Violation, bool) {
	vs, ok := s.sysAdapter.InspectLeaf(sc, parent)
	if ok {
		s.looked.Add(1)
	}
	return vs, ok
}

func (s *leafSpy) lookups() int { return int(s.looked.Load()) }

func (s *leafSpy) Step(sc checker.Scratch, parent checker.State, stub *checker.Transition) checker.Transition {
	tr := s.sysAdapter.Step(sc, parent, stub)
	mm := &sc.(*Scratch).memo
	switch {
	case s.mutate == "bit" && !s.mutated:
		for i := range mm.leaves {
			if l := &mm.leaves[i]; l.e != 0 && mm.entries[l.e-1].latoms != 0 {
				latoms := mm.entries[l.e-1].latoms
				l.bits ^= latoms & -latoms
				s.mutated = true
				break
			}
		}
	case s.mutate == "device":
		door := int32(1 + slices.IndexFunc(s.m.Devices, func(d *DevInst) bool { return d.ID == "c1" }))
		for i := range mm.entries {
			e := &mm.entries[i]
			devs := mm.leafDevs[e.ldevs : e.ldevs+e.nldevs]
			if j := slices.Index(devs, door); j >= 0 {
				copy(devs[j:], devs[j+1:])
				e.nldevs--
				s.mutated = true
			}
		}
	}
	return tr
}

// TestLeafLookupMutantsFailRun: with the splice check armed, a leaf
// lookup that answers from a corrupted record — a recorded atom bit
// flipped, or a device dropped from the devices its key reads — fails
// the run loudly (Result.Err, a "leaf-check" violation of the confirming
// step) rather than reporting a wrong verdict or quietly stepping
// instead. Left intact, the same search looks up leaves with the check
// armed and silent, and finds what the search without the memo finds.
func TestLeafLookupMutantsFailRun(t *testing.T) {
	CheckSplices(true)
	defer CheckSplices(false)
	opts := Options{MaxEvents: 5, Incremental: true, Invariants: followCatalog(t)}
	sys := followModelOpts(t, opts).System()
	want := checker.Run(noPredictor{sys, sys.(checker.Stepper)}, checker.Options{MaxDepth: 100})
	if want.Err != nil || len(want.Violations) == 0 {
		t.Fatalf("the search without the memo: err %v, %d violations", want.Err, len(want.Violations))
	}
	for _, mutate := range []string{"", "bit", "device"} {
		spy := &leafSpy{sysAdapter: sysAdapter{followModelOpts(t, opts)}, mutate: mutate}
		res := checker.Run(spy, checker.Options{MaxDepth: 100})
		if mutate == "" {
			if res.Err != nil || spy.lookups() == 0 {
				t.Fatalf("intact: err %v, %d leaves looked up", res.Err, spy.lookups())
			}
			if g, w := violationIDs(res), violationIDs(want); !slices.Equal(g, w) || res.StatesStored != want.StatesStored {
				t.Errorf("intact: %d states and %q, without the memo %d and %q", res.StatesStored, g, want.StatesStored, w)
			}
			continue
		}
		if !spy.mutated {
			t.Fatalf("%s: nothing to corrupt", mutate)
		}
		if res.Err == nil || !strings.Contains(res.Err.Error(), "leaf-check") {
			t.Fatalf("%s: err %v, want a leaf-check failure", mutate, res.Err)
		}
		t.Logf("%s: %v", mutate, res.Err)
	}
}

// TestLeafLookupSteal: four steal workers, each scratch with its own leaf
// table, look leaves up with the splice check armed and find exactly
// what the DFS finds, counter for counter. CI repeats it under the race
// detector.
func TestLeafLookupSteal(t *testing.T) {
	CheckSplices(true)
	defer CheckSplices(false)
	opts := Options{MaxEvents: 5, Incremental: true, Invariants: followCatalog(t)}
	want := checker.Run(followModelOpts(t, opts).System(), checker.Options{MaxDepth: 100})
	spy := &leafSpy{sysAdapter: sysAdapter{followModelOpts(t, opts)}}
	got := checker.Run(spy, checker.Options{MaxDepth: 100, Strategy: checker.StrategySteal, Workers: 4})
	if got.Err != nil || want.Err != nil || spy.lookups() == 0 {
		t.Fatalf("err %v (DFS %v), %d leaves looked up", got.Err, want.Err, spy.lookups())
	}
	if got.StatesExplored != want.StatesExplored || got.StatesMatched != want.StatesMatched || got.StatesStored != want.StatesStored {
		t.Errorf("explored/matched/stored %d/%d/%d, DFS %d/%d/%d", got.StatesExplored, got.StatesMatched, got.StatesStored,
			want.StatesExplored, want.StatesMatched, want.StatesStored)
	}
	if g, w := violationIDs(got), violationIDs(want); !slices.Equal(g, w) {
		t.Errorf("violations %q, DFS %q", g, w)
	}
}

// noPredictor hides the model's checker.Predictor: the engine steps and
// inspects every successor.
type noPredictor struct {
	checker.System
	checker.Stepper
}

func violationIDs(r *checker.Result) []string {
	var ids []string
	for _, f := range r.Violations {
		ids = append(ids, f.Violation.Property+": "+f.Violation.Detail)
	}
	slices.Sort(ids)
	return ids
}
