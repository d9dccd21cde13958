// Gates for Inspect by lookup. A state carries the valuation word of
// the catalog's atom table, inherited from its parent and stale in the
// atoms that read a block the transition wrote; Inspect re-evaluates the
// stale atoms, looks the word up and runs the catalog's formulas only on
// a word the model has not met. These tests compare that, at every state
// the engine inspects, with two things that share none of it: every atom
// evaluated from scratch, and the properties compiled one at a time and
// run atom by atom (props.Property.Compile).
package iotsan_test

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/experiments"
	"iotsan/internal/ifttt"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/props"
)

// valuationOracle checks each Inspect of one model.
type valuationOracle struct {
	m     *model.Model
	table *model.AtomTable
	all   uint64
	// twins are the model's catalog invariants compiled on their own, in
	// the same order, followed by its opaque invariants: what a plain
	// Holds loop over them reports is what Inspect must report.
	twins []model.Invariant

	inspected, evaluated atomic.Int64 // Inspect calls; atoms they found stale
	mu                   sync.Mutex
	failures             int
	first                string
}

func newValuationOracle(t *testing.T, m *model.Model) *valuationOracle {
	t.Helper()
	o := &valuationOracle{m: m}
	var opaque []model.Invariant
	for _, inv := range m.Opts.Invariants {
		if inv.Atoms == nil {
			opaque = append(opaque, inv)
			continue
		}
		o.table = inv.Atoms
		p, ok := props.ByID(inv.ID)
		if !ok {
			t.Fatalf("catalog invariant %s is not a catalog property", inv.ID)
		}
		twin, err := p.Compile(m.Cfg, props.DefaultThresholds())
		if err != nil {
			t.Fatal(err)
		}
		o.twins = append(o.twins, twin)
	}
	if o.table == nil {
		t.Fatal("the model has no catalog invariants")
	}
	o.twins = append(o.twins, opaque...)
	o.all = 1<<uint(len(o.table.Atoms)) - 1
	return o
}

func (o *valuationOracle) fail(format string, args ...any) {
	o.mu.Lock()
	if o.failures == 0 {
		o.first = fmt.Sprintf(format, args...)
	}
	o.failures++
	o.mu.Unlock()
}

// inspect runs the model's Inspect on s and checks what it settled and
// what it returned.
func (o *valuationOracle) inspect(cs checker.State) []checker.Violation {
	s := cs.(*model.State)
	_, fresh := s.AtomWord()
	o.inspected.Add(1)
	o.evaluated.Add(int64(bits.OnesCount64(o.all &^ fresh)))

	got := o.m.Inspect(s)

	word, fresh := s.AtomWord()
	if want := o.table.Valuation(s); word != want || fresh != o.all {
		var names []string
		for diff := word ^ want; diff != 0; diff &= diff - 1 {
			names = append(names, o.table.Atoms[bits.TrailingZeros64(diff)].Name)
		}
		o.fail("settled word %#x (fresh %#x), from scratch %#x: wrong atoms %v", word, fresh, want, names)
	}
	var want []checker.Violation
	view := &model.View{M: o.m, S: s}
	for _, twin := range o.twins {
		if !twin.Holds(view) {
			want = append(want, checker.Violation{Property: twin.ID, Detail: twin.Description})
		}
	}
	if !slices.Equal(got, want) {
		o.fail("Inspect reports %q, the per-invariant loop %q", got, want)
	}
	return got
}

// keyedEngineSystem adds the hook engineSystem leaves out, so a wrapper
// embedding it is searched one successor at a time like the bare model.
type keyedEngineSystem interface {
	engineSystem
	checker.Stepper
}

type eagerValuation struct {
	engineSystem
	o *valuationOracle
}

func (e eagerValuation) Inspect(s checker.State) []checker.Violation { return e.o.inspect(s) }

type keyedValuation struct {
	keyedEngineSystem
	o *valuationOracle
}

func (k keyedValuation) Inspect(s checker.State) []checker.Violation { return k.o.inspect(s) }

// system wraps the model's adapter for the keyed or the eager path.
func (o *valuationOracle) system(t *testing.T, keyed bool) checker.System {
	t.Helper()
	if !keyed {
		return eagerValuation{asEngineSystem(t, o.m), o}
	}
	sys, ok := o.m.System().(keyedEngineSystem)
	if !ok {
		t.Fatalf("model.System() (%T) is no checker.Stepper", o.m.System())
	}
	return keyedValuation{sys, o}
}

// rebuilt returns m's system rebuilt with its options changed.
func rebuilt(t *testing.T, m *model.Model, change func(*model.Options)) *model.Model {
	t.Helper()
	apps := map[string]*ir.App{}
	for _, a := range m.Apps {
		apps[a.App.Name] = a.App
	}
	opts := m.Opts
	change(&opts)
	n, err := model.New(m.Cfg, apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// valuationRuns are the engine rows of the differential: {keyed, eager}
// × {dfs, steal on 4 workers}, plus — on the symmetry workload, the
// concurrent fleet — the same under POR and symmetry reduction.
func valuationRuns(w admissionWorkload) (keyed []bool, opts []checker.Options) {
	for _, k := range []bool{true, false} {
		for _, strat := range []checker.StrategyKind{checker.StrategyDFS, checker.StrategySteal} {
			keyed = append(keyed, k)
			opts = append(opts, checker.Options{MaxDepth: w.maxDepth, Strategy: strat, Workers: 4})
			if w.name == "symmetry" {
				keyed = append(keyed, k)
				opts = append(opts, checker.Options{MaxDepth: w.maxDepth, Strategy: strat, Workers: 4, POR: true, Symmetry: true})
			}
		}
	}
	return keyed, opts
}

// TestInspectValuationDifferential: on the admission matrix's models —
// the six corpus groups, the symmetry fleet and the fault group at
// MaxFaults=2 — × {keyed, eager} × {dfs, steal} × {block cache on, off},
// every state the engine inspects settles to the from-scratch valuation
// and reports what the per-invariant loop over the one-shot twins
// reports; and each run finds what the bare model finds.
//
// Under the race detector only the cheapest group's steal rows run; CI
// runs the whole matrix without it.
func TestInspectValuationDifferential(t *testing.T) {
	for _, w := range admissionWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			if raceEnabled && w.name != "group3" {
				t.Skipf("%s skipped under the race detector (group3 covers the interleavings)", w.name)
			}
			cached := w.build(t)
			for _, m := range []*model.Model{cached, rebuilt(t, cached, func(o *model.Options) { o.Incremental = false })} {
				keyed, runs := valuationRuns(w)
				for i, opts := range runs {
					if raceEnabled && opts.Strategy != checker.StrategySteal {
						continue
					}
					name := fmt.Sprintf("cache=%v keyed=%v %v por=%v", m.Opts.Incremental, keyed[i], opts.Strategy, opts.POR)
					o := newValuationOracle(t, m)
					got := checker.Run(o.system(t, keyed[i]), opts)
					want := checker.Run(m.System(), opts)
					if o.failures > 0 {
						t.Errorf("%s: %d of %d inspected states diverge; first: %s", name, o.failures, o.inspected.Load(), o.first)
					}
					if int(o.inspected.Load()) != got.StatesStored || got.Truncated {
						t.Errorf("%s: %d Inspect calls for %d stored states (truncated=%v)", name, o.inspected.Load(), got.StatesStored, got.Truncated)
					}
					if !equalStringSlices(violationSet(got), violationSet(want)) || got.StatesStored != want.StatesStored {
						t.Errorf("%s: the checked run diverges from the bare model: %d states %q / %d states %q", name,
							got.StatesStored, violationSet(got), want.StatesStored, violationSet(want))
					}
					// Not vacuous: most atoms were inherited, not re-evaluated,
					// wherever a block cache says what a transition wrote.
					if perState := float64(o.evaluated.Load()) / float64(o.inspected.Load()); m.Opts.Incremental && perState > float64(len(o.table.Atoms))/2 {
						t.Errorf("%s: %.1f of %d atoms re-evaluated per state: the valuation is not being inherited", name, perState, len(o.table.Atoms))
					}
				}
			}
		})
	}
}

// A model may carry catalog and opaque invariants together: Inspect
// reports the catalog's violations, then the opaque ones', and a search
// finds both kinds. The model is Table 9's — the IFTTT applets, with
// invariants inspected after every handler of a cascade, so the
// mid-cascade Inspect runs over a catalog too.
func TestInspectMixedInvariants(t *testing.T) {
	sys, apps, err := ifttt.BuildSystem(ifttt.Table9Applets())
	if err != nil {
		t.Fatal(err)
	}
	sys.Mode = "Away"
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	for _, incremental := range []bool{true, false} {
		m, err := model.New(sys, apps, model.Options{
			MaxEvents: 2, InspectCascade: true, Incremental: incremental,
			Invariants: append(slices.Clone(invs), ifttt.Table9Properties()...),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, keyed := range []bool{true, false} {
			name := fmt.Sprintf("cache=%v keyed=%v", incremental, keyed)
			o := newValuationOracle(t, m)
			res := checker.Run(o.system(t, keyed), checker.Options{MaxDepth: 10})
			if o.failures > 0 {
				t.Errorf("%s: %d of %d inspected states diverge; first: %s", name, o.failures, o.inspected.Load(), o.first)
			}
			var catalog, opaque int
			for _, f := range res.Violations {
				if strings.HasPrefix(f.Property, "ifttt.") {
					opaque++
				} else if p, ok := props.ByID(f.Property); ok && p.Kind == props.Physical {
					catalog++
				}
			}
			if catalog == 0 || opaque == 0 || res.Truncated {
				t.Errorf("%s: %d catalog and %d opaque violations found (truncated=%v); want both kinds (all: %q)",
					name, catalog, opaque, res.Truncated, violationSet(res))
			}
		}
	}
}

// The differential has teeth: a catalog whose atoms no longer declare
// reading one device — so a write to it leaves them fresh on the
// successor — is caught, on the keyed and the eager path. The device is
// the one whose events flip smoke_detected on group 3.
func TestInspectValuationCatchesMissingRead(t *testing.T) {
	base := admissionWorkloads()[2].build(t) // group3
	table := base.Opts.Invariants[0].Atoms
	dev := -1
	for _, a := range table.Atoms {
		if a.Name == "smoke_detected" && len(a.Reads) > 0 {
			dev = int(a.Reads[0].Dev)
		}
	}
	if dev < 0 {
		t.Fatal("group 3 has no smoke detector")
	}
	atoms := slices.Clone(table.Atoms)
	for i := range atoms {
		atoms[i].Reads = slices.DeleteFunc(slices.Clone(atoms[i].Reads), func(r model.AttrRef) bool { return int(r.Dev) == dev })
	}
	plan, err := model.Prepare(base.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	forgetful, err := plan.NewAtomTable(atoms)
	if err != nil {
		t.Fatal(err)
	}
	m := rebuilt(t, base, func(o *model.Options) {
		o.Invariants = slices.Clone(o.Invariants)
		for i := range o.Invariants {
			o.Invariants[i].Atoms = forgetful
		}
	})
	for _, keyed := range []bool{true, false} {
		o := newValuationOracle(t, m)
		checker.Run(o.system(t, keyed), checker.Options{MaxDepth: 100})
		if o.failures == 0 {
			t.Errorf("keyed=%v: atoms that do not declare reading %s went unnoticed over %d inspected states", keyed, m.Devices[dev].ID, o.inspected.Load())
		} else {
			t.Logf("keyed=%v: forgetting %s: %d of %d inspected states diverge; first: %s", keyed, m.Devices[dev].ID, o.failures, o.inspected.Load(), o.first)
		}
	}
}

// TestInspectCountersTable8: on the benchmark's table8_dfs graph (the
// Table 8 system at 5 events, as Analyze builds it), a DFS runs the
// catalog's formulas once per distinct valuation — as many as an
// independent walk that evaluates every atom of every state counts — on
// under 2 % of the stored states, and re-evaluates under a quarter of
// the atoms.
func TestInspectCountersTable8(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a 141k-state search and an independent walk of the same graph")
	}
	sys, apps, err := experiments.Table8System()
	if err != nil {
		t.Fatal(err)
	}
	m := oneShotModel(t, sys, apps, 5)
	o := newValuationOracle(t, m)
	res := checker.Run(keyedValuation{m.System().(keyedEngineSystem), o}, checker.Options{MaxDepth: 5 + 64, MaxStates: 1_000_000})
	if o.failures > 0 {
		t.Fatalf("%d of %d inspected states diverge; first: %s", o.failures, o.inspected.Load(), o.first)
	}

	// The independent walk: Expand, dedup on the encoding's digest, every
	// atom from scratch.
	words := map[uint64]bool{}
	seen := map[[2]uint64]bool{}
	visit := func(s *model.State) bool {
		h1, h2 := m.IncrementalDigest(s, false)
		if seen[[2]uint64{h1, h2}] {
			return false
		}
		seen[[2]uint64{h1, h2}] = true
		words[o.table.Valuation(s)] = true
		return true
	}
	init := m.Initial()
	visit(init)
	for stack := []*model.State{init}; len(stack) > 0; {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, tr := range m.Expand(s) {
			if next := tr.Next.(*model.State); visit(next) {
				stack = append(stack, next)
			}
		}
	}

	stored, decided := res.StatesStored, m.VerdictsDecided()
	if res.Truncated || len(seen) != stored {
		t.Fatalf("the search stored %d states (truncated=%v), the walk reached %d", stored, res.Truncated, len(seen))
	}
	if decided != len(words) {
		t.Errorf("%d verdicts decided, the walk met %d distinct valuations", decided, len(words))
	}
	if decided*50 > stored {
		t.Errorf("%d verdicts decided for %d stored states: over 2 %%", decided, stored)
	}
	evaluated, budget := o.evaluated.Load(), int64(len(o.table.Atoms)*stored)
	if evaluated*4 > budget {
		t.Errorf("%d atoms evaluated, over a quarter of %d atoms × %d states", evaluated, len(o.table.Atoms), stored)
	}
	t.Logf("%d states, %d violations: %d verdicts decided (%.2f %% of states), %d atoms evaluated (%.1f per state, %.1f %% of %d × states)",
		stored, len(res.Violations), decided, 100*float64(decided)/float64(stored), evaluated,
		float64(evaluated)/float64(stored), 100*float64(evaluated)/float64(budget), len(o.table.Atoms))
}
