// Gates for keyed one-at-a-time successors. The engine no longer calls
// System.Expand on a model: it lists a state's transitions as stubs
// (checker.Stepper.Enabled), steps each into the worker's scratch
// state, and clones a successor out (Keep) only when the visited store
// reports it new. The scratch is kept equal to the parent by undoing
// exactly the blocks each cascade marked, so a missed mark is now a
// missed undo. Every test here uses the clone-everything path —
// Model.Expand, or the engine's eager adapter reached by hiding the
// Stepper hook, exactly as the benchmark's tracing wrapper does — as
// the oracle; no product option selects it.
package iotsan_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/smartapp"
)

// eagerSystem hides checker.Stepper: engineSystem does not list it, so
// the engine serves the wrapped model through its eager adapter.
type eagerSystem struct{ engineSystem }

// keyedDivergence describes the first difference between Expand(s)[i]
// and stub i stepped in a scratch and kept.
type keyedDivergence struct {
	count int
	first string
}

func (d *keyedDivergence) note(format string, args ...any) {
	if d.count == 0 {
		d.first = fmt.Sprintf(format, args...)
	}
	d.count++
}

// walkKeyed explores m depth-first to a bounded depth with one scratch
// — stepping a state's next child only after returning from the
// previous child's subtree, as the DFS strategy does, so the scratch
// re-syncs across pops — and checks at every state that stub i + Step +
// Keep is Expand(s)[i]: label, key, fault flag, steps, violations, the
// successor's Encode bytes before and after Keep, and (with the block
// cache) its raw and canonical digests. It returns the states compared,
// the whole-state copies the scratch made, and the divergences.
func walkKeyed(m *model.Model, seed int64, incremental bool) (states, fullSyncs int, div keyedDivergence) {
	rng := rand.New(rand.NewSource(seed))
	sc := m.NewScratch()
	var a, b []byte
	budget := 1500
	var visit func(s *model.State, depth int)
	visit = func(s *model.State, depth int) {
		want := m.Expand(s)
		stubs := m.Enabled(s, nil)
		if len(stubs) != len(want) {
			div.note("depth %d: %d stubs for %d successors", depth, len(stubs), len(want))
			return
		}
		for i := range stubs {
			if budget <= 0 {
				return
			}
			budget--
			states++
			w := want[i]
			at := fmt.Sprintf("depth %d successor %d (%s)", depth, i, w.Label)
			tr := sc.Step(s, &stubs[i])
			if tr.Label != w.Label || tr.Key != w.Key || tr.Fault != w.Fault || stubs[i].Fault != w.Fault ||
				!slices.Equal(tr.Steps, w.Steps) || !slices.Equal(tr.Violations, w.Violations) {
				div.note("%s: transition differs:\nkeyed %+v\neager %+v", at, tr, w)
			}
			a, b = tr.Next.Encode(a[:0]), w.Next.Encode(b[:0])
			if !bytes.Equal(a, b) {
				div.note("%s: stepped state's encoding differs from Expand's", at)
			}
			if incremental {
				for _, canonical := range []bool{false, true} {
					k1, k2 := m.IncrementalDigest(tr.Next.(*model.State), canonical)
					e1, e2 := m.IncrementalDigest(w.Next.(*model.State), canonical)
					if k1 != e1 || k2 != e2 {
						div.note("%s: digest differs (canonical=%v)", at, canonical)
					}
				}
			}
			kept := sc.Keep()
			if a = kept.Encode(a[:0]); !bytes.Equal(a, b) {
				div.note("%s: kept state's encoding differs from Expand's", at)
			}
			if depth < 4 && rng.Intn(3) == 0 {
				visit(kept, depth+1)
			}
		}
	}
	init := m.Initial()
	if incremental {
		m.IncrementalDigest(init, false) // settle the root's cache, as visitInitial does
	}
	visit(init, 0)
	return states, sc.FullSyncs(), div
}

// keyedWalkWorkloads are the admission matrix's models plus two
// sequential-design corpus groups (atomic cascades, timers), each with
// the block cache on and off: off, the touched mask alone drives the
// re-sync.
func keyedWalkWorkloads() []admissionWorkload {
	ws := admissionWorkloads()
	for g := 1; g <= 6; g++ {
		g := g
		cfg := porCorpusConfigs[g-1]
		ws = append(ws, admissionWorkload{name: fmt.Sprintf("group%d-nocache", g), build: func(t *testing.T) *model.Model {
			return incGroupModel(t, g, cfg.napps, cfg.events, false)
		}})
	}
	for _, g := range []int{2, 4} {
		g := g
		ws = append(ws, admissionWorkload{name: fmt.Sprintf("sequential%d", g), build: func(t *testing.T) *model.Model {
			return stealGroupModel(t, g)
		}})
	}
	return ws
}

// TestKeyedSuccessorsWalk: Expand(s) ≡ stubs + Step + Keep, state by
// state, along a depth-first corpus walk on one scratch.
func TestKeyedSuccessorsWalk(t *testing.T) {
	for _, w := range keyedWalkWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			m := w.build(t)
			states, fullSyncs, div := walkKeyed(m, 16, m.Opts.Incremental)
			if div.count > 0 {
				t.Fatalf("%d divergences over %d states; first: %s", div.count, states, div.first)
			}
			if states < 30 {
				t.Errorf("walk compared only %d states", states)
			}
			// Every parent is on the scratch's chain (the walk descends
			// only into states it kept), so after the first copy from the
			// root every re-sync is by touched blocks.
			if fullSyncs > 1 {
				t.Errorf("%d whole-state copies into the scratch over %d steps, want at most 1", fullSyncs, states)
			}
			t.Logf("%d successors compared, %d whole-state copies", states, fullSyncs)
		})
	}
}

// countingStepper forwards the model's Stepper hook and counts what the
// engine asks of it.
type countingStepper struct {
	engineSystem
	stp          checker.Stepper
	steps, keeps atomic.Int64
}

func newCountingStepper(t *testing.T, sys engineSystem) *countingStepper {
	stp, ok := sys.(checker.Stepper)
	if !ok {
		t.Fatalf("model.System() (%T) does not implement checker.Stepper", sys)
	}
	return &countingStepper{engineSystem: sys, stp: stp}
}

func (c *countingStepper) Enabled(s checker.State, buf []checker.Transition) []checker.Transition {
	return c.stp.Enabled(s, buf)
}

func (c *countingStepper) NewScratch() checker.Scratch { return c.stp.NewScratch() }

func (c *countingStepper) Step(sc checker.Scratch, parent checker.State, stub *checker.Transition) checker.Transition {
	c.steps.Add(1)
	return c.stp.Step(sc, parent, stub)
}

func (c *countingStepper) Keep(sc checker.Scratch, next checker.State) checker.State {
	c.keeps.Add(1)
	return c.stp.Keep(sc, next)
}

// TestKeyedSuccessorsEquivalence: on the six corpus groups, the
// symmetry workload and the fault workload, under {plain, POR,
// symmetry, POR+symmetry} × {dfs, steal} × {exhaustive,
// tiered}, the keyed engine reports exactly what the eager oracle
// reports: the same (Property, Detail) set and the same
// explored/matched/stored, fault-transition and POR counts; on DFS,
// whose order is deterministic, the same violations in the same order
// with byte-identical trails, depths and MaxDepthReached.
//
// The exhaustive DFS rows also carry the count gate: the engine steps
// once per generated successor and clones (Keep) once per stored state
// other than the initial one — down from one clone per generated
// successor.
//
// Under the race detector only the cheapest group runs; CI runs the
// whole matrix without it.
func TestKeyedSuccessorsEquivalence(t *testing.T) {
	strategies := []checker.StrategyKind{checker.StrategyDFS, checker.StrategySteal}
	modes := []struct{ por, sym bool }{{false, false}, {true, false}, {false, true}, {true, true}}
	stores := []checker.StoreKind{checker.Exhaustive, checker.Tiered}
	for _, w := range admissionWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			if raceEnabled && w.name != "group3" {
				t.Skipf("%s skipped under the race detector (group3 covers the interleavings)", w.name)
			}
			sys := asEngineSystem(t, w.build(t))
			dir := t.TempDir()
			for _, mode := range modes {
				for _, strat := range strategies {
					for _, store := range stores {
						opts := checker.Options{MaxDepth: w.maxDepth, POR: mode.por, Symmetry: mode.sym,
							Strategy: strat, Workers: 2, Store: store}
						name := fmt.Sprintf("%v por=%v sym=%v store=%v", strat, mode.por, mode.sym, store)
						if store == checker.Tiered {
							opts.MemBudget = 1 // bottoms out at the hot-tier floor: spill engaged
							opts.StoreDir = filepath.Join(dir, name, "eager")
						}
						want := checker.Run(eagerSystem{sys}, opts)
						if store == checker.Tiered {
							opts.StoreDir = filepath.Join(dir, name, "keyed")
						}
						counted := newCountingStepper(t, sys)
						got := checker.Run(counted, opts)

						if want.Truncated || got.Truncated {
							t.Fatalf("%s: truncated (eager=%v keyed=%v); the gate needs full exploration", name, want.Truncated, got.Truncated)
						}
						if len(want.Violations) == 0 {
							t.Fatalf("%s: the oracle found no violations — the comparison is vacuous", name)
						}
						if !equalStringSlices(violationSet(got), violationSet(want)) {
							t.Errorf("%s: violation sets differ:\nkeyed: %q\neager: %q", name, violationSet(got), violationSet(want))
						}
						type counts struct{ explored, matched, stored, faults, porChoices, porPruned, porFallbacks int }
						gc := counts{got.StatesExplored, got.StatesMatched, got.StatesStored, got.FaultTransitionsExplored,
							got.PORChoicePoints, got.PORPrunedTransitions, got.PORFallbacks}
						wc := counts{want.StatesExplored, want.StatesMatched, want.StatesStored, want.FaultTransitionsExplored,
							want.PORChoicePoints, want.PORPrunedTransitions, want.PORFallbacks}
						if gc != wc {
							t.Errorf("%s: counts diverge:\nkeyed %+v\neager %+v", name, gc, wc)
						}
						if counted.steps.Load() == 0 {
							t.Fatalf("%s: the engine never called Step — the keyed path is not wired", name)
						}
						if strat != checker.StrategyDFS {
							continue
						}
						if got.MaxDepthReached != want.MaxDepthReached {
							t.Errorf("%s: MaxDepthReached %d, eager %d", name, got.MaxDepthReached, want.MaxDepthReached)
						}
						if len(got.Violations) != len(want.Violations) {
							t.Errorf("%s: %d violations, eager %d", name, len(got.Violations), len(want.Violations))
							continue
						}
						for k := range want.Violations {
							g, o := got.Violations[k], want.Violations[k]
							if g.Depth != o.Depth || checker.FormatTrail(g) != checker.FormatTrail(o) {
								t.Errorf("%s: violation %d diverges:\n--- keyed (depth %d) ---\n%s--- eager (depth %d) ---\n%s",
									name, k, g.Depth, checker.FormatTrail(g), o.Depth, checker.FormatTrail(o))
							}
						}
						if store == checker.Exhaustive {
							steps, keeps := int(counted.steps.Load()), int(counted.keeps.Load())
							if generated := got.StatesExplored - 1 + got.StatesMatched; steps != generated {
								t.Errorf("%s: %d Step calls for %d generated successors", name, steps, generated)
							}
							if keeps != got.StatesStored-1 {
								t.Errorf("%s: %d clones (Keep) for %d stored states: want one per stored state but the initial",
									name, keeps, got.StatesStored)
							}
						}
					}
				}
			}
		})
	}
}

// poisonStepper scribbles over everything a Step lent the engine as
// soon as its validity window closes — at the next Step or Keep on the
// same scratch — so a Next or Violations alias the engine retained past
// the window (a trail's From, a parent edge, a deque entry, a state
// kept for depth relaxation) reads poison and changes a verdict.
type poisonStepper struct {
	engineSystem
	stp checker.Stepper
}

type poisonScratch struct {
	inner checker.Scratch
	lent  checker.Transition
}

func (p poisonStepper) Enabled(s checker.State, buf []checker.Transition) []checker.Transition {
	return p.stp.Enabled(s, buf)
}

func (p poisonStepper) NewScratch() checker.Scratch {
	return &poisonScratch{inner: p.stp.NewScratch()}
}

func (p poisonStepper) Step(sc checker.Scratch, parent checker.State, stub *checker.Transition) checker.Transition {
	ps := sc.(*poisonScratch)
	ps.poison()
	ps.lent = p.stp.Step(ps.inner, parent, stub)
	return ps.lent
}

func (p poisonStepper) Keep(sc checker.Scratch, next checker.State) checker.State {
	ps := sc.(*poisonScratch)
	kept := p.stp.Keep(ps.inner, next)
	ps.poison()
	return kept
}

func (ps *poisonScratch) poison() {
	if ps.lent.Next == nil {
		return
	}
	for i := range ps.lent.Violations {
		ps.lent.Violations[i] = checker.Violation{Property: "poisoned", Detail: "read after the Step's window closed"}
	}
	st := ps.lent.Next.(*model.State)
	st.EventsUsed += 1000
	for i := range st.Devices {
		for j := range st.Devices[i].Attrs {
			st.Devices[i].Attrs[j] ^= 1
		}
	}
	for i := range st.Apps {
		st.Apps[i].Unsubscribed = !st.Apps[i].Unsubscribed
		st.Apps[i].Timers = nil
	}
	st.Queue, st.Cmds = nil, nil
	// A write outside the executors: every block is now due for re-sync.
	st.MarkAllDirty()
	ps.lent = checker.Transition{}
}

// TestPoisonedScratchChurn: with every lent successor poisoned the
// moment its window closes, the frontier strategy — whose workers
// share states through deques, the parent table and depth relaxation —
// still reports exactly the eager oracle's verdict and counts. Run under
// -race in CI, several rounds, on the cheapest corpus group.
func TestPoisonedScratchChurn(t *testing.T) {
	cfg := porCorpusConfigs[2]
	sys := asEngineSystem(t, incGroupModel(t, 3, cfg.napps, cfg.events, true))
	stp := sys.(checker.Stepper)
	for _, strat := range []checker.StrategyKind{checker.StrategySteal, checker.StrategyDFS} {
		opts := checker.Options{MaxDepth: 100, Strategy: strat, Workers: 4}
		want := checker.Run(eagerSystem{sys}, opts)
		if want.Truncated || len(want.Violations) == 0 {
			t.Fatalf("%v: oracle truncated=%v with %d violations", strat, want.Truncated, len(want.Violations))
		}
		for round := 0; round < 5; round++ {
			got := checker.Run(poisonStepper{engineSystem: sys, stp: stp}, opts)
			if !equalStringSlices(violationSet(got), violationSet(want)) {
				t.Fatalf("%v round %d: violation sets differ:\npoisoned: %q\neager:    %q", strat, round, violationSet(got), violationSet(want))
			}
			if got.StatesExplored != want.StatesExplored || got.StatesMatched != want.StatesMatched || got.StatesStored != want.StatesStored {
				t.Fatalf("%v round %d: explored/matched/stored %d/%d/%d, eager %d/%d/%d", strat, round,
					got.StatesExplored, got.StatesMatched, got.StatesStored,
					want.StatesExplored, want.StatesMatched, want.StatesStored)
			}
		}
	}
}

// burstApps is a two-app system whose first handler enqueues 20 events
// while the cascade that runs it is draining its first: 18 switch
// changes carried by reference, a synthetic string-valued event and a
// mode change. The executor's queue outgrows its backing array in the
// middle of that dispatch, and the second subscriber of the same event
// (Witness.saw) is delivered from the moved queue.
const burstApp = `
definition(name: "Burst", namespace: "t", author: "t", description: "t", category: "t")
preferences {
    section("s") { input "door", "capability.contactSensor" }
    section("l") { input "lights", "capability.switch", multiple: true }
}
def installed() { subscribe(door, "contact.open", burst) }
def updated() { unsubscribe(); subscribe(door, "contact.open", burst) }
def burst(evt) {
    lights.on()
    sendEvent(name: "switch", value: "flash")
    setLocationMode("Away")
}
`

const witnessApp = `
definition(name: "Witness", namespace: "t", author: "t", description: "t", category: "t")
preferences {
    section("s") { input "door", "capability.contactSensor" }
    section("l") { input "lights", "capability.switch", multiple: true }
}
def installed() {
    subscribe(door, "contact", saw)
    subscribe(lights, "switch", echo)
    subscribe(location, "mode", modeChanged)
}
def updated() { unsubscribe(); installed() }
def saw(evt) { state.door = "${evt.name}=${evt.value} from ${evt.displayName}" }
def echo(evt) {
    state.echoes = (state.echoes ?: 0) + 1
    state.last = "${evt.displayName}:${evt.value}"
    if (evt.value == "on" && state.echoes == 18) { lights.off() }
}
def modeChanged(evt) { state.mode = evt.value }
`

func burstModel(t *testing.T, design model.Design) *model.Model {
	t.Helper()
	apps := map[string]*ir.App{}
	for name, src := range map[string]string{"Burst": burstApp, "Witness": witnessApp} {
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		apps[name] = app
	}
	sys := &config.System{Name: "burst-home", Modes: []string{"Home", "Away"}, Mode: "Home",
		Devices: []config.Device{{ID: "door", Label: "Front Door", Model: "Contact Sensor"}}}
	var lights []string
	for i := 0; i < 18; i++ {
		id := fmt.Sprintf("sw%02d", i)
		lights = append(lights, id)
		sys.Devices = append(sys.Devices, config.Device{ID: id, Label: "Light " + id, Model: "Smart Switch"})
	}
	bind := map[string]config.Binding{"door": {DeviceIDs: []string{"door"}}, "lights": {DeviceIDs: lights}}
	sys.Apps = []config.AppInstance{{App: "Burst", Bindings: bind}, {App: "Witness", Bindings: bind}}
	m, err := model.New(sys, apps, model.Options{Design: design, MaxEvents: 3, UserModeEvents: true, CheckConflicts: true,
		CheckLeakage: true, Incremental: true, RelevantAttrs: map[string]bool{"contact": true}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestQueueReallocationMidDispatch: events are queued by reference and
// drained by index, so a handler that outgrows the queue while its own
// event is being dispatched changes nothing — under both designs the
// keyed path equals Expand successor by successor (labels, steps,
// violations, Encode bytes, digests), and on the sequential design,
// whose cascades run the queue, a whole search equals the eager
// oracle's: violations in order, counts, FormatTrail text.
func TestQueueReallocationMidDispatch(t *testing.T) {
	for _, design := range []model.Design{model.Sequential, model.Concurrent} {
		m, total := burstModel(t, design), 0
		for seed := int64(1); seed <= 8; seed++ { // the state graph is narrow: a walk descends a few levels
			states, _, div := walkKeyed(m, seed, true)
			if div.count > 0 {
				t.Fatalf("%v: %d divergences over %d successors; first: %s", design, div.count, states, div.first)
			}
			total += states
		}
		if total < 20 {
			t.Fatalf("%v: the walks compared only %d successors", design, total)
		}
	}

	m := burstModel(t, model.Sequential)
	open := m.Expand(m.Initial())
	storm := false
	for _, tr := range open {
		_, steps, _ := m.Replay(m.Initial(), tr.Key)
		n := 0
		for _, s := range steps {
			if strings.HasPrefix(s, "Witness.echo(") {
				n++
			}
		}
		storm = storm || n >= 19 // 18 lights on + the synthetic event, before the offs
	}
	if !storm {
		t.Fatal("no cascade delivered the 19 events Burst.burst enqueues mid-dispatch: the fixture no longer forces the queue to grow")
	}
	sys := asEngineSystem(t, m)
	opts := checker.Options{MaxDepth: 16, Strategy: checker.StrategyDFS}
	want, got := checker.Run(eagerSystem{sys}, opts), checker.Run(sys, opts)
	if want.Truncated || got.Truncated || len(want.Violations) == 0 {
		t.Fatalf("truncated (eager=%v keyed=%v) or vacuous (%d violations)", want.Truncated, got.Truncated, len(want.Violations))
	}
	if got.StatesExplored != want.StatesExplored || got.StatesMatched != want.StatesMatched ||
		got.StatesStored != want.StatesStored || len(got.Violations) != len(want.Violations) {
		t.Fatalf("keyed explored/matched/stored/violations %d/%d/%d/%d, eager %d/%d/%d/%d",
			got.StatesExplored, got.StatesMatched, got.StatesStored, len(got.Violations),
			want.StatesExplored, want.StatesMatched, want.StatesStored, len(want.Violations))
	}
	for k := range want.Violations {
		if g, o := checker.FormatTrail(got.Violations[k]), checker.FormatTrail(want.Violations[k]); g != o {
			t.Errorf("violation %d diverges:\n--- keyed ---\n%s--- eager ---\n%s", k, g, o)
		}
	}
}
