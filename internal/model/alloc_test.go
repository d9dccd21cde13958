package model

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/ir"
	"iotsan/internal/smartapp"
)

// cascadeApp wires a two-hop cascade: a motion event drives a switch
// command, whose state-change event drives a second handler updating
// persistent (slotted) state.
const cascadeApp = `
definition(name: "Cascade", namespace: "t", author: "t", description: "t", category: "t")
preferences {
    section("s") { input "motion1", "capability.motionSensor" }
    section("s") { input "switches", "capability.switch" }
}
def installed() {
    subscribe(motion1, "motion", onMotion)
    subscribe(switches, "switch", onSwitch)
}
def onMotion(evt) {
    if (evt.value == "active") { switches.on() } else { switches.off() }
}
def onSwitch(evt) {
    state.flips = (state.flips ?: 0) + 1
}
`

func cascadeModel(t *testing.T, interpreter bool) *Model {
	return cascadeModelOpts(t, Options{MaxEvents: 3, Interpreter: interpreter})
}

func cascadeConfig() *config.System {
	return &config.System{
		Name: "alloc-home",
		Devices: []config.Device{
			{ID: "m1", Label: "Motion", Model: "Motion Sensor"},
			{ID: "sw1", Label: "Light", Model: "Smart Switch"},
		},
		Apps: []config.AppInstance{
			{App: "Cascade", Bindings: map[string]config.Binding{
				"motion1":  {DeviceIDs: []string{"m1"}},
				"switches": {DeviceIDs: []string{"sw1"}},
			}},
		},
	}
}

func cascadeModelOpts(t *testing.T, opts Options) *Model {
	t.Helper()
	app, err := smartapp.Translate(cascadeApp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cascadeConfig(), map[string]*ir.App{"Cascade": app}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCascadeZeroAllocs is the allocation regression gate for the
// compiled hot path: executing a full sequential-design handler cascade
// (sensor update → compiled handler → actuator command → second
// compiled handler → slotted state write) on a pooled executor performs
// zero heap allocations. Successor-state materialization (State.Clone)
// is measured separately below — it is the only allocating step left in
// a transition.
func TestCascadeZeroAllocs(t *testing.T) {
	m := cascadeModel(t, false)
	if m.Apps[0].Prog == nil {
		t.Fatal("cascade app should compile")
	}
	if m.Apps[0].StateIdx == nil {
		t.Fatal("cascade app should have slotted state")
	}

	s := m.Initial()
	d := m.Devices[0]
	ai := d.AttrIndex("motion")
	if ai < 0 {
		t.Fatal("no motion attribute")
	}
	active := int16(indexOf(d.Attrs[ai].Values, "active"))
	inactive := int16(indexOf(d.Attrs[ai].Values, "inactive"))
	if active < 0 || inactive < 0 {
		t.Fatalf("motion values missing: %v", d.Attrs[ai].Values)
	}

	x := m.newExecutor()
	val := active
	run := func() {
		s.Cmds = s.Cmds[:0]
		x.reset(s, failNone, false)
		x.sensorUpdate(0, ai, val)
		x.drain()
		if val == active {
			val = inactive
		} else {
			val = active
		}
	}
	run() // warm the queue, env stacks, and command log
	run()

	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("cascade executed with %.2f allocs/run, want 0", allocs)
	}

	if s.Apps[0].Slots[m.Apps[0].StateIdx["flips"]].AsInt() < 2 {
		t.Error("cascade did not reach the second handler")
	}
}

// TestCloneAllocBudget pins the per-clone allocation count: the flat
// attribute/slot backing plus the device and app headers — O(1) in the
// number of device attributes, not O(devices).
func TestCloneAllocBudget(t *testing.T) {
	m := cascadeModel(t, false)
	s := m.Initial()
	allocs := testing.AllocsPerRun(100, func() {
		_ = s.Clone()
	})
	// State struct + Devices headers + flat attrs + Apps headers + flat
	// slots = 5 allocations regardless of device count.
	if allocs > 5 {
		t.Errorf("State.Clone allocates %.1f times, want <= 5", allocs)
	}

	// The incremental block-hash cache (hashes + dirty mask + devref
	// mask, one shared backing) adds exactly one.
	mi := cascadeModelOpts(t, Options{MaxEvents: 3, Incremental: true})
	si := mi.Initial()
	allocs = testing.AllocsPerRun(100, func() {
		_ = si.Clone()
	})
	if allocs > 6 {
		t.Errorf("State.Clone with incremental cache allocates %.1f times, want <= 6", allocs)
	}
}

// predictCount is the model's adapter with the transition memo's
// answers counted.
type predictCount struct {
	sysAdapter
	n atomic.Int64
}

func (p *predictCount) Predict(sc checker.Scratch, parent checker.State, stub *checker.Transition) (uint64, uint64, []checker.Violation, bool) {
	h1, h2, vs, ok := p.sysAdapter.Predict(sc, parent, stub)
	if ok {
		p.n.Add(1)
	}
	return h1, h2, vs, ok
}

// TestStealSteadyStateAllocParity is the CI allocation gate for the
// parallel expansion hot path: a complete work-stealing search at
// workers=1 (recycling on, so consumed frontier states recycle
// through the model's pool, and the transition memo answering, so
// duplicate successors are predicted instead of stepped) must stay
// within one allocation per explored state of sequential DFS — room for
// the link table's doublings and the deque, which DFS does not have
// (dfs 0.34, steal 1.02 measured), but not for a per-state map entry or
// retained label string (1.32 with the parent-link maps), a heap copy
// of each predicted stub (2.66), let alone a fresh clone per stored
// state (six allocations with the block cache). Both searches must
// predict, or the gate would not see the predicted path. The bound
// was a ratio (2×) while both strategies cloned every generated
// successor; with successors stepped in a scratch DFS is down to a
// fraction of an allocation per state and a ratio would gate on noise.
func TestStealSteadyStateAllocParity(t *testing.T) {
	// Fixed per-search setup (deque ring, entry pools, visited
	// store, goroutine spawn) dwarfs the per-state cost on a model this
	// small, so the gate measures the MARGINAL allocations per state
	// between two workload sizes — the setup cancels and what remains
	// is the expansion hot path.
	small := cascadeModelOpts(t, Options{MaxEvents: 3, Incremental: true})
	big := cascadeModelOpts(t, Options{MaxEvents: 7, Incremental: true})
	marginal := func(strat checker.StrategyKind) float64 {
		o := checker.Options{MaxDepth: 100, Strategy: strat, Workers: 1}
		measure := func(m *Model) (float64, int) {
			sys := &predictCount{sysAdapter: sysAdapter{m}}
			res := checker.Run(sys, o) // warm the model's pools; capture the state count
			if res.Truncated || res.StatesExplored == 0 {
				t.Fatalf("%v: truncated=%v states=%d", strat, res.Truncated, res.StatesExplored)
			}
			if sys.n.Load() == 0 {
				t.Fatalf("%v: nothing predicted — the predicted path did not run", strat)
			}
			return testing.AllocsPerRun(5, func() {
				checker.Run(sys, o)
			}), res.StatesExplored
		}
		aS, nS := measure(small)
		aB, nB := measure(big)
		if nB <= nS {
			t.Fatalf("%v: workloads not ordered (%d vs %d states)", strat, nS, nB)
		}
		return (aB - aS) / float64(nB-nS)
	}
	dfs := marginal(checker.StrategyDFS)
	steal := marginal(checker.StrategySteal)
	t.Logf("marginal allocs/state: dfs %.2f, steal(workers=1) %.2f", dfs, steal)
	if raceEnabled {
		return // the state pool leaks under the race detector; see raceEnabled
	}
	if dfs > 1 {
		t.Errorf("dfs allocates %.2f/state, want <= 1 (a clone per generated successor is back?)", dfs)
	}
	if steal > dfs+1 {
		t.Errorf("steal allocates %.2f/state vs dfs %.2f/state, want <= dfs+1", steal, dfs)
	}
}

// TestIncrementalDigestZeroAlloc is the CI allocation gate for the
// incremental digest path: folding a fully clean state's cached block
// hashes performs zero heap allocations, and so does refreshing dirty
// blocks (the per-block re-encode runs in pooled scratch; this model
// has no KV apps, whose sorted-key encoding is the one deliberate
// exception on dirty blocks).
func TestIncrementalDigestZeroAlloc(t *testing.T) {
	m := cascadeModelOpts(t, Options{MaxEvents: 3, Incremental: true})
	s := m.Initial()
	m.IncrementalDigest(s, false) // settle caches and warm the scratch pool

	if allocs := testing.AllocsPerRun(200, func() {
		m.IncrementalDigest(s, false)
	}); allocs != 0 {
		t.Errorf("clean-state incremental digest allocates %.2f times, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(200, func() {
		s.MarkAllDirty()
		m.IncrementalDigest(s, false)
	}); allocs != 0 {
		t.Errorf("all-dirty incremental digest allocates %.2f times, want 0", allocs)
	}
}

// TestStepDuplicateZeroAlloc is the CI allocation gate for the keyed
// successor path: listing a state's transitions into a reused stub
// buffer, stepping each into a warm scratch and digesting it — all the
// engine does for a successor the visited store then reports seen —
// performs zero heap allocations. Only a successor that is kept costs a
// clone (TestCloneIntoZeroAlloc: nothing, from a recycled state).
func TestStepDuplicateZeroAlloc(t *testing.T) {
	m := cascadeModelOpts(t, Options{MaxEvents: 3, Incremental: true})
	sc := m.NewScratch()
	root := m.Initial()
	m.IncrementalDigest(root, false)
	stubs := m.Enabled(root, nil)
	first := sc.Step(root, &stubs[0])
	m.IncrementalDigest(first.Next.(*State), false)
	parent := sc.Keep()

	steps := 0
	run := func() {
		stubs = m.Enabled(parent, stubs[:0])
		for i := range stubs {
			tr := sc.Step(parent, &stubs[i])
			m.IncrementalDigest(tr.Next.(*State), false)
			steps++
		}
	}
	run() // warm the executor's queue, env stacks and the command log
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 && !raceEnabled { // the encode-buffer pool leaks under race
		t.Errorf("enumerate + step + digest allocates %.2f times per expansion, want 0", allocs)
	}
	if steps == 0 || sc.FullSyncs() != 1 {
		t.Errorf("%d steps, %d whole-state copies: want steps from a parent on the scratch's chain", steps, sc.FullSyncs())
	}
}

// TestSpliceZeroAlloc is the allocation gate for the confirming step of
// a prediction the memo has confirmed before: predicting each successor
// of a state and stepping it — every step a splice of captured blocks
// (Scratch.splice) — and digesting it performs zero heap allocations.
func TestSpliceZeroAlloc(t *testing.T) {
	m := cascadeModelOpts(t, Options{MaxEvents: 3, Incremental: true})
	sc := m.NewScratch()
	root := m.Initial()
	m.IncrementalDigest(root, false)
	stubs := m.Enabled(root, nil)
	first := sc.Step(root, &stubs[0])
	m.IncrementalDigest(first.Next.(*State), false)
	parent := sc.Keep() // a step from the initial state is not recorded

	steps := 0
	run := func() {
		stubs = m.Enabled(parent, stubs[:0])
		for i := range stubs {
			sc.Predict(parent, &stubs[i])
			tr := sc.Step(parent, &stubs[i])
			m.IncrementalDigest(tr.Next.(*State), false)
			steps++
		}
	}
	run() // record
	run() // first use: step, and capture
	run() // first splice: re-hash
	steps0, splices0 := steps, sc.Splices()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("predict + splice + digest allocates %.2f times per expansion, want 0", allocs)
	}
	if n := sc.Splices() - splices0; steps == steps0 || n != steps-steps0 {
		t.Errorf("%d of %d steps spliced: want every step of the measured expansions", n, steps-steps0)
	}
}

// TestLeafLookupZeroAlloc is the allocation gate for a leaf looked up
// instead of stepped: predicting each successor of a state at the event
// bound and answering it by lookup (Scratch.InspectLeaf), verdict
// included, performs zero heap allocations, and every successor of the
// measured expansions is looked up.
func TestLeafLookupZeroAlloc(t *testing.T) {
	m := cascadeModelOpts(t, Options{MaxEvents: 2, Incremental: true, Invariants: cascadeCatalog(t)})
	sc := m.NewScratch()
	root := m.Initial()
	m.IncrementalDigest(root, false)
	m.Inspect(root)
	stubs := m.Enabled(root, nil)
	first := sc.Step(root, &stubs[0])
	m.IncrementalDigest(first.Next.(*State), false)
	m.Inspect(first.Next.(*State))
	parent := sc.Keep() // a step from the initial state is not recorded; this one's successors are leaves

	succ, looked := 0, 0
	run := func() {
		stubs = m.Enabled(parent, stubs[:0])
		for i := range stubs {
			succ++
			sc.Predict(parent, &stubs[i])
			if _, ok := sc.InspectLeaf(parent); ok {
				looked++
				continue
			}
			tr := sc.Step(parent, &stubs[i])
			m.IncrementalDigest(tr.Next.(*State), false)
			m.Inspect(tr.Next.(*State))
		}
	}
	run() // record
	run() // first use: step, and capture
	run() // first splice: re-hash, and record the leaves' atom bits
	succ0, looked0 := succ, looked
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("predict + leaf lookup allocates %.2f times per expansion, want 0", allocs)
	}
	if n := looked - looked0; succ == succ0 || n != succ-succ0 {
		t.Errorf("%d of %d successors looked up: want every successor of the measured expansions", n, succ-succ0)
	}
}

// TestReducedStepZeroAlloc is the reduced-path twin of
// TestStepDuplicateZeroAlloc: expanding a queue-drain state of the
// concurrent interchangeable-device model — list its transitions,
// choose the persistent subset, step each member into a warm scratch
// and take its canonical digest — allocates only the index slice Reduce
// returns; every transition allocates nothing. It is the gate for the
// paths only POR plus symmetry run: pending dispatch labels, Reduce, the
// orbit-profile sorts and the violation details of repeated commands.
func TestReducedStepZeroAlloc(t *testing.T) {
	// The symmetry test deployment plus Arrival Counter, whose pure-local
	// dispatches on the presence orbit are what Reduce can choose.
	sys := symTestSystem()
	sys.Apps = append(sys.Apps, config.AppInstance{App: "Arrival Counter",
		Bindings: map[string]config.Binding{"people": {DeviceIDs: []string{"presA", "presB", "presC"}}}})
	apps := translate(t, "Any Door Light On", "Any Door Light Off",
		"Arrival Hall Light", "Last Out Lock", "First In Unlock", "Arrival Counter")
	m, err := New(sys, apps, Options{Design: Concurrent, Incremental: true, Symmetry: true,
		MaxEvents: 2, CheckConflicts: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := m.NewScratch()
	root := m.Initial()
	m.IncrementalDigest(root, false)

	// Breadth-first over kept states until one is in the drain phase with
	// a proper persistent subset and a successor that raises a violation;
	// the scratch ends on its chain.
	var stubs []checker.Transition
	raises := func(s *State) bool {
		for _, stub := range m.Enabled(s, nil) {
			if tr := sc.Step(s, &stub); len(tr.Violations) > 0 {
				return true
			}
		}
		return false
	}
	var parent *State
	frontier := []*State{root}
	for len(frontier) > 0 && parent == nil {
		p := frontier[0]
		frontier = frontier[1:]
		for _, stub := range m.Enabled(p, nil) {
			tr := sc.Step(p, &stub)
			m.IncrementalDigest(tr.Next.(*State), false)
			c := sc.Keep()
			frontier = append(frontier, c)
			if stubs = m.Enabled(c, stubs[:0]); m.Reduce(c, stubs) != nil && raises(c) {
				parent = c
				break
			}
		}
	}
	if parent == nil {
		t.Fatal("no state with a persistent subset and a violating successor")
	}

	// Every stub is stepped: the subset the engine would keep and the
	// pruned rest, whose impure handlers raise command-log violations.
	steps, subsets, viols, syncs := 0, 0, 0, sc.FullSyncs()
	run := func() {
		stubs = m.Enabled(parent, stubs[:0])
		if len(m.Reduce(parent, stubs)) > 0 {
			subsets++
		}
		for i := range stubs {
			tr := sc.Step(parent, &stubs[i])
			m.IncrementalDigest(tr.Next.(*State), true)
			viols += len(tr.Violations)
			steps++
		}
	}
	run() // warm the executor, the detail cache and the pooled scratch
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 1 && !raceEnabled { // sync.Pool leaks under race
		t.Errorf("enumerate + reduce + step + canonical digest allocates %.2f times per expansion, want 1 (Reduce's subset)", allocs)
	}
	if steps == 0 || sc.FullSyncs() != syncs {
		t.Errorf("%d steps, %d whole-state copies: want steps from a parent on the scratch's chain", steps, sc.FullSyncs()-syncs)
	}
	if subsets == 0 || viols == 0 {
		t.Errorf("%d subsets, %d violations: the expansion misses the path it gates", subsets, viols)
	}
}

// TestStateSizeClass: a State header fills its allocator size class
// (352 bytes) exactly. The frontier strategy keeps tens of thousands of
// states alive, so a word past the class boundary costs 32 bytes on
// each; a new field has to find its room inside.
func TestStateSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(State{}); size > 352 {
		t.Errorf("State is %d bytes, over the 352-byte size class it is kept within", size)
	}
}

// TestEnabledStubBound: Enabled given a buffer without capacity
// allocates it once, at stubBound, and every stub fits — in each
// design, with failures and with faults, on every state the cascade
// system reaches. A bound that fell short would regrow the buffer by
// doubling, which is what presizing it removes.
func TestEnabledStubBound(t *testing.T) {
	for _, opts := range []Options{
		{MaxEvents: 3},
		{MaxEvents: 3, Design: Concurrent},
		{MaxEvents: 2, Failures: true},
		{MaxEvents: 2, Faults: true, MaxFaults: 2},
		{MaxEvents: 2, Design: Concurrent, Faults: true, MaxFaults: 1, Failures: true, UserDeviceEvents: true, UserModeEvents: true},
	} {
		m := cascadeModelOpts(t, opts)
		seen := map[string]bool{}
		queue := []*State{m.Initial()}
		for len(queue) > 0 && len(seen) < 2000 {
			s := queue[0]
			queue = queue[1:]
			k := string(s.Encode(nil))
			if seen[k] {
				continue
			}
			seen[k] = true
			stubs, bound := m.Enabled(s, nil), m.stubBound(s)
			if len(stubs) > bound || cap(stubs) != bound {
				t.Fatalf("%+v: %d stubs in a buffer of capacity %d, stubBound %d", opts, len(stubs), cap(stubs), bound)
			}
			for _, tr := range m.Expand(s) {
				queue = append(queue, tr.Next.(*State))
			}
		}
		if len(seen) < 10 {
			t.Fatalf("%+v: only %d states reached", opts, len(seen))
		}
	}
}
