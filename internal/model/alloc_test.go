package model

import (
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

// TestStealSteadyStateAllocParity is the CI allocation gate for the
// parallel expansion hot path: a complete work-stealing search at
// workers=1 (epoch reclamation on, so dead frontier states recycle
// through the model's pool) must stay within one allocation per
// explored state of sequential DFS — room for the link table's
// doublings, the deque and the reclamation limbo, which DFS does not
// have (0.68 measured), but not for a per-state map entry or retained
// label string (1.32 with the parent-link maps), let alone a fresh clone
// per stored state (six allocations with the block cache). The bound
// was a ratio (2×) while both strategies cloned every generated
// successor; with successors stepped in a scratch DFS is down to a
// fraction of an allocation per state and a ratio would gate on noise.
func TestStealSteadyStateAllocParity(t *testing.T) {
	// Fixed per-search setup (deque ring, reclaimer slots, visited
	// store, goroutine spawn) dwarfs the per-state cost on a model this
	// small, so the gate measures the MARGINAL allocations per state
	// between two workload sizes — the setup cancels and what remains
	// is the expansion hot path.
	small := cascadeModelOpts(t, Options{MaxEvents: 3, Incremental: true})
	big := cascadeModelOpts(t, Options{MaxEvents: 7, Incremental: true})
	marginal := func(strat checker.StrategyKind) float64 {
		o := checker.Options{MaxDepth: 100, Strategy: strat, Workers: 1}
		measure := func(m *Model) (float64, int) {
			res := checker.Run(m.System(), o) // warm the model's pools; capture the state count
			if res.Truncated || res.StatesExplored == 0 {
				t.Fatalf("%v: truncated=%v states=%d", strat, res.Truncated, res.StatesExplored)
			}
			return testing.AllocsPerRun(5, func() {
				checker.Run(m.System(), o)
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

// TestStateSizeClass: a State header fills its allocator size class
// (352 bytes) exactly. The frontier strategy keeps tens of thousands of
// states alive, so a word past the class boundary costs 32 bytes on
// each; a new field has to find its room inside.
func TestStateSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(State{}); size > 352 {
		t.Errorf("State is %d bytes, over the 352-byte size class it is kept within", size)
	}
}
