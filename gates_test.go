// The gates the matrix and the walker cannot express: a poisoned
// scratch, recycled states watched for reuse, a killed and resumed
// search, a timing ratio, fault-only reachability, orbit splitting under
// outages, Inspect's and Keep's counters on the Table 8 graph, a mixed
// invariant catalog, a seeded missing read and a queue that grows
// mid-dispatch. Each takes its model from the shared table where one
// fits.
package iotsan_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/experiments"
	"iotsan/internal/ifttt"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/smartapp"
)

// cellModel is the model of one cell, failing t on a build error.
func cellModel(t *testing.T, c cell) *model.Model {
	t.Helper()
	m, err := c.model()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// poisonStepper scribbles over everything a Step lent the engine as
// soon as its validity window closes — at the next Step or Keep on the
// same scratch — so a Next or Violations alias the engine retained past
// the window (a trail's From, a parent edge, a deque entry, a state kept
// for depth relaxation) reads poison and changes a verdict. The
// violations a Predict lent, copied out of the model's memo so poison
// never reaches it, are scribbled over at the next Predict or Keep.
type poisonStepper struct{ memoEngineSystem }

type poisonScratch struct {
	inner    checker.Scratch
	lent     checker.Transition
	foretold []checker.Violation // the copy the last Predict lent
}

func (p poisonStepper) NewScratch() checker.Scratch {
	return &poisonScratch{inner: p.memoEngineSystem.NewScratch()}
}

func (p poisonStepper) Step(sc checker.Scratch, parent checker.State, stub *checker.Transition) checker.Transition {
	ps := sc.(*poisonScratch)
	ps.poison()
	ps.lent = p.memoEngineSystem.Step(ps.inner, parent, stub)
	return ps.lent
}

func (p poisonStepper) Keep(sc checker.Scratch, next checker.State) checker.State {
	ps := sc.(*poisonScratch)
	kept := p.memoEngineSystem.Keep(ps.inner, next)
	ps.poison()
	ps.poisonForetold()
	return kept
}

func (p poisonStepper) Predict(sc checker.Scratch, parent checker.State, stub *checker.Transition) (uint64, uint64, []checker.Violation, bool) {
	ps := sc.(*poisonScratch)
	ps.poisonForetold()
	h1, h2, vs, ok := p.memoEngineSystem.Predict(ps.inner, parent, stub)
	ps.foretold = append(ps.foretold[:0], vs...)
	return h1, h2, ps.foretold, ok
}

// InspectLeaf forwards to the inner scratch; the verdict it lends is
// the catalog's, shared with every state of its valuation, so it is
// not poisoned.
func (p poisonStepper) InspectLeaf(sc checker.Scratch, parent checker.State) ([]checker.Violation, bool) {
	return p.memoEngineSystem.InspectLeaf(sc.(*poisonScratch).inner, parent)
}

func (ps *poisonScratch) poisonForetold() {
	for i := range ps.foretold {
		ps.foretold[i] = checker.Violation{Property: "poisoned", Detail: "read after the Predict's window closed"}
	}
	ps.foretold = ps.foretold[:0]
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

// gateWorkloads are the rows the poison and recycling gates search: the
// cheapest corpus group, and a sequential-design group, where the
// transition memo answers and predicted successors take their path.
var gateWorkloads = []string{"group3", "failures"}

// TestPoisonedScratchChurn: with every lent successor and every lent
// prediction poisoned the moment its window closes, both strategies —
// steal's workers share states through deques, the link table and depth
// relaxation — still report exactly the eager adapter's verdict and
// counts. Run under -race in CI, several rounds.
func TestPoisonedScratchChurn(t *testing.T) {
	t.Parallel()
	for _, name := range gateWorkloads {
		c := cell{w: workloadNamed(name)}
		sys := cellModel(t, c).System().(memoEngineSystem)
		for _, strat := range []checker.StrategyKind{checker.StrategySteal, checker.StrategyDFS} {
			opts := checker.Options{MaxDepth: 100, Strategy: strat, Workers: 4}
			want := checker.Run(eagerSystem{sys}, opts)
			if want.Truncated || len(want.Violations) == 0 {
				t.Fatalf("%s/%v: oracle truncated=%v with %d violations", name, strat, want.Truncated, len(want.Violations))
			}
			for round := 0; round < 5; round++ {
				cs := &counted{memoEngineSystem: sys}
				got := checker.Run(poisonStepper{cs}, opts)
				if got.Err != nil {
					t.Fatalf("%s/%v round %d: %v", name, strat, round, got.Err)
				}
				if !slices.Equal(violationSet(got), violationSet(want)) {
					t.Fatalf("%s/%v round %d: violation sets differ:\npoisoned: %q\neager:    %q", name, strat, round, violationSet(got), violationSet(want))
				}
				if got.StatesExplored != want.StatesExplored || got.StatesMatched != want.StatesMatched || got.StatesStored != want.StatesStored {
					t.Fatalf("%s/%v round %d: explored/matched/stored %d/%d/%d, eager %d/%d/%d", name, strat, round,
						got.StatesExplored, got.StatesMatched, got.StatesStored,
						want.StatesExplored, want.StatesMatched, want.StatesStored)
				}
				if strat == checker.StrategySteal && c.memoServes() && cs.predictions.Load() == 0 {
					t.Errorf("%s/%v round %d: no predictions — the predicted path did not run", name, strat, round)
				}
				checkLeafPath(t, fmt.Sprintf("%s/%v round %d", name, strat, round), cs)
			}
		}
	}
}

// checkLeafPath requires the leaf path of a keyed search: some successor
// inspected while borrowed was never kept, and none was inspected twice
// in one window — as it is when a leaf is inspected after the next Step.
func checkLeafPath(t *testing.T, run string, cs *counted) {
	t.Helper()
	if cs.unkept.Load() == 0 {
		t.Errorf("%s: no successor inspected on the scratch and left unkept — the leaf path did not run", run)
	}
	if n := cs.reinspected.Load(); n != 0 {
		t.Errorf("%s: %d successors inspected twice in one borrowed window", run, n)
	}
	if n := cs.leafKeeps.Load(); n != 0 {
		t.Errorf("%s: %d Keep calls on a leaf", run, n)
	}
}

// recycleWatch marks every state handed to Recycle dead and keeps it
// out of the model's free-lists, so no reuse can hide a later use; every
// dead state Enabled, Step, Predict or InspectLeaf (as the parent),
// Inspect or IncrementalDigest is given, or Recycle is given again,
// counts as a dead use.
type recycleWatch struct {
	memoEngineSystem
	mu       sync.Mutex
	dead     map[checker.State]bool
	recycled atomic.Int64
	deadUses atomic.Int64
}

func (r *recycleWatch) Recycle(s checker.State) {
	r.mu.Lock()
	if r.dead[s] {
		r.deadUses.Add(1)
	}
	r.dead[s] = true
	r.mu.Unlock()
	r.recycled.Add(1)
}

func (r *recycleWatch) use(s checker.State) {
	r.mu.Lock()
	if r.dead[s] {
		r.deadUses.Add(1)
	}
	r.mu.Unlock()
}

func (r *recycleWatch) Enabled(s checker.State, buf []checker.Transition) []checker.Transition {
	r.use(s)
	return r.memoEngineSystem.Enabled(s, buf)
}

func (r *recycleWatch) Step(sc checker.Scratch, parent checker.State, stub *checker.Transition) checker.Transition {
	r.use(parent)
	return r.memoEngineSystem.Step(sc, parent, stub)
}

func (r *recycleWatch) Predict(sc checker.Scratch, parent checker.State, stub *checker.Transition) (uint64, uint64, []checker.Violation, bool) {
	r.use(parent)
	return r.memoEngineSystem.Predict(sc, parent, stub)
}

func (r *recycleWatch) InspectLeaf(sc checker.Scratch, parent checker.State) ([]checker.Violation, bool) {
	r.use(parent)
	return r.memoEngineSystem.InspectLeaf(sc, parent)
}

func (r *recycleWatch) Inspect(s checker.State) []checker.Violation {
	r.use(s)
	return r.memoEngineSystem.Inspect(s)
}

func (r *recycleWatch) IncrementalDigest(s checker.State, canonical bool) (h1, h2 uint64) {
	r.use(s)
	return r.memoEngineSystem.IncrementalDigest(s, canonical)
}

// TestStealRecycleKeyed: on the keyed path, where steal recycles every
// consumed, fully expanded state straight to the model, no recycled
// state is ever expanded, stepped or predicted from, inspected or
// digested again, and the search still explores exactly the eager
// adapter's state space. Steal runs several rounds (and under -race in
// CI) because the hazardous interleavings are probabilistic; DFS, which
// recycles popped frames, runs once.
func TestStealRecycleKeyed(t *testing.T) {
	t.Parallel()
	for _, name := range gateWorkloads {
		c := cell{w: workloadNamed(name)}
		sys := cellModel(t, c).System().(memoEngineSystem)
		for _, strat := range []checker.StrategyKind{checker.StrategySteal, checker.StrategyDFS} {
			opts := checker.Options{MaxDepth: 100, Strategy: strat, Workers: 4}
			// The oracle recycles nothing on steal, so it does not lean on
			// the code under test.
			oracle := opts
			oracle.NoEpochReclaim = true
			want := checker.Run(eagerSystem{sys}, oracle)
			if want.Truncated {
				t.Fatalf("%s/%v: oracle truncated", name, strat)
			}
			rounds := 5
			if strat == checker.StrategyDFS {
				rounds = 1
			}
			for round := 0; round < rounds; round++ {
				cs := &counted{memoEngineSystem: sys}
				w := &recycleWatch{memoEngineSystem: cs, dead: map[checker.State]bool{}}
				got := checker.Run(w, opts)
				if got.Err != nil {
					t.Fatalf("%s/%v round %d: %v", name, strat, round, got.Err)
				}
				if n := w.deadUses.Load(); n != 0 {
					t.Fatalf("%s/%v round %d: %d uses of a recycled state", name, strat, round, n)
				}
				if w.recycled.Load() == 0 {
					t.Errorf("%s/%v round %d: Recycle never called — the path under test did not run", name, strat, round)
				}
				if got.StatesExplored != want.StatesExplored || got.StatesMatched != want.StatesMatched || got.StatesStored != want.StatesStored {
					t.Fatalf("%s/%v round %d: explored/matched/stored %d/%d/%d, eager %d/%d/%d", name, strat, round,
						got.StatesExplored, got.StatesMatched, got.StatesStored,
						want.StatesExplored, want.StatesMatched, want.StatesStored)
				}
				if strat == checker.StrategySteal && c.memoServes() && cs.predictions.Load() == 0 {
					t.Errorf("%s/%v round %d: no predictions — the predicted path did not run", name, strat, round)
				}
				checkLeafPath(t, fmt.Sprintf("%s/%v round %d", name, strat, round), cs)
			}
		}
	}
}

// TestTieredKillResumeCorpus: the checkpoint/resume round trip on a real
// corpus model — the model's adapter implements the block-delta codec,
// so checkpointed stack frames spill as (dirty mask, dirty block bytes)
// and resume verifies every frame's delta against deterministic
// re-expansion before committing — ends where the uninterrupted search
// does.
func TestTieredKillResumeCorpus(t *testing.T) {
	t.Parallel()
	m := cellModel(t, cell{w: workloadNamed("group1")})
	baseline := anchorRun(t, "group1", plain)
	dir := t.TempDir()
	opts := checker.Options{MaxDepth: 100, Store: checker.Tiered, StoreDir: dir, MemBudget: 1,
		Checkpoint: true, CheckpointEvery: 128}
	killed := opts
	killed.MaxStates = baseline.StatesExplored / 2
	kres := checker.Run(m.System(), killed)
	if !kres.Truncated || kres.Store.Checkpoints == 0 {
		t.Fatalf("killed run: truncated=%v checkpoints=%d", kres.Truncated, kres.Store.Checkpoints)
	}
	resumed := opts
	resumed.Resume = true
	rres := checker.Run(m.System(), resumed)
	if !rres.Store.Resumed {
		t.Fatal("resume fell back to a fresh search despite an intact WAL")
	}
	if d := outcomeDiff(dfsOutcome(rres), baseline.outcome); d != "" {
		t.Errorf("the resumed search differs from an uninterrupted one: %s", d)
	}
	t.Logf("killed at %d/%d states with %d checkpoints (%d WAL bytes); resumed to an identical result",
		killed.MaxStates, baseline.StatesExplored, kres.Store.Checkpoints, kres.Store.CheckpointBytes)
}

// TestWALKillResumeEveryState: with a checkpoint after every explored
// state, checkpoints land right after runs of leaves — states the DFS
// stores, records and counts but never pushes as frames. A search killed
// halfway and resumed from its last checkpoint reaches the uninterrupted
// search's explored, matched and stored counts and its violation set.
func TestWALKillResumeEveryState(t *testing.T) {
	t.Parallel()
	m := cellModel(t, cell{w: workloadNamed("group3")})
	baseline := anchorRun(t, "group3", plain)
	dir := t.TempDir()
	opts := checker.Options{MaxDepth: 100, StoreDir: dir, Checkpoint: true, CheckpointEvery: 1}
	killed := opts
	killed.MaxStates = baseline.StatesExplored / 2
	kres := checker.Run(m.System(), killed)
	if !kres.Truncated || kres.Store.Checkpoints == 0 {
		t.Fatalf("killed run: truncated=%v checkpoints=%d", kres.Truncated, kres.Store.Checkpoints)
	}
	resumed := opts
	resumed.Resume = true
	rres := checker.Run(m.System(), resumed)
	if rres.Err != nil || !rres.Store.Resumed {
		t.Fatalf("resume fell back to a fresh search despite an intact WAL (err %v)", rres.Err)
	}
	if rres.Truncated || rres.StatesExplored != baseline.StatesExplored || rres.StatesMatched != baseline.StatesMatched ||
		rres.StatesStored != baseline.StatesStored {
		t.Errorf("resumed: truncated=%v explored/matched/stored %d/%d/%d, uninterrupted %d/%d/%d", rres.Truncated,
			rres.StatesExplored, rres.StatesMatched, rres.StatesStored,
			baseline.StatesExplored, baseline.StatesMatched, baseline.StatesStored)
	}
	if got := violationSet(rres); !slices.Equal(got, baseline.violations) {
		t.Errorf("resumed violation set differs:\nresumed:       %q\nuninterrupted: %q", got, baseline.violations)
	}
	t.Logf("killed at %d/%d states after %d checkpoints; resumed with %d more",
		killed.MaxStates, baseline.StatesExplored, kres.Store.Checkpoints, rres.Store.Checkpoints)
}

// TestStealPerWorkerParity: work-stealing on one worker must reach at
// least half the DFS's throughput on the largest corpus group (paired
// best-of-5, one DFS and one steal run per repetition so both sample the
// same machine conditions). The allocate-per-state path this gate exists
// to catch ran at about 0.3×.
func TestStealPerWorkerParity(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a timing assertion")
	}
	m := cellModel(t, cell{w: workloadNamed("group4")})
	var rate [2]float64 // best states/s: dfs, steal on one worker
	for i := 0; i < 5; i++ {
		for s, opts := range []checker.Options{{MaxDepth: 100, MaxStates: 20000},
			{MaxDepth: 100, MaxStates: 20000, Strategy: checker.StrategySteal, Workers: 1}} {
			start := time.Now()
			res := checker.Run(m.System(), opts)
			rate[s] = max(rate[s], float64(res.StatesExplored)/time.Since(start).Seconds())
		}
	}
	t.Logf("dfs %.0f states/s, steal=1 %.0f states/s → %.2fx", rate[0], rate[1], rate[1]/rate[0])
	if rate[1] < rate[0]/2 {
		t.Errorf("steal=1 runs at %.2fx of DFS throughput, want >= 0.5x", rate[1]/rate[0])
	}
}

// TestFaultOnlyViolationReachability: the climate deployment's
// mutual-exclusion invariant (heater and AC never both on) holds without
// faults — both commands issue within one handler run, off before on —
// and is violated once an outage can hold the off-command in flight.
// With budget for a drop, the silently dropped command of an unnotified
// app raises the robustness property, while the app that pushes a
// notification alongside its command never does.
func TestFaultOnlyViolationReachability(t *testing.T) {
	t.Parallel()
	const exclusion = "therm.ac-and-heater-both-on"
	w := workloadNamed("fault")
	on, err := w.reference(false)
	if err != nil {
		t.Fatal(err)
	}
	free, err := w.modelWith("fault-free", func(o *model.Options) { o.Faults, o.MaxFaults, o.CheckRobustness = false, 0, false })
	if err != nil {
		t.Fatal(err)
	}
	off, err := referenceBFS(free, false)
	if err != nil {
		t.Fatal(err)
	}
	has := func(ref reference, prop string) bool {
		return slices.ContainsFunc(ref.violations, func(k string) bool { return strings.HasPrefix(k, prop+"\x00") })
	}
	if has(off, exclusion) || has(off, model.PropRobustness) {
		t.Fatalf("reachable without faults: %q", off.violations)
	}
	if !has(on, exclusion) || !has(on, model.PropRobustness) || on.faultEdges == 0 {
		t.Errorf("with MaxFaults=2 over %d fault transitions, want %s and %s among %q", on.faultEdges, exclusion, model.PropRobustness, on.violations)
	}
	for _, k := range on.violations {
		if strings.HasPrefix(k, model.PropRobustness+"\x00") && strings.Contains(k, "Heater Push Guard") {
			t.Errorf("notified app flagged as a silent drop: %q", k)
		}
	}
}

// TestFaultOfflineOrbitSplit: taking one orbit member offline splits it
// from its still-online peers — the canonical encoding may not fold an
// offline sensor with an online one — while isomorphic outage states,
// different members of one orbit offline, still fold, and so does the
// device-permutation image of an outage state; on orbits of three and of
// two.
func TestFaultOfflineOrbitSplit(t *testing.T) {
	for _, w := range []*workload{fleet("fault-orbit", 0), pairFleet} {
		t.Run(w.name, func(t *testing.T) {
			m := cellModel(t, cell{w: w})
			if m.SymmetryStats().Orbits == 0 {
				t.Fatal("no orbits: the split check is vacuous")
			}
			init := m.Initial()
			offline := map[string]*model.State{}
			for _, tr := range m.Expand(init) {
				if name, ok := strings.CutSuffix(tr.Label, " goes offline"); ok {
					offline[strings.TrimPrefix(name, "fault: ")] = tr.Next.(*model.State)
				}
			}
			offA, offB := offline["Presence A"], offline["Presence B"]
			if offA == nil || offB == nil {
				t.Fatalf("outage transitions missing (got %d offline successors)", len(offline))
			}
			encA := m.CanonicalEncode(offA, nil)
			if !bytes.Equal(encA, m.CanonicalEncode(offB, nil)) {
				t.Error("isomorphic outage states (A offline vs B offline) fail to fold canonically")
			}
			if bytes.Equal(encA, m.CanonicalEncode(init, nil)) {
				t.Error("outage state canonicalizes like the fully-online state: the orbit failed to split")
			}
			// Swapping the offline member with an online peer is a group
			// element: the image must fold with the original.
			perm := make([]int, len(m.Devices))
			idx := map[string]int{}
			for d, di := range m.Devices {
				perm[d], idx[di.Label] = d, d
			}
			a, b := idx["Presence A"], idx["Presence B"]
			perm[a], perm[b] = b, a
			img, ok := m.ApplyDevicePermutation(offA, perm)
			if !ok {
				t.Fatal("presence transposition rejected: not a group element?")
			}
			if !bytes.Equal(m.CanonicalEncode(img, nil), encA) {
				t.Error("permutation image of an outage state canonicalizes differently from the original")
			}
		})
	}
}

// valuationSystem runs the valuation check as the engine's Inspect, and
// on every leaf the engine looks up instead: the lookup's word and
// violations against the successor stepped on the check's own scratch
// (one worker only: the check is not safe for concurrent use).
type valuationSystem struct {
	memoEngineSystem
	o *valuation
}

func (v valuationSystem) Inspect(s checker.State) []checker.Violation {
	return v.o.inspect(s.(*model.State))
}

func (v valuationSystem) Predict(sc checker.Scratch, parent checker.State, stub *checker.Transition) (uint64, uint64, []checker.Violation, bool) {
	v.o.stub = *stub
	return v.memoEngineSystem.Predict(sc, parent, stub)
}

func (v valuationSystem) InspectLeaf(sc checker.Scratch, parent checker.State) ([]checker.Violation, bool) {
	vs, ok := v.memoEngineSystem.InspectLeaf(sc, parent)
	if ok {
		v.o.lookedUp(parent.(*model.State), sc.(*model.Scratch).LeafWord(), vs)
	}
	return vs, ok
}

// TestInspectCountersTable8: on the benchmark's table8_dfs graph (the
// Table 8 system at 5 events, as Analyze builds it), a DFS runs the
// catalog's formulas once per distinct valuation — as many as an
// independent walk that evaluates every atom of every state counts — on
// under 2 % of the stored states, and re-evaluates under a quarter of the
// atoms. It clones out only the stored states it will expand: 28,301
// Keep calls, one per stored state but the initial one and the 113,070
// leaves the walk finds. At least 110,000 of those leaves are looked up
// (InspectLeaf) and never stepped, so it makes at most 30,000 Step calls,
// under 1,000 of them handler cascades (the rest splices from the
// transition memo). The valuation check covers every inspected state and
// every looked-up leaf: each lookup's word and violations are held to
// the successor stepped on the check's own scratch.
func TestInspectCountersTable8(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a 141k-state search and an independent walk of the same graph")
	}
	t.Parallel()
	sys, apps, err := experiments.Table8System()
	if err != nil {
		t.Fatal(err)
	}
	m := oneShotModel(t, sys, apps, 5)
	o, err := newValuation(m)
	if err != nil {
		t.Fatal(err)
	}
	cs := &counted{memoEngineSystem: m.System().(memoEngineSystem)}
	res := checker.Run(valuationSystem{cs, o}, checker.Options{MaxDepth: 5 + 64, MaxStates: 1_000_000})
	if o.div.count > 0 {
		t.Fatalf("%d of %d inspected states diverge; first: %s", o.div.count, o.inspected, o.div.first)
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
	leaves := 0
	for stack := []*model.State{init}; len(stack) > 0; {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		trs := m.Expand(s)
		if len(trs) == 0 {
			leaves++
		}
		for _, tr := range trs {
			if next := tr.Next.(*model.State); visit(next) {
				stack = append(stack, next)
			}
		}
	}

	stored, decided := res.StatesStored, m.VerdictsDecided()
	if res.Truncated || len(seen) != stored {
		t.Fatalf("the search stored %d states (truncated=%v), the walk reached %d", stored, res.Truncated, len(seen))
	}
	if keeps := int(cs.keeps.Load()); keeps != stored-1-leaves || keeps != 28_301 {
		t.Errorf("%d Keep calls for %d stored states, %d of them leaves: want %d, and Table 8 at 5 events 28,301",
			keeps, stored, leaves, stored-1-leaves)
	}
	steps, splices, lookups := int(cs.steps.Load()), int(cs.splices.Load()), int(cs.lookups.Load())
	if steps-splices > 1_000 || steps > 30_000 {
		t.Errorf("%d Step calls, %d of them splices: want at most 30,000, and at most 1,000 handler cascades", steps, splices)
	}
	if lookups < 110_000 || o.looked != lookups {
		t.Errorf("%d leaves looked up, %d of them checked: want at least 110,000, every one checked", lookups, o.looked)
	}
	if decided != len(words) {
		t.Errorf("%d verdicts decided, the walk met %d distinct valuations", decided, len(words))
	}
	if decided*50 > stored {
		t.Errorf("%d verdicts decided for %d stored states: over 2 %%", decided, stored)
	}
	if budget := len(o.table.Atoms) * stored; o.evaluated*4 > budget {
		t.Errorf("%d atoms evaluated, over a quarter of %d atoms × %d states", o.evaluated, len(o.table.Atoms), stored)
	}
	t.Logf("%d states, %d violations: %d verdicts decided (%.2f %% of states), %d atoms evaluated (%.1f per state), %d steps, %d spliced, %d leaves looked up",
		stored, len(res.Violations), decided, 100*float64(decided)/float64(stored), o.evaluated, float64(o.evaluated)/float64(stored), steps, splices, lookups)
}

// TestInspectValuationTable9 runs the walker's valuation check over
// Table 9's own atom table, with cascade inspection, with and without the
// block cache; the search finds all four properties violated. The check
// has teeth on every atom that reads something: with the block cache, a
// table where that atom declares no reads is caught on the walk. That
// needs a wider event space than Table 9's, where each such atom changes
// across some transition: an app sounds the siren only in a cascade that
// silences it again, and none changes the mode, so the user does both.
func TestInspectValuationTable9(t *testing.T) {
	sys, apps, err := ifttt.BuildSystem(ifttt.Table9Applets())
	if err != nil {
		t.Fatal(err)
	}
	sys.Mode = "Away"
	plan, err := model.Prepare(sys)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := plan.PrepareApps(sys.Apps, apps, false)
	if err != nil {
		t.Fatal(err)
	}
	invs, err := ifttt.Table9Properties(plan)
	if err != nil {
		t.Fatal(err)
	}
	build := func(invs []model.Invariant, incremental, wide bool) *model.Model {
		t.Helper()
		m, err := plan.Build(insts, model.Options{
			MaxEvents: 2, InspectCascade: true, Incremental: incremental, Invariants: invs,
			UserDeviceEvents: wide, UserModeEvents: wide,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, incremental := range []bool{true, false} {
		m := build(invs, incremental, false)
		r, err := walk(m, nil, 9)
		if err != nil {
			t.Fatal(err)
		}
		r.assert(t, "valuation")
		res := checker.Run(m.System(), checker.Options{MaxDepth: 10})
		if ids := res.PropertyIDs(); len(ids) != len(invs) || res.Truncated {
			t.Errorf("cache=%v: violated %q (truncated=%v), want all %d properties", incremental, ids, res.Truncated, len(invs))
		}
	}
	r, err := walk(build(invs, true, true), nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	r.assert(t, "valuation")
	table := invs[0].Atoms
	for i, a := range table.Atoms {
		if len(a.Reads) == 0 && !a.ReadsMode {
			continue // no such device in the system: a constant
		}
		atoms := slices.Clone(table.Atoms)
		atoms[i].Reads, atoms[i].ReadsMode = nil, false
		forgetful, err := plan.NewAtomTable(atoms)
		if err != nil {
			t.Fatal(err)
		}
		wrong := slices.Clone(invs)
		for j := range wrong {
			wrong[j].Atoms = forgetful
		}
		r, err := walk(build(wrong, true, true), nil, 9)
		if err != nil {
			t.Fatal(err)
		}
		if r.div["valuation"].count == 0 {
			t.Errorf("atom %s declaring no reads went unnoticed over %d inspected states", a.Name, r.checked["valuation"])
		}
	}
}

// TestInspectValuationCatchesMissingRead: the valuation check has teeth.
// A catalog whose atoms no longer declare reading one device — so a
// write to it leaves them fresh on the successor — is caught on the walk.
// The device is the one whose events flip smoke_detected on group 3.
func TestInspectValuationCatchesMissingRead(t *testing.T) {
	t.Parallel()
	w := workloadNamed("group3")
	base := cellModel(t, cell{w: w})
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
	m, err := w.modelWith("forgetful", func(o *model.Options) {
		o.Incremental = true
		o.Invariants = slices.Clone(o.Invariants)
		for i := range o.Invariants {
			o.Invariants[i].Atoms = forgetful
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := walk(m, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.div["valuation"]; d.count == 0 {
		t.Errorf("atoms that do not declare reading %s went unnoticed over %d inspected states", m.Devices[dev].ID, r.checked["valuation"])
	} else {
		t.Logf("forgetting %s: %d of %d inspected states diverge; first: %s", m.Devices[dev].ID, d.count, r.checked["valuation"], d.first)
	}
}

// burstApp's handler enqueues 20 events while the cascade that runs it
// is draining its first: 18 switch changes carried by reference, a
// synthetic string-valued event and a mode change. The executor's queue
// outgrows its backing array in the middle of that dispatch, and the
// second subscriber of the same event (Witness.saw) is delivered from
// the moved queue.
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
// walker finds the keyed path equal to Expand successor by successor,
// and on the sequential design, whose cascades run the queue, a whole
// keyed search equals the eager adapter's.
func TestQueueReallocationMidDispatch(t *testing.T) {
	t.Parallel()
	for _, design := range []model.Design{model.Sequential, model.Concurrent} {
		m, total := burstModel(t, design), 0
		for seed := int64(1); seed <= 8; seed++ { // the state graph is narrow: a walk descends a few levels
			r, err := walk(m, nil, seed)
			if err != nil {
				t.Fatal(err)
			}
			for check, d := range r.div {
				if d.count > 0 {
					t.Fatalf("%v %s: %d divergences over %d successors; first: %s", design, check, d.count, r.successors, d.first)
				}
			}
			total += r.successors
		}
		if total < 20 {
			t.Fatalf("%v: the walks compared only %d successors", design, total)
		}
	}

	m := burstModel(t, model.Sequential)
	storm := false
	for _, tr := range m.Expand(m.Initial()) {
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
	sys := m.System().(keyedEngineSystem)
	opts := checker.Options{MaxDepth: 16}
	want, got := checker.Run(eagerSystem{sys}, opts), checker.Run(sys, opts)
	if want.Truncated || got.Truncated || len(want.Violations) == 0 {
		t.Fatalf("truncated (eager=%v keyed=%v) or vacuous (%d violations)", want.Truncated, got.Truncated, len(want.Violations))
	}
	if d := outcomeDiff(dfsOutcome(got), dfsOutcome(want)); d != "" {
		t.Errorf("the keyed search differs from the eager one: %s", d)
	}
}
