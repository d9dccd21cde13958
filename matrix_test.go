// The verdict matrix: one table of workloads, one oracle, and every
// engine axis a column. The oracle is referenceBFS, a breadth-first
// search over the model that calls only Initial, Expand and Inspect and
// keys its visited set on the full Encode bytes (CanonicalEncode for the
// symmetry columns): no digest, store, scratch, recycler, reduction or
// lazy trail. A cell is one workload searched under one value of each
// axis —
//
//	reduction  plain, por, sym, both
//	strategy   dfs, steal on 1 worker, steal on 4
//	store      hash, tiered with every fingerprint spilling, bitstate sized to be exact
//	path       keyed (Step and Keep), eager (the adapter over Expand)
//	executor   compiled, interpreter
//	encode     incremental block cache, flat
//	memo       the transition memo (checker.Predictor) on, off
//
// — and is held to the oracle. The memo axis is off only in the twin of
// a cell the memo can serve (keyed, cached, sequential design without
// faults, on either strategy), named with a -nomemo suffix. A DFS twin
// is held to its anchor, memo on, counter for counter and trail for
// trail; a steal twin to the same cell with the memo on, counter for
// counter and on the violation set (steal trails are whichever path got
// there first, so they vary from run to run). Steal runs only on the hash store: a
// steal cell on another store holds the checker to its refusal, an
// error and nothing else. A plain cell stores exactly the
// reference's states, takes exactly its transitions and reports exactly
// its violation set, and on steal reaches exactly its deepest level. A
// symmetry cell stores exactly the canonical reference's states. A POR
// cell reports the same violation set in no more states. Every DFS cell
// equals its anchor, the same workload and reduction on the default
// engine, counter for counter and trail for trail. Every cell inspects
// once per stored state, and every trail it reports replays on the raw
// model.
//
// A plain go test runs an all-pairs covering array of the axes, with the
// workload an axis too, the full product on the small workloads, and the
// anchors; one flag runs the full product everywhere:
//
//	go test -run TestMatrix -count=1 . -args -matrix.full
//
// Under the race detector only group3 runs.
package iotsan_test

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/props"
)

var matrixFull = flag.Bool("matrix.full", false, "run the full product of the matrix axes, not its all-pairs covering array")

// memos holds every model, oracle, search and walk the root tests share:
// each is computed once per process, by whichever test asks first.
var memos sync.Map

func memo[T any](key any, build func() (T, error)) (T, error) {
	f, _ := memos.LoadOrStore(key, sync.OnceValues(build))
	return f.(func() (T, error))()
}

// corpusShapes pins one fully explorable concurrent-design workload per
// market group: (apps, events) chosen so the unreduced search completes
// quickly. Groups 2 and 4 hold timer- and cascade-heavy apps whose full
// concurrent spaces explode (the Table 7b effect itself), so they run on
// prefixes.
var corpusShapes = [6]struct{ napps, events int }{{12, 2}, {6, 2}, {0, 1}, {12, 2}, {12, 2}, {12, 2}}

// corpusSystem is the expert configuration of the first napps apps of a
// market group (all of them when napps is 0).
func corpusSystem(group, napps int) (*config.System, map[string]*ir.App, error) {
	sources := corpus.Group(group)
	if napps > 0 && napps < len(sources) {
		sources = sources[:napps]
	}
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		return nil, nil, err
	}
	return experiments.ExpertConfig(fmt.Sprintf("group-%d", group), sources, apps), apps, nil
}

// workload is one row of the table: a system, the model options its
// searches share and the depth bound that leaves them complete.
type workload struct {
	name     string
	maxDepth int
	opts     model.Options // CheckConflicts, Symmetry and the catalog are added for every row
	system   func() (*config.System, map[string]*ir.App, error)
	small    bool // a plain go test runs the full product of the axes on it
}

// workloads is the matrix's table, shared with the walker and with every
// root gate that searches a corpus model.
var workloads = func() []*workload {
	var ws []*workload
	for g := 1; g <= 6; g++ {
		shape := corpusShapes[g-1]
		ws = append(ws, &workload{name: fmt.Sprintf("group%d", g), maxDepth: 100,
			opts:   model.Options{MaxEvents: shape.events, Design: model.Concurrent},
			system: func() (*config.System, map[string]*ir.App, error) { return corpusSystem(g, shape.napps) }})
	}
	fleet := func() (*config.System, map[string]*ir.App, error) { return experiments.SymmetrySystem("symmetry") }
	climate := func() (*config.System, map[string]*ir.App, error) { return experiments.FaultSystem("fault") }
	return append(ws,
		// The interchangeable-device fleet, two orbits of three, under both designs.
		&workload{name: "symmetry", maxDepth: 100, system: fleet,
			opts: model.Options{MaxEvents: 2, Design: model.Concurrent}},
		&workload{name: "symmetry-sequential", maxDepth: 100, system: fleet,
			opts: model.Options{MaxEvents: 2}},
		// The climate deployment with a live fault budget of 2 and of 1.
		&workload{name: "fault", maxDepth: 116, system: climate,
			opts: model.Options{MaxEvents: 2, CheckRobustness: true, Faults: true, MaxFaults: 2}},
		&workload{name: "fault1", maxDepth: 108, system: climate,
			opts: model.Options{MaxEvents: 2, CheckRobustness: true, Faults: true, MaxFaults: 1}},
		// Transient failures and the leakage properties on a whole
		// sequential-design corpus group.
		&workload{name: "failures", maxDepth: 100,
			opts:   model.Options{MaxEvents: 2, Failures: true, CheckRobustness: true, CheckLeakage: true},
			system: func() (*config.System, map[string]*ir.App, error) { return corpusSystem(2, 0) }},
		// The POR side-condition rows (por_conditions_test.go).
		&workload{name: "por-spawn", maxDepth: 100, small: true, opts: model.Options{MaxEvents: 1, Design: model.Concurrent},
			system: func() (*config.System, map[string]*ir.App, error) {
				return porConditionSystem("por-spawn", porSpawnApps)
			}},
		&workload{name: "por-impure", maxDepth: 100, small: true, opts: model.Options{MaxEvents: 1, Design: model.Concurrent},
			system: func() (*config.System, map[string]*ir.App, error) {
				return porConditionSystem("por-impure", porImpureApps)
			}},
	)
}()

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	panic("no workload " + name)
}

// build is a workload's system translated and its catalog compiled.
type build struct {
	sys  *config.System
	apps map[string]*ir.App
	opts model.Options
}

func (w *workload) build() (build, error) {
	return memo(w, func() (build, error) {
		sys, apps, err := w.system()
		if err != nil {
			return build{}, err
		}
		invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
		opts := w.opts
		opts.CheckConflicts, opts.Symmetry, opts.Invariants = true, true, invs
		return build{sys, apps, opts}, err
	})
}

// modelWith builds the workload's model with its options changed: the
// matrix's executor and encode variants, the walker's twins.
func (w *workload) modelWith(key string, change func(*model.Options)) (*model.Model, error) {
	return memo(struct {
		w   *workload
		key string
	}{w, key}, func() (*model.Model, error) {
		b, err := w.build()
		if err != nil {
			return nil, err
		}
		opts := b.opts
		change(&opts)
		return model.New(b.sys, b.apps, opts)
	})
}

// Axis values. Each axis counts from its default: the anchor of a cell
// is the cell with every axis but the reduction at 0.
const (
	plain, por, sym, both  = 0, 1, 2, 3
	dfs, steal1, steal4    = 0, 1, 2
	hash, tiered, bitstate = 0, 1, 2
	keyed, eager           = 0, 1
	compiled, interp       = 0, 1
	incremental, flat      = 0, 1
)

// axes names every value of every axis, in cell field order.
var axes = [][]string{
	{"plain", "por", "sym", "both"},
	{"dfs", "steal1", "steal4"},
	{"hash", "tiered", "bitstate"},
	{"keyed", "eager"},
	{"compiled", "interp"},
	{"incremental", "flat"},
}

type cell struct {
	w                                                  *workload
	reduction, strategy, store, path, executor, encode int
	memo                                               int
}

// Memo axis values.
const memoOn, memoOff = 0, 1

func (c *cell) axis(i int) *int {
	return [...]*int{&c.reduction, &c.strategy, &c.store, &c.path, &c.executor, &c.encode}[i]
}

func (c cell) String() string {
	var parts []string
	for i := range axes {
		parts = append(parts, axes[i][*c.axis(i)])
	}
	if c.memo == memoOff {
		parts = append(parts, "nomemo")
	}
	return strings.Join(parts, "-")
}

// memoServes reports whether the transition memo can answer in c: a
// search the checker runs, on the keyed path and the block cache, the
// sequential design without faults. (Under a symmetry fold the engine
// does not ask, so such a cell runs with the memo idle.)
func (c cell) memoServes() bool {
	o := c.w.opts
	return !c.refused() && c.path == keyed && c.encode == incremental && o.Design == model.Sequential && !o.Faults
}

// refused reports whether the checker refuses c's options: steal keeps
// its visited set in its link table and runs on no other store.
func (c cell) refused() bool { return c.strategy != dfs && c.store != hash }

// anchor is the cell c's DFS results must equal: the default engine on
// c's workload and reduction. Under symmetry the two encoders may pick
// different orbit representatives, which reorders a quotient search
// without changing what it finds, so there the anchor keeps c's encode.
func (c cell) anchor() cell {
	a := cell{w: c.w, reduction: c.reduction}
	if c.reduction == sym || c.reduction == both {
		a.encode = c.encode
	}
	return a
}

// model is the model a cell searches: the only place the matrix selects
// the interpreter or the flat encoder.
func (c cell) model() (*model.Model, error) {
	return c.w.modelWith(fmt.Sprintf("%s-%s", axes[4][c.executor], axes[5][c.encode]), func(o *model.Options) {
		o.Interpreter = c.executor == interp
		o.Incremental = c.encode == incremental
	})
}

// counted is the model's adapter with Inspect, Step, Keep and the
// memo's answers counted, and with each Step's borrowed window watched:
// leaves counts the Inspect calls on a state with no enabled transition
// and the leaves looked up (lookups: InspectLeaf's answers, which stand
// for the Inspect of a leaf never stepped), and leafKeeps the Keep calls
// on a leaf; unkept counts the windows in which the engine inspected the
// borrowed successor and closed without a Keep (a leaf dropped on the
// scratch), reinspected the windows whose successor was inspected twice.
// splices counts the Step calls a model scratch served by splicing,
// without a handler cascade.
type counted struct {
	memoEngineSystem
	inspects, steps, keeps, predictions    atomic.Int64
	leaves, leafKeeps, unkept, reinspected atomic.Int64
	splices, lookups                       atomic.Int64
	windows                                sync.Map // scratch → *window
	lentBy                                 sync.Map // a borrowed Next → its scratch's *window
}

// window is one scratch's current borrowed successor: touched only by the
// worker that owns the scratch.
type window struct {
	next      checker.State
	inspected int
	kept      bool
}

// endWindow ends w's window at the next Step or a Keep on its scratch.
func (c *counted) endWindow(w *window) {
	if w.next != nil && w.inspected > 0 && !w.kept {
		c.unkept.Add(1)
	}
	*w = window{}
}

func (c *counted) windowOf(sc checker.Scratch) *window {
	w, _ := c.windows.LoadOrStore(sc, new(window))
	return w.(*window)
}

func (c *counted) isLeaf(s checker.State) bool {
	return len(c.memoEngineSystem.Enabled(s, nil)) == 0
}

func (c *counted) Inspect(s checker.State) []checker.Violation {
	c.inspects.Add(1)
	if c.isLeaf(s) {
		c.leaves.Add(1)
	}
	if v, ok := c.lentBy.Load(s); ok && v.(*window).next == s {
		w := v.(*window)
		if w.inspected++; w.inspected > 1 {
			c.reinspected.Add(1)
		}
	}
	return c.memoEngineSystem.Inspect(s)
}

func (c *counted) Step(sc checker.Scratch, parent checker.State, stub *checker.Transition) checker.Transition {
	c.steps.Add(1)
	w := c.windowOf(sc)
	c.endWindow(w)
	ms, _ := sc.(*model.Scratch)
	spliced := 0
	if ms != nil {
		spliced = ms.Splices()
	}
	tr := c.memoEngineSystem.Step(sc, parent, stub)
	if ms != nil && ms.Splices() > spliced {
		c.splices.Add(1)
	}
	w.next = tr.Next
	if old, ok := c.lentBy.Load(tr.Next); !ok || old != w {
		c.lentBy.Store(tr.Next, w)
	}
	return tr
}

func (c *counted) Keep(sc checker.Scratch, next checker.State) checker.State {
	c.keeps.Add(1)
	if c.isLeaf(next) {
		c.leafKeeps.Add(1)
	}
	w := c.windowOf(sc)
	w.kept = true
	c.endWindow(w)
	return c.memoEngineSystem.Keep(sc, next)
}

func (c *counted) Predict(sc checker.Scratch, parent checker.State, stub *checker.Transition) (uint64, uint64, []checker.Violation, bool) {
	h1, h2, vs, ok := c.memoEngineSystem.Predict(sc, parent, stub)
	if ok {
		c.predictions.Add(1)
	}
	return h1, h2, vs, ok
}

func (c *counted) InspectLeaf(sc checker.Scratch, parent checker.State) ([]checker.Violation, bool) {
	vs, ok := c.memoEngineSystem.InspectLeaf(sc, parent)
	if ok {
		c.lookups.Add(1)
		c.leaves.Add(1)
	}
	return vs, ok
}

// noMemo hides checker.Predictor: keyedEngineSystem does not list it,
// so the engine steps every successor.
type noMemo struct{ keyedEngineSystem }

// eagerSystem hides checker.Stepper: engineSystem does not list it, so
// the engine serves the wrapped system through its eager adapter.
type eagerSystem struct{ engineSystem }

// cellResult is what one search of a cell found and what it asked of
// the model. It keeps no trail, so the full product fits in memory: a
// trail is replayed, and on DFS printed into outcome, before the search
// is memoized.
type cellResult struct {
	*checker.Result
	violations                          []string
	inspects, steps, keeps, predictions int
	leaves, leafKeeps, lookups          int    // see counted
	outcome                             string // DFS only; see dfsOutcome
	faultTrails                         int    // trails through a fault transition
	replay                              error  // the first trail that does not replay
}

// run searches the cell once per process.
func (c cell) run() (*cellResult, error) {
	return memo(c, func() (*cellResult, error) {
		m, err := c.model()
		if err != nil {
			return nil, err
		}
		opts := checker.Options{MaxDepth: c.w.maxDepth, MaxStates: stateCap,
			POR: c.reduction == por || c.reduction == both, Symmetry: c.reduction == sym || c.reduction == both}
		switch c.strategy {
		case steal1:
			opts.Strategy, opts.Workers = checker.StrategySteal, 1
		case steal4:
			opts.Strategy, opts.Workers = checker.StrategySteal, 4
		}
		switch c.store {
		case tiered:
			dir, err := os.MkdirTemp("", "iotsan-matrix-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			opts.Store, opts.StoreDir, opts.MemBudget = checker.Tiered, dir, 1 // the hot-tier floor: nearly every fingerprint spills
		case bitstate:
			opts.Store = checker.Bitstate
		}
		sys := &counted{memoEngineSystem: m.System().(memoEngineSystem)}
		var res *checker.Result
		switch {
		case c.path == eager:
			res = checker.Run(eagerSystem{sys}, opts)
		case c.memo == memoOff:
			res = checker.Run(noMemo{sys}, opts)
		default:
			res = checker.Run(sys, opts)
		}
		r := &cellResult{Result: res, violations: violationSet(res), inspects: int(sys.inspects.Load()),
			steps: int(sys.steps.Load()), keeps: int(sys.keeps.Load()), predictions: int(sys.predictions.Load()),
			leaves: int(sys.leaves.Load()), leafKeeps: int(sys.leafKeeps.Load()), lookups: int(sys.lookups.Load())}
		if c.strategy == dfs {
			r.outcome = dfsOutcome(res)
		}
		r.faultTrails, r.replay = replayTrails(m, res)
		res.Violations = nil
		return r, nil
	})
}

// memoEngineSystem is every hook model.System() implements.
type memoEngineSystem interface {
	keyedEngineSystem
	checker.Predictor
}

// keyedEngineSystem is every hook but checker.Predictor.
type keyedEngineSystem interface {
	engineSystem
	checker.Stepper
}

// engineSystem is every hook but checker.Stepper: a wrapper embedding it
// is searched through the engine's eager adapter.
type engineSystem interface {
	checker.System
	checker.Replayer
	checker.Reducer
	checker.ProgressCertifier
	checker.CanonicalEncoder
	HasSymmetry() bool
	checker.IncrementalDigester
	checker.StateRecycler
	checker.TransitionRecycler
	checker.DeltaCodec
}

// stateCap stops a search, or the reference, at four times the largest
// workload: one that gets there has lost its deduplication, and is
// reported truncated rather than left to exhaust memory. (Analyze caps
// every search too, so the capped engine path is the product's.)
const stateCap = 200_000

// reference is what the oracle learns about a workload.
type reference struct {
	states, edges, faultEdges int // keys reached; transitions and fault transitions leaving them
	leaves                    int // keys reached whose state has no transition
	depth                     int // deepest breadth-first level holding a state
	violations                []string
}

// reference runs referenceBFS once per workload, on the cache-less
// compiled model; canonical keys it on CanonicalEncode.
func (w *workload) reference(canonical bool) (reference, error) {
	return memo(struct {
		w         *workload
		canonical bool
	}{w, canonical}, func() (reference, error) {
		m, err := cell{w: w, encode: flat}.model()
		if err != nil {
			return reference{}, err
		}
		return referenceBFS(m, canonical)
	})
}

func referenceBFS(m *model.Model, canonical bool) (reference, error) {
	key := func(s *model.State, buf []byte) []byte {
		if canonical {
			return m.CanonicalEncode(s, buf)
		}
		return s.Encode(buf)
	}
	var ref reference
	viols := map[string]bool{}
	note := func(vs []checker.Violation) {
		for _, v := range vs {
			viols[v.Property+"\x00"+v.Detail] = true
		}
	}
	init := m.Initial()
	seen := map[string]bool{string(key(init, nil)): true}
	note(m.Inspect(init))
	var buf []byte
	for level := []*model.State{init}; len(level) > 0; ref.depth++ {
		var next []*model.State
		for _, s := range level {
			trs := m.Expand(s)
			if len(trs) == 0 {
				ref.leaves++
			}
			for _, tr := range trs {
				ref.edges++
				if tr.Fault {
					ref.faultEdges++
				}
				note(tr.Violations)
				n := tr.Next.(*model.State)
				if buf = key(n, buf[:0]); seen[string(buf)] {
					continue
				}
				if seen[string(buf)] = true; len(seen) > stateCap {
					return ref, fmt.Errorf("the reference passed %d states", stateCap)
				}
				note(m.Inspect(n))
				next = append(next, n)
			}
		}
		if len(next) == 0 {
			break
		}
		level = next
	}
	ref.states = len(seen)
	for k := range viols {
		ref.violations = append(ref.violations, k)
	}
	sort.Strings(ref.violations)
	return ref, nil
}

func violationSet(res *checker.Result) []string {
	var keys []string
	for _, f := range res.Violations {
		keys = append(keys, f.Property+"\x00"+f.Detail)
	}
	sort.Strings(keys)
	return keys
}

// check holds one cell to the oracle, its anchor and the admission
// contract, and replays its trails.
func (c cell) check(t *testing.T) {
	r, err := c.run()
	if err != nil {
		t.Fatal(err)
	}
	if c.refused() {
		if r.Err == nil || !reflect.DeepEqual(r.Result, &checker.Result{Err: r.Err}) || r.inspects+r.steps+r.keeps != 0 {
			t.Errorf("want the checker's refusal and nothing else, got %+v after %d Inspect, %d Step and %d Keep calls",
				r.Result, r.inspects, r.steps, r.keeps)
		}
		return
	}
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Truncated {
		t.Fatal("truncated: the matrix compares complete searches")
	}
	ref, err := c.w.reference(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.violations) == 0 {
		t.Fatal("the reference found no violations: the cell is vacuous")
	}
	if !slices.Equal(r.violations, ref.violations) {
		t.Errorf("violation set differs from the reference's:\nengine:    %q\nreference: %q", r.violations, ref.violations)
	}
	bound := ref
	if c.reduction == sym || c.reduction == both {
		if bound, err = c.w.reference(true); err != nil {
			t.Fatal(err)
		}
	}
	count := func(what string, got, want int) {
		if got != want {
			t.Errorf("%d %s, the reference %d", got, what, want)
		}
	}
	switch c.reduction {
	case plain:
		count("stored states", r.StatesStored, ref.states)
		count("stored leaves", r.leaves, ref.leaves)
		count("generated transitions", r.StatesExplored-1+r.StatesMatched, ref.edges)
		count("fault transitions", r.FaultTransitionsExplored, ref.faultEdges)
		if c.strategy != dfs && r.MaxDepthReached != ref.depth {
			t.Errorf("MaxDepthReached %d, the reference's deepest level %d", r.MaxDepthReached, ref.depth)
		}
	case sym:
		count("stored states", r.StatesStored, bound.states)
		count("stored leaves", r.leaves, bound.leaves)
	default:
		if r.StatesStored > bound.states {
			t.Errorf("stored %d states, more than the unreduced reference's %d", r.StatesStored, bound.states)
		}
	}
	// The hot tier's floor holds about 512 fingerprints: past twice that,
	// a tiered search that spilled nothing never left memory.
	if c.store == tiered && r.StatesStored > 1100 && r.Store.Spilled == 0 {
		t.Errorf("nothing spilled out of %d stored states", r.StatesStored)
	}
	if r.inspects+r.lookups != r.StatesStored {
		t.Errorf("%d Inspect calls and %d leaf lookups for %d stored states: one of them must run once per stored state", r.inspects, r.lookups, r.StatesStored)
	}
	if c.path == keyed && r.leafKeeps != 0 {
		t.Errorf("%d Keep calls on a leaf: only a state with transitions is kept", r.leafKeeps)
	}
	if c.strategy == dfs && c.path == keyed {
		// Step once per generated successor, clone once per stored state
		// but the initial one and the leaves. Where the memo answers, a
		// successor it predicted is stepped only if it is new, and a state
		// is kept only after a real step.
		generated := r.StatesExplored - 1 + r.StatesMatched
		if r.keeps != r.StatesStored-1-r.leaves || r.steps > generated || r.steps < generated-r.predictions {
			t.Errorf("%d Step and %d Keep calls and %d predictions for %d generated successors and %d stored states, %d of them leaves",
				r.steps, r.keeps, r.predictions, generated, r.StatesStored, r.leaves)
		}
	}
	if !c.memoServes() || c.memo == memoOff {
		if r.predictions != 0 {
			t.Errorf("%d predictions where the memo is off", r.predictions)
		}
	}
	if a := c.anchor(); c.strategy == dfs && c != a {
		want, err := a.run()
		if err != nil {
			t.Fatal(err)
		}
		if d := outcomeDiff(r.outcome, want.outcome); d != "" {
			t.Errorf("differs from its anchor %v: %s", a, d)
		}
	}
	if c.strategy != dfs && c.memo == memoOff {
		a := c
		a.memo = memoOn
		want, err := a.run()
		if err != nil {
			t.Fatal(err)
		}
		if g, w := counters(r.Result), counters(want.Result); g != w {
			t.Errorf("differs from its anchor %v:\ngot:  %s\nwant: %s", a, g, w)
		}
		if !slices.Equal(r.violations, want.violations) {
			t.Errorf("violation set differs from its anchor %v:\ngot:  %q\nwant: %q", a, r.violations, want.violations)
		}
	}
	if r.replay != nil {
		t.Error(r.replay)
	}
}

// dfsOutcome prints what two deterministic searches must agree on: every
// counter, and each violation's depth and trail text in found order.
func dfsOutcome(r *checker.Result) string {
	var b strings.Builder
	b.WriteString(counters(r) + "\n")
	for _, f := range r.Violations {
		fmt.Fprintf(&b, "at depth %d %s", f.Depth, checker.FormatTrail(f))
	}
	return b.String()
}

// counters prints every counter of a search: all two steal searches of
// one graph must agree on besides the violation set (each violation's
// depth and trail follow whichever path got there first).
func counters(r *checker.Result) string {
	return fmt.Sprintf("explored %d matched %d stored %d fault transitions %d depth %d POR choices %d pruned %d",
		r.StatesExplored, r.StatesMatched, r.StatesStored, r.FaultTransitionsExplored, r.MaxDepthReached,
		r.PORChoicePoints, r.PORPrunedTransitions)
}

// outcomeDiff shows the first line where two outcomes differ.
func outcomeDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\ngot:  %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		return fmt.Sprintf("%d lines, want %d", len(g), len(w))
	}
	return ""
}

// replayTrails replays every reported trail from the initial state
// through genuine transitions of the raw model, matched by label, to a
// transition or state that exhibits the violation, and counts the trails
// that pass through a fault transition. A lazy edge keeps no text, so a
// label is there only if its chain replayed from the root.
func replayTrails(m *model.Model, res *checker.Result) (faultTrails int, err error) {
	for _, f := range res.Violations {
		if f.Depth != len(f.Trail) {
			return 0, fmt.Errorf("%s: depth %d, trail of %d steps", f.Violation, f.Depth, len(f.Trail))
		}
		cur, violated, faulty := m.Initial(), false, false
	steps:
		for i, step := range f.Trail {
			if step.Label == "" {
				return 0, fmt.Errorf("%s: trail step %d has no label", f.Violation, i)
			}
			for _, tr := range m.Expand(cur) {
				if tr.Label == step.Label {
					violated = violated || slices.Contains(tr.Violations, f.Violation)
					faulty = faulty || tr.Fault
					cur = tr.Next.(*model.State)
					continue steps
				}
			}
			return 0, fmt.Errorf("%s: trail step %d (%q) is not a transition of the replayed state", f.Violation, i, step.Label)
		}
		if !violated && !slices.Contains(m.Inspect(cur), f.Violation) {
			return 0, fmt.Errorf("%s: the replayed trail does not exhibit the violation", f.Violation)
		}
		if faulty {
			faultTrails++
		}
	}
	return faultTrails, nil
}

// allPairs returns rows of axis values, one value per axis of the given
// sizes, such that every pair of values of two axes appears in some row.
// Each row is seeded with the first uncovered pair in axis order and
// filled axis by axis with the value covering the most uncovered pairs;
// ties rotate with the row number, so values nothing forces still vary
// from row to row. The array is the same on every run.
func allPairs(sizes []int) [][]int {
	type pair struct{ i, a, j, b int }
	uncovered := map[pair]bool{}
	var order []pair
	for i := range sizes {
		for j := i + 1; j < len(sizes); j++ {
			for a := 0; a < sizes[i]; a++ {
				for b := 0; b < sizes[j]; b++ {
					uncovered[pair{i, a, j, b}] = true
					order = append(order, pair{i, a, j, b})
				}
			}
		}
	}
	covers := func(row []int, i, a int) int { // uncovered pairs (i, a) would close against row's set axes
		n := 0
		for j, b := range row {
			if j != i && b >= 0 && (j > i && uncovered[pair{i, a, j, b}] || j < i && uncovered[pair{j, b, i, a}]) {
				n++
			}
		}
		return n
	}
	var rows [][]int
	for _, p := range order {
		if !uncovered[p] {
			continue
		}
		row := make([]int, len(sizes))
		for k := range row {
			row[k] = -1
		}
		row[p.i], row[p.j] = p.a, p.b
		for k := range row {
			if row[k] >= 0 {
				continue
			}
			best, gain := 0, -1
			for n := 0; n < sizes[k]; n++ {
				if v := (len(rows) + n) % sizes[k]; covers(row, k, v) > gain {
					best, gain = v, covers(row, k, v)
				}
			}
			row[k] = best
		}
		for i := range row {
			for j := i + 1; j < len(row); j++ {
				delete(uncovered, pair{i, row[i], j, row[j]})
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// matrixWorkloads are the rows the matrix runs: group3 alone under the
// race detector.
func matrixWorkloads() []*workload {
	if raceEnabled {
		return []*workload{workloadNamed("group3")}
	}
	return workloads
}

// matrixCells is the default cell list — the default engine on every
// workload under every reduction and, unreduced, on four steal workers
// (whose depth relaxation the deep fault graphs exercise); the covering
// array over the workload and the six axes, or the full product of the
// axes on a small workload; and the anchor of every DFS cell — or, with
// -matrix.full, the full product everywhere. Small workloads stay out of
// the covering array, so adding one leaves every other cell in place.
func matrixCells() []cell {
	var ws, small []*workload
	for _, w := range matrixWorkloads() {
		if w.small || *matrixFull {
			small = append(small, w)
		} else {
			ws = append(ws, w)
		}
	}
	var sizes []int
	for _, vs := range axes {
		sizes = append(sizes, len(vs))
	}
	var rows [][]int // a workload index into ws, then one value per axis
	if len(ws) > 0 {
		rows = allPairs(append([]int{len(ws)}, sizes...))
	}
	for _, w := range small {
		product := [][]int{{len(ws)}}
		for _, n := range sizes {
			var next [][]int
			for _, r := range product {
				for v := 0; v < n; v++ {
					next = append(next, append(slices.Clone(r), v))
				}
			}
			product = next
		}
		rows = append(rows, product...)
		ws = append(ws, w)
	}
	seen := map[cell]bool{}
	var cells []cell
	add := func(c cell) {
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	for _, w := range ws {
		for red := range axes[0] {
			add(cell{w: w, reduction: red})
		}
		add(cell{w: w, strategy: steal4})
	}
	for _, r := range rows {
		c := cell{w: ws[r[0]]}
		for i := range axes {
			*c.axis(i) = r[1+i]
		}
		add(c)
		if c.strategy == dfs {
			add(c.anchor())
		}
	}
	// Where the memo serves, it runs on every store the DFS has (bitstate
	// probes with the predicted second hash), and each such cell has a
	// memo-off twin.
	for _, w := range ws {
		for _, st := range []int{tiered, bitstate} {
			if c := (cell{w: w, store: st}); c.memoServes() {
				add(c)
			}
		}
	}
	for _, c := range cells {
		if c.memoServes() {
			c.memo = memoOff
			add(c)
		}
	}
	return cells
}

// matrixView checks, workload by workload, the cells pred selects.
func matrixView(t *testing.T, pred func(cell) bool) {
	t.Parallel()
	cells := matrixCells()
	for _, w := range matrixWorkloads() {
		var mine []cell
		for _, c := range cells {
			if c.w == w && pred(c) {
				mine = append(mine, c)
			}
		}
		if len(mine) == 0 {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range mine {
				t.Run(c.String(), func(t *testing.T) {
					t.Parallel()
					c.check(t)
				})
			}
		})
	}
}

func TestMatrix(t *testing.T) { matrixView(t, func(cell) bool { return true }) }

// TestMatrixCoversAllPairs: every pair of values of two axes, the
// workload among them, appears in some default cell.
func TestMatrixCoversAllPairs(t *testing.T) {
	if *matrixFull {
		t.Skip("the full product covers every pair")
	}
	value := func(c cell, i int) string {
		if i == 0 {
			return c.w.name
		}
		return axes[i-1][*c.axis(i - 1)]
	}
	seen := map[[4]string]bool{}
	cells := matrixCells()
	for _, c := range cells {
		for i := 0; i <= len(axes); i++ {
			for j := i + 1; j <= len(axes); j++ {
				seen[[4]string{fmt.Sprint(i), value(c, i), fmt.Sprint(j), value(c, j)}] = true
			}
		}
	}
	values := [][]string{nil}
	for _, w := range matrixWorkloads() {
		values[0] = append(values[0], w.name)
	}
	values = append(values, axes...)
	for i := range values {
		for j := i + 1; j < len(values); j++ {
			for _, a := range values[i] {
				for _, b := range values[j] {
					if !seen[[4]string{fmt.Sprint(i), a, fmt.Sprint(j), b}] {
						t.Errorf("no default cell has %s and %s", a, b)
					}
				}
			}
		}
	}
	t.Logf("%d default cells", len(cells))
}

// The per-axis gates the matrix replaced keep their names as views onto
// it: each re-checks, workload by workload, the default cells holding
// its axis value, so a -run selection by gate keeps its meaning. The
// cells themselves run once per process.

func TestReferenceCheckerAgreement(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.reduction == plain })
}

func TestPORViolationEquivalenceCorpus(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.reduction == por || c.reduction == both })
}

func TestSymmetryViolationEquivalenceCorpus(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.reduction == sym || c.reduction == both })
}

func TestStealEquivalenceCorpus(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.strategy != dfs })
}

func TestStealRecycleEquivalenceCorpus(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.strategy == steal4 })
}

// TestStealTrailReplaysOnModel: steal on the stores it refuses; each
// cell must see the refusal.
func TestStealTrailReplaysOnModel(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.strategy != dfs && c.store != hash })
}

func TestStealRecycleFaultEquivalence(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.strategy != dfs && c.w.opts.Faults })
}

func TestTieredStoreEquivalence(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.store == tiered })
}

func TestKeyedSuccessorsEquivalence(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.path == eager })
}

func TestDifferentialCorpus(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.executor == interp })
}

func TestDifferentialConcurrentDesign(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.executor == interp && c.w.opts.Design == model.Concurrent })
}

func TestDifferentialFailuresAndLeakage(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.executor == interp && c.w.opts.Failures })
}

// TestTransitionMemoEquivalence: the memo-off twins, each held to its
// anchor, memo on.
func TestTransitionMemoEquivalence(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.memo == memoOff })
}

// TestTransitionMemoSkipsSteps: on the workloads the memo serves, the
// default engine and four steal workers step fewer successors than they
// generate, so the memo axis is not vacuous on either strategy.
func TestTransitionMemoSkipsSteps(t *testing.T) {
	if raceEnabled {
		t.Skip("the sequential workloads run outside the race detector")
	}
	for _, name := range []string{"failures", "symmetry-sequential"} {
		for _, c := range []cell{{w: workloadNamed(name)}, {w: workloadNamed(name), strategy: steal4}} {
			r, err := c.run()
			if err != nil || r.Err != nil || r.Truncated {
				t.Fatalf("%s/%v: failed or truncated: %v %v", name, c, err, r.Err)
			}
			generated := r.StatesExplored - 1 + r.StatesMatched
			t.Logf("%s/%v: %d Step calls and %d predictions for %d generated successors", name, c, r.steps, r.predictions, generated)
			if r.predictions == 0 || r.steps >= generated {
				t.Errorf("%s/%v: %d Step calls, %d predictions for %d generated successors: the memo skipped nothing", name, c, r.steps, r.predictions, generated)
			}
		}
	}
}

func TestIncrementalEncodeEquivalence(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.encode == flat })
}

// TestIncrementalDigestNoCollision: a plain cell stores exactly the
// reference's distinct encodings, so no two of them share a digest.
func TestIncrementalDigestNoCollision(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.reduction == plain && c.encode == incremental })
}

func TestInspectAfterDedupEquivalence(t *testing.T) {
	t.Parallel()
	t.Run("matrix", func(t *testing.T) { matrixView(t, func(cell) bool { return true }) })
}

func TestSymmetryTrailReplaysOnModel(t *testing.T) {
	matrixView(t, func(c cell) bool { return c.w.name == "symmetry" && c.reduction >= sym })
}

func TestSymmetryViolationEquivalenceInterchangeable(t *testing.T) {
	t.Parallel()
	for _, d := range []struct{ design, workload string }{{"concurrent", "symmetry"}, {"sequential", "symmetry-sequential"}} {
		t.Run(d.design, func(t *testing.T) {
			matrixView(t, func(c cell) bool { return c.w.name == d.workload && c.reduction != plain })
		})
	}
}

// TestFaultTrailReplaysOnModel: the fault rows' trails replay, and some
// of them through outage, delivery or drop transitions.
func TestFaultTrailReplaysOnModel(t *testing.T) {
	faulty := func(c cell) bool { return c.w.opts.Faults }
	matrixView(t, faulty)
	faultTrails := 0
	for _, c := range matrixCells() {
		if !faulty(c) {
			continue
		}
		if r, err := c.run(); err == nil {
			faultTrails += r.faultTrails
		}
	}
	if faultTrails == 0 && !raceEnabled {
		t.Error("no reported trail traverses a fault transition: the fault replay check is vacuous")
	}
}

// anchorRun is the default engine's search of a workload under one
// reduction.
func anchorRun(t *testing.T, name string, reduction int) *cellResult {
	t.Helper()
	r, err := cell{w: workloadNamed(name), reduction: reduction}.run()
	if err != nil || r.Truncated {
		t.Fatalf("%s/%s: truncated or failed: %v", name, axes[0][reduction], err)
	}
	return r
}

// TestPORReductionGate: on a multi-event corpus group POR cuts the
// explored states by at least 20 % (it measures about 55 %; the slack
// absorbs corpus drift), and its statistics account for the cut.
func TestPORReductionGate(t *testing.T) {
	full, red := anchorRun(t, "group1", plain), anchorRun(t, "group1", por)
	ratio := 1 - float64(red.StatesExplored)/float64(full.StatesExplored)
	t.Logf("states %d → %d (%.1f%% reduction, %d choice points, %d transitions pruned)",
		full.StatesExplored, red.StatesExplored, ratio*100, red.PORChoicePoints, red.PORPrunedTransitions)
	if ratio < 0.20 || red.PORChoicePoints == 0 || red.PORPrunedTransitions == 0 {
		t.Errorf("POR reduced explored states by %.1f%% with %d choices and %d pruned; want >= 20%% and both nonzero",
			ratio*100, red.PORChoicePoints, red.PORPrunedTransitions)
	}
}

// TestSymmetryReductionGate: on the interchangeable-device fleet
// symmetry folds at least 30 % of the explored states, and stacks on POR.
func TestSymmetryReductionGate(t *testing.T) {
	full, folded := anchorRun(t, "symmetry", plain), anchorRun(t, "symmetry", sym)
	porOnly, both := anchorRun(t, "symmetry", por), anchorRun(t, "symmetry", both)
	ratio := 1 - float64(folded.StatesExplored)/float64(full.StatesExplored)
	t.Logf("full %d, POR %d, symmetry %d (%.1f%% fold), POR+symmetry %d",
		full.StatesExplored, porOnly.StatesExplored, folded.StatesExplored, ratio*100, both.StatesExplored)
	if ratio < 0.30 {
		t.Errorf("symmetry folded %.1f%% of explored states, want >= 30%%", ratio*100)
	}
	if both.StatesExplored > porOnly.StatesExplored {
		t.Errorf("POR+symmetry explored %d states, more than POR alone's %d", both.StatesExplored, porOnly.StatesExplored)
	}
}
