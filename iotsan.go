// Package iotsan is a from-scratch Go implementation of IotSan
// (Nguyen et al., CoNEXT 2018): a model-checking-based sanitizer that
// finds unsafe physical and cyber states in smart-home IoT systems.
//
// The pipeline mirrors the paper's architecture (Fig. 3):
//
//	sources ──Translator──▶ ir.App ──App Dependency Analyzer──▶ related sets
//	   │                                             │
//	configuration ──────────Model Generator──────────┤
//	   │                                             ▼
//	safety properties ───────────────────▶ Model Checker ──▶ Output Analyzer
//
// Analyze runs the full pipeline; the sub-packages under internal/
// expose each stage (groovy parsing, type inference, dependency
// analysis, model generation, the explicit-state checker, the property
// catalog, violation attribution, and the IFTTT front-end).
package iotsan

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iotsan/internal/attribution"
	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/depgraph"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/props"
	"iotsan/internal/smartapp"
)

// Re-exported types forming the public API surface.
type (
	// System is a deployment configuration (devices, apps, bindings).
	System = config.System
	// Device is one installed device.
	Device = config.Device
	// AppInstance is one installed app with its bindings.
	AppInstance = config.AppInstance
	// Binding is one configured input value.
	Binding = config.Binding
	// Violation is a detected property violation with its trail.
	Violation = checker.Found
	// AttributionReport is the Output Analyzer's verdict for an app.
	AttributionReport = attribution.Report
)

// Design selects the model's concurrency design (§8).
type Design = model.Design

// Designs.
const (
	Sequential = model.Sequential
	Concurrent = model.Concurrent
)

// Strategy selects the checker's search strategy.
type Strategy = checker.StrategyKind

// Strategies.
const (
	// StrategyDFS is the sequential depth-first search (default):
	// deterministic exploration order and trails.
	StrategyDFS = checker.StrategyDFS
	// StrategySteal is the work-stealing frontier search: goroutines
	// expand states concurrently from per-worker Chase–Lev deques over
	// one link table. Each related set's search runs a fixed crew, its
	// share of Options.Workers — all of them on a system with one set.
	// It runs on the in-memory exhaustive store, without checkpoints.
	StrategySteal = checker.StrategySteal
)

// ParseStrategy maps a strategy name ("dfs", "steal") to its kind.
func ParseStrategy(name string) (Strategy, error) { return checker.ParseStrategy(name) }

// StoreSelector selects the checker's visited-state store.
type StoreSelector = checker.StoreKind

// Store kinds.
const (
	// StoreExhaustive is the in-memory hash-compact store (default).
	StoreExhaustive = checker.Exhaustive
	// StoreBitstate is the fixed bit-array supertrace store. It is
	// approximate: a state the bit array falsely reports as seen is
	// dropped — neither expanded nor inspected — so violations can be
	// missed when the array is small for the state count.
	StoreBitstate = checker.Bitstate
	// StoreTiered is the out-of-core store: a memory-budgeted hot tier
	// spilling to a memory-mapped hash table of fingerprints, fronted by
	// a heap filter. Requires Options.StoreDir.
	StoreTiered = checker.Tiered
)

// ParseStore maps a store name ("exhaustive", "bitstate", "tiered") to
// its kind.
func ParseStore(name string) (StoreSelector, error) { return checker.ParseStore(name) }

// Options configure an analysis run.
type Options struct {
	// MaxEvents is the number of external events the checker injects
	// (default 3).
	MaxEvents int
	// Design selects sequential (default) or concurrent modeling.
	Design Design
	// Failures enumerates transient device/communication failures: each
	// external event or timer firing is also explored with the sensor
	// offline, with the sensor's report lost, and with the actuator
	// commands of its cascade lost.
	Failures bool
	// Faults enables the persistent fault-injection environment model:
	// devices can go offline and come back, commands issued to offline
	// devices are held in flight and later delivered or silently
	// dropped, and handlers read last-reported (stale) attribute values
	// while the source device is offline. Orthogonal to Failures (which
	// models the three transient failure modes, one transition at a
	// time).
	Faults bool
	// MaxFaults bounds the number of budgeted fault transitions (device
	// outages and command drops; recovery and delivery are free) per
	// execution path. 0 with Faults set keeps the fault machinery
	// installed but inert — the state space, digests, and violations
	// are identical to a faults-off run (a CI-enforced gate).
	MaxFaults int
	// Properties selects property ids to verify (nil = the full
	// 45-property catalog).
	Properties []string
	// Thresholds parameterise numeric properties.
	Thresholds props.Thresholds
	// NoDepGraph disables related-set decomposition (ablation; the
	// whole system is checked as one group).
	NoDepGraph bool
	// Bitstate selects the bitstate (supertrace) visited store — the
	// legacy toggle, equivalent to Store == StoreBitstate, with the
	// same caveat: a false-positive "seen" skips that state's invariant
	// inspection as well as its expansion.
	Bitstate bool
	// Store selects the visited-state store explicitly (the zero value
	// keeps the in-memory exhaustive store; see StoreExhaustive /
	// StoreBitstate / StoreTiered). Safety invariants are evaluated once
	// per state the store admits as new, which is exact on the two
	// exhaustive stores and inherits supertrace's incompleteness on
	// StoreBitstate. StoreBitstate and StoreTiered serve StrategyDFS
	// only: StrategySteal with either is an error. StoreTiered requires
	// StoreDir: each related set gets its own subdirectory of tier
	// files, so sets can verify concurrently.
	Store StoreSelector
	// StoreDir is the scratch/WAL directory for StoreTiered (and for
	// Checkpoint/Resume). Created if missing.
	StoreDir string
	// MemBudget bounds the bytes of the tiered store's hot tier per
	// related set (0 = 64 MiB); the disk tier's filter and mapped table
	// are outside it.
	MemBudget int64
	// Checkpoint write-ahead logs the search so a killed run can
	// Resume from the last durable checkpoint. StrategyDFS only, on any
	// store; StrategySteal with it is an error.
	Checkpoint bool
	// Resume continues each related set from its last intact checkpoint
	// under StoreDir, and goes on checkpointing; corrupt, missing, or
	// configuration-mismatched WALs fall back to a fresh search.
	// StrategyDFS only, like Checkpoint.
	Resume bool
	// Strategy selects the checker search strategy (StrategyDFS
	// default; StrategySteal uses Workers goroutines).
	Strategy Strategy
	// Workers is the engine's width (0 = GOMAXPROCS): how many apps
	// Analyze translates at once, and how many search goroutines verify
	// related sets at once. min(Workers, sets) sets verify concurrently,
	// and each StrategySteal search runs a fixed crew of Workers divided
	// by that number, so a system with a single related set gives its
	// search all Workers. Workers: 1 verifies the sets one after another
	// in group order.
	Workers int
	// POR enables partial-order reduction in the checker: at each
	// expansion the concurrent design's pending-dispatch interleavings
	// are pruned to a persistent subset of provably independent handler
	// dispatches (computed from the compile-time read/write sets of the
	// handlers, seeded by the dependency graph's overlap/conflict
	// predicates). The distinct-violation set is preserved exactly — a
	// CI gate enforces it on the whole corpus — while the explored state
	// space shrinks with the number of independent pending handlers.
	// The sequential design is unaffected (its transitions are
	// property-visible external events, which are never reducible).
	POR bool
	// Symmetry enables symmetry reduction over interchangeable devices:
	// the model computes device orbits (sets of command-free sensor
	// devices with identical schema, initial state, association role,
	// subscription structure, and binding positions, observed only by
	// apps whose compile-time footprints carry no device-identity or
	// list-order-sensitive uses) and the checker keys its
	// visited store on a canonical encoding that folds states related by
	// within-orbit permutations into one representative. The
	// distinct-violation set is preserved exactly — a CI gate enforces it
	// on the whole corpus across both strategies — while the explored
	// state space shrinks with the number of interchangeable devices.
	// Composes multiplicatively with POR (POR prunes interleavings,
	// symmetry folds the survivors) and with both parallel levels.
	// Trails still replay on the raw model: frontier states and the
	// replay keys on trails stay concrete.
	Symmetry bool
	// GroupParallel is ignored: related sets verify concurrently by
	// default, and Workers alone sets how many at once (1 = one after
	// another).
	//
	// Deprecated: set Workers instead. The field is removed together with
	// the benchmark's hand copy of Analyze (ROADMAP item 1(b)), its last
	// reader.
	GroupParallel bool
	// MaxViolations stops the whole analysis once that many distinct
	// violations have been committed to the report (0 = collect all).
	// The cap is enforced when a group's results are committed, in
	// group order at every Workers width, so the report carries exactly
	// the cap, taken from the earliest groups; reaching it cancels the
	// related sets still running or not yet started, whose GroupResult
	// entries then reflect the partial exploration at cancellation
	// (Truncated). At Workers > 1 a set after the capping one may have
	// finished before the cap was reached, so how much such a set
	// explored depends on timing.
	MaxViolations int
	// MaxStatesPerSet caps exploration per related set (0 = 1e6).
	MaxStatesPerSet int
	// Deadline caps wall-clock time per related set.
	Deadline time.Duration
	// Interpreter runs handlers under the tree-walking interpreter
	// instead of the closure-compiled programs (the differential-testing
	// oracle; observationally identical, several times slower).
	Interpreter bool
	// NoIncremental disables the incremental block-hash state digest
	// (states then re-encode the full vector per digest). The zero
	// value keeps incremental digests ON — the field is the flat-encode
	// oracle of the equivalence tests, not a CLI flag.
	NoIncremental bool
	// NoEpochReclaim disables state recycling on StrategySteal
	// (consumed, fully expanded frontier states recycled by their
	// consumer; an eager successor no Keep took recycled by the adapter
	// at the worker's next Step). The name predates the removal of the
	// epoch-based grace period. The zero value keeps recycling ON — the
	// field is the allocate-per-state oracle of the equivalence tests,
	// not a CLI flag. Sequential DFS free-lists are unaffected.
	NoEpochReclaim bool
}

// width is how many apps are translated, or related sets verified, at
// once.
func (o Options) width() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) withDefaults() Options {
	if o.MaxEvents <= 0 {
		o.MaxEvents = 3
	}
	if o.MaxStatesPerSet <= 0 {
		o.MaxStatesPerSet = 1_000_000
	}
	if o.Thresholds == (props.Thresholds{}) {
		o.Thresholds = props.DefaultThresholds()
	}
	return o
}

// validate rejects option values and combinations no search can run
// under, before any source is translated: a negative count, budget or
// limit (zero keeps its documented default), the store directory the
// tiered store and the WAL need, then the checker's own rule
// (checker.Options.Validate) on the options that reach it.
func (o Options) validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"MaxEvents", int64(o.MaxEvents)},
		{"MaxFaults", int64(o.MaxFaults)},
		{"Workers", int64(o.Workers)},
		{"MaxViolations", int64(o.MaxViolations)},
		{"MaxStatesPerSet", int64(o.MaxStatesPerSet)},
		{"Deadline", int64(o.Deadline)},
		{"MemBudget", o.MemBudget},
	} {
		if f.v < 0 {
			return fmt.Errorf("iotsan: Options.%s must not be negative, got %d", f.name, f.v)
		}
	}
	if (o.Store == StoreTiered || o.Checkpoint || o.Resume) && o.StoreDir == "" {
		return errors.New("iotsan: StoreTiered/Checkpoint/Resume require Options.StoreDir")
	}
	return o.checkerOptions().Validate()
}

// checkerOptions is the part of o every related set's search shares,
// with the legacy Bitstate toggle mapped to its store.
func (o Options) checkerOptions() checker.Options {
	copts := checker.Options{
		Strategy:   o.Strategy,
		Store:      o.Store,
		StoreDir:   o.StoreDir,
		Checkpoint: o.Checkpoint,
		Resume:     o.Resume,
		POR:        o.POR,
		Symmetry:   o.Symmetry,
		Deadline:   o.Deadline,
		MaxStates:  o.MaxStatesPerSet,
		MemBudget:  o.MemBudget,

		NoEpochReclaim: o.NoEpochReclaim,
	}
	if o.Bitstate && o.Store == StoreExhaustive {
		copts.Store = StoreBitstate
	}
	return copts
}

// GroupResult is the verification result of one related set.
type GroupResult struct {
	Apps           []string
	Handlers       int
	Result         *checker.Result
	InvariantCount int
}

// Report is the outcome of a full analysis.
type Report struct {
	// Violations are the distinct violations across all related sets.
	Violations []Violation
	// Groups holds per-related-set results.
	Groups []GroupResult
	// Scale summarises the dependency-analysis reduction (Table 7a).
	Scale depgraph.ScaleStats
	// Apps maps app names to their translations (for reuse).
	Apps map[string]*ir.App
	// Elapsed is total verification time.
	Elapsed time.Duration

	// compiled is the call's plan counters (programs compiled, atom
	// tables resolved), kept for the compile-once gate.
	compiled model.PlanCounts
}

// ViolatedProperties returns the distinct violated property ids.
func (r *Report) ViolatedProperties() []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range r.Violations {
		if !seen[v.Property] {
			seen[v.Property] = true
			out = append(out, v.Property)
		}
	}
	sort.Strings(out)
	return out
}

// Translate parses and translates one smart app from Groovy source.
func Translate(source string) (*ir.App, error) { return smartapp.Translate(source) }

// Analyze verifies a configured system. sources maps app names (as they
// appear in sys.Apps) to their Groovy sources.
func Analyze(sys *System, sources map[string]string, opts Options) (*Report, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if err := sys.Validate(); err != nil {
		return nil, err
	}

	// Sorted names make the reported error the first failing name's,
	// whatever order the translations finish in.
	names := slices.Sorted(maps.Keys(sources))
	translated := make([]*ir.App, len(names))
	errs := make([]error, len(names))
	forEachIndex(len(names), opts.width(), func(i int) {
		translated[i], errs[i] = smartapp.Translate(sources[names[i]])
	})
	apps := make(map[string]*ir.App, len(names))
	for i, name := range names {
		if errs[i] != nil {
			return nil, fmt.Errorf("iotsan: translating %q: %w", name, errs[i])
		}
		apps[name] = translated[i]
	}
	for _, inst := range sys.Apps {
		if apps[inst.App] == nil {
			return nil, fmt.Errorf("iotsan: no source for installed app %q", inst.App)
		}
	}
	return analyzeTranslated(sys, apps, opts)
}

// AnalyzeTranslated verifies a system whose apps are already translated.
func AnalyzeTranslated(sys *System, apps map[string]*ir.App, opts Options) (*Report, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return analyzeTranslated(sys, apps, opts.withDefaults())
}

func analyzeTranslated(sys *System, apps map[string]*ir.App, opts Options) (*Report, error) {
	start := time.Now()
	rep := &Report{Apps: apps}

	// App Dependency Analyzer (§5): group installed apps into related
	// sets via their handlers' input/output events.
	var handlers []smartapp.HandlerInfo
	var handlerApp []string // handler index → installed app name
	instHandlers := make([][]smartapp.HandlerInfo, len(sys.Apps))
	for i, inst := range sys.Apps {
		instHandlers[i] = smartapp.AnalyzeHandlers(apps[inst.App])
		for _, hi := range instHandlers[i] {
			handlerApp = append(handlerApp, inst.App)
			handlers = append(handlers, hi)
		}
	}
	g := depgraph.Build(handlers)
	final := g.FinalSets()
	rep.Scale = g.Scale(final)

	groups := relatedAppGroups(sys, g, final, handlerApp, opts.NoDepGraph)
	pl, err := newPlan(sys, apps, instHandlers, opts)
	if err != nil {
		return nil, err
	}
	if err := runGroups(rep, pl, groups, opts); err != nil {
		return nil, err
	}
	rep.compiled = pl.model.Counts
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// plan is what one Analyze call derives from the system alone, built
// once before the group scheduler starts and only read afterwards, by
// every verifyGroup of the call, concurrently. It rests on related sets
// differing in their apps only: every group keeps every device of the
// system (see model.Plan), so the device table, the invariant catalog
// resolved against it, and each installed instance's bindings and
// compiled program are the same for every group that contains the
// instance.
// Nothing here outlives the call.
type plan struct {
	sys   *System
	model *model.Plan
	// insts[i] is sys.Apps[i] prepared (bindings, state layout, compiled
	// program); handlers[i] is its handler analysis.
	insts    []*model.AppInst
	handlers [][]smartapp.HandlerInfo
	// invs is the selected invariant catalog, compiled once.
	invs []model.Invariant
	// checkConflicts/Leakage/Robustness are the selected event
	// properties.
	checkConflicts, checkLeakage, checkRobustness bool
	// propAttrs are the sensed attributes the applicable properties
	// observe: the half of a group's relevant attributes that does not
	// depend on the group.
	propAttrs map[string]bool
}

func newPlan(sys *System, apps map[string]*ir.App, handlers [][]smartapp.HandlerInfo, opts Options) (*plan, error) {
	mp, err := model.Prepare(sys)
	if err != nil {
		return nil, err
	}
	pl := &plan{sys: sys, model: mp, handlers: handlers}
	if pl.insts, err = mp.PrepareApps(sys.Apps, apps, opts.Interpreter); err != nil {
		return nil, err
	}
	if pl.invs, err = props.CompileCatalog(mp, filterPhysical(opts.Properties), opts.Thresholds); err != nil {
		return nil, err
	}
	sel := propertySelection(opts.Properties)
	pl.checkConflicts = sel[model.PropConflicting] || sel[model.PropRepeated]
	pl.checkLeakage = sel[model.PropLeakNetwork]
	pl.checkRobustness = (opts.Failures || opts.Faults) && sel[model.PropRobustness]

	// Properties observe presence/smoke/co/water/motion/etc.; include
	// the sensed attributes of the devices that applicable properties
	// reference, so missing-response violations remain reachable.
	// anyone_home guards most properties: presence must vary if present.
	pl.propAttrs = map[string]bool{"presence": true}
	for _, p := range props.Catalog() {
		if p.Kind != props.Physical || !p.Applicable(sys) {
			continue
		}
		for _, capName := range p.Capabilities {
			if c := deviceCap(capName); c != nil && c.Sensor {
				for _, a := range c.Attributes {
					pl.propAttrs[a.Name] = true
				}
			}
		}
	}
	return pl, nil
}

// groupInstances returns the positions in sys.Apps of the instances a
// related set installs, in installation order. A group is a choice of
// apps and nothing else: it keeps every device of the system
// (associations drive property compilation, and the plan's device
// indexes are shared by every group), so narrowing a group's device
// list would invalidate the plan.
func (pl *plan) groupInstances(appNames []string) []int {
	want := map[string]bool{}
	for _, n := range appNames {
		want[n] = true
	}
	var out []int
	for i, inst := range pl.sys.Apps {
		if want[inst.App] {
			out = append(out, i)
		}
	}
	return out
}

// relevantAttrs computes the sensor attributes worth generating events
// for in one related set: those its apps subscribe to or read, plus
// those the applicable properties observe.
func (pl *plan) relevantAttrs(group []int) map[string]bool {
	attrs := maps.Clone(pl.propAttrs)
	for _, i := range group {
		for _, hi := range pl.handlers[i] {
			for _, in := range hi.Inputs {
				attrs[in.Attr] = true
			}
		}
	}
	return attrs
}

// runGroups is the group scheduler, and the one place that splits the
// engine's width between searches: it verifies every related set and
// commits the results into the report in group order.
//
// A fixed pool of min(width, sets) goroutines takes the sets in group
// order, and each search gets a fixed crew of width/pool workers, so at
// most width search goroutines run at once; a system with one related
// set gives its search the whole width. The goroutine that finishes a
// set commits every set of the finished group-order prefix, so
// Report.Groups and the deduped violation list never depend on which
// set finished first, and at Workers: 1 a set is committed before the
// next one starts — the sequential order exactly. A shared stop flag
// cancels the searches still running once the global MaxViolations cap
// is reached or a set fails; a set started after that still runs,
// stopping at its initial state, so Report.Groups always covers every
// related set in order.
//
// Because sets verify concurrently, their GroupResult.Result.Elapsed
// values overlap and can sum to more than Report.Elapsed.
func runGroups(rep *Report, pl *plan, groups [][]string, opts Options) error {
	width := opts.width()
	pool := max(1, min(width, len(groups)))
	crew := width / pool // pool <= width: every search gets a worker
	stop := new(atomic.Bool)
	seen := map[string]bool{}
	results := make([]*GroupResult, len(groups))
	errs := make([]error, len(groups))
	done := make([]bool, len(groups))
	var (
		mu        sync.Mutex // guards results, errs, done, committed, firstErr and rep
		committed int        // groups[:committed] are committed
		firstErr  error
	)
	forEachIndex(len(groups), pool, func(i int) {
		gr, err := verifyGroup(pl, pl.groupInstances(groups[i]), opts, i, stop, crew)
		mu.Lock()
		defer mu.Unlock()
		results[i], errs[i], done[i] = gr, err, true
		for ; committed < len(groups) && done[committed]; committed++ {
			if firstErr == nil && errs[committed] != nil {
				firstErr = errs[committed]
				stop.Store(true)
			}
			if firstErr == nil {
				commitGroup(rep, results[committed], opts, seen, stop)
			}
		}
	})
	return firstErr
}

// forEachIndex calls f(i) for every i in [0, n) from a fixed pool of
// min(width, n) goroutines, which take the indices in increasing order
// from one counter, and returns once every call has returned.
func forEachIndex(n, width int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(width, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// commitGroup appends one group's result to the report and folds its
// violations into the deduped global list, enforcing the MaxViolations
// cap: once the cap is reached the stop flag cancels every search
// still running.
func commitGroup(rep *Report, gr *GroupResult, opts Options, seen map[string]bool, stop *atomic.Bool) {
	rep.Groups = append(rep.Groups, *gr)
	for _, f := range gr.Result.Violations {
		if f.Property == model.PropExecError {
			continue
		}
		if opts.MaxViolations > 0 && len(rep.Violations) >= opts.MaxViolations {
			break
		}
		key := f.Property + "\x00" + f.Detail
		if !seen[key] {
			seen[key] = true
			rep.Violations = append(rep.Violations, f)
		}
	}
	if opts.MaxViolations > 0 && len(rep.Violations) >= opts.MaxViolations {
		stop.Store(true)
	}
}

// relatedAppGroups converts final, the related sets of g (the dependency
// graph of every installed handler), into groups of installed app names. Graph
// vertices are correlated back to installed apps by handler index
// (depgraph records each handler's position in the slice passed to
// Build, and handlerApp maps it to its app), so grouping can never
// silently drop a handler the way identity-keyed matching could.
func relatedAppGroups(sys *System, g *depgraph.Graph, final []depgraph.RelatedSet, handlerApp []string, noDepGraph bool) [][]string {
	if noDepGraph {
		var all []string
		for _, inst := range sys.Apps {
			all = append(all, inst.App)
		}
		return [][]string{dedupe(all)}
	}
	var groups [][]string
	seenGroups := map[string]bool{}
	for _, rs := range final {
		var names []string
		for _, i := range g.HandlerIndices(rs) {
			names = append(names, handlerApp[i])
		}
		names = dedupe(names)
		// NUL-joined: app names contain spaces, so a printed list would
		// merge ["Good Night", "Lights"] with ["Good", "Night Lights"].
		k := strings.Join(names, "\x00")
		if !seenGroups[k] && len(names) > 0 {
			seenGroups[k] = true
			groups = append(groups, names)
		}
	}
	return groups
}

func dedupe(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// verifyGroup checks one related set: group lists the positions in
// sys.Apps of the instances it installs. Everything that does not depend
// on the group comes from the plan; the group's own work is the model's
// per-group build and the search. gidx is the set's position in
// deterministic group order; it keys the group's private tiered-store
// subdirectory, which is what makes a -resume run find the WAL the
// killed run wrote for the same group. workers is the search's crew.
func verifyGroup(pl *plan, group []int, opts Options, gidx int, stop *atomic.Bool, workers int) (*GroupResult, error) {
	insts := make([]*model.AppInst, len(group))
	names := make([]string, len(group))
	handlers := 0
	for k, i := range group {
		insts[k] = pl.insts[i]
		names[k] = pl.sys.Apps[i].App
		handlers += len(insts[k].App.HandlerNames())
	}
	m, err := pl.model.Build(insts, model.Options{
		Design:          opts.Design,
		MaxEvents:       opts.MaxEvents,
		Failures:        opts.Failures,
		Faults:          opts.Faults,
		MaxFaults:       opts.MaxFaults,
		CheckConflicts:  pl.checkConflicts,
		CheckLeakage:    pl.checkLeakage,
		CheckRobustness: pl.checkRobustness,
		Invariants:      pl.invs,
		RelevantAttrs:   pl.relevantAttrs(group),
		Interpreter:     opts.Interpreter,
		Symmetry:        opts.Symmetry,
		Incremental:     !opts.NoIncremental,
	})
	if err != nil {
		return nil, err
	}

	// The global MaxViolations cap is deliberately NOT forwarded as the
	// per-group checker cap: the checker counts every distinct violation
	// it records, while the committed report filters exec-errors and
	// deduplicates across groups — a raw per-group cap could truncate a
	// search on violations that never reach the report. The cap is
	// enforced at commit time instead, and propagates here through the
	// shared stop flag.
	// Fault transitions extend paths beyond the event budget (an
	// outage/recovery/delivery chain can interleave between events), so
	// the depth bound grows with the fault budget.
	copts := opts.checkerOptions()
	copts.MaxDepth = opts.MaxEvents + 64 + 8*opts.MaxFaults
	copts.Workers, copts.Stop = workers, stop
	if copts.Store == checker.Tiered || copts.Checkpoint || copts.Resume {
		// One subdirectory per related set: groups verify concurrently
		// and must not share tier files, and the per-group WAL path must
		// be stable across runs for Resume.
		copts.StoreDir = filepath.Join(opts.StoreDir, fmt.Sprintf("group-%03d", gidx))
		if err := os.MkdirAll(copts.StoreDir, 0o755); err != nil {
			return nil, fmt.Errorf("iotsan: store directory: %w", err)
		}
	}
	res := checker.Run(m.System(), copts)
	if res.Err != nil {
		return nil, fmt.Errorf("iotsan: related set %d: %w", gidx, res.Err)
	}
	return &GroupResult{Apps: names, Handlers: handlers, Result: res, InvariantCount: len(pl.invs)}, nil
}

// propertySelection returns a predicate set over property ids; a nil
// selection enables everything.
func propertySelection(ids []string) map[string]bool {
	sel := map[string]bool{}
	if ids == nil {
		for _, id := range props.IDs() {
			sel[id] = true
		}
		return sel
	}
	for _, id := range ids {
		sel[id] = true
	}
	return sel
}

func filterPhysical(ids []string) []string {
	if ids == nil {
		return nil
	}
	var out []string
	for _, id := range ids {
		if p, ok := props.ByID(id); ok && p.Kind == props.Physical {
			out = append(out, id)
		}
	}
	return out
}

// Attribute runs the Output Analyzer for a newly installed app (§9).
func Attribute(sys *System, newAppSource string, installedSources map[string]string, opts attribution.Options) (*AttributionReport, error) {
	newApp, err := smartapp.Translate(newAppSource)
	if err != nil {
		return nil, err
	}
	apps := map[string]*ir.App{newApp.Name: newApp}
	for name, src := range installedSources {
		a, err := smartapp.Translate(src)
		if err != nil {
			return nil, fmt.Errorf("iotsan: translating %q: %w", name, err)
		}
		apps[name] = a
	}
	return attribution.AttributeNewApp(sys, newApp, apps, opts)
}
