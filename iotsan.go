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
	"cmp"
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
	// Properties is refused when set: every run checks the full
	// 45-property catalog.
	//
	// Deprecated: leave it nil. The field is removed together with the
	// benchmark's hand copy of Analyze (ROADMAP item 1(b)), its last
	// reader.
	Properties []string
	// Thresholds is refused when set: every run checks the numeric
	// properties under props.DefaultThresholds.
	//
	// Deprecated: leave it zero. The field is removed together with the
	// benchmark's hand copy of Analyze (ROADMAP item 1(b)), its last
	// reader.
	Thresholds props.Thresholds
	// NoDepGraph disables related-set decomposition (ablation; the
	// whole system is checked as one group).
	NoDepGraph bool
	// Bitstate is refused when set: the bitstate (supertrace) store is
	// Store: StoreBitstate.
	//
	// Deprecated: set Store instead. The field is removed together with
	// the benchmark's hand copy of Analyze (ROADMAP item 1(b)), its last
	// reader.
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
	// are outside it. Any other store refuses it.
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
	// GroupParallel is refused when set: related sets verify
	// concurrently by default, and Workers alone sets how many at once
	// (1 = one after another).
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
	// not a CLI flag. Sequential DFS free-lists are unaffected, and so
	// is trail replay, which recycles its replayed states under every
	// option.
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
	return o
}

// validate rejects option values and combinations no search can run
// under, before any source is translated: a deprecated field that is
// set, a negative count, budget or limit (zero keeps its documented
// default), the store directory the tiered store and the WAL need, then
// the checker's own rule (checker.Options.Validate) on the options that
// reach it.
func (o Options) validate() error {
	for _, f := range []struct {
		name, instead string
		set           bool
	}{
		{"Properties", "every run checks the full catalog", o.Properties != nil},
		{"Thresholds", "every run uses props.DefaultThresholds", o.Thresholds != (props.Thresholds{})},
		{"Bitstate", "set Store: StoreBitstate", o.Bitstate},
		{"GroupParallel", "set Workers", o.GroupParallel},
	} {
		if f.set {
			return fmt.Errorf("iotsan: Options.%s is deprecated and refused; %s", f.name, f.instead)
		}
	}
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

// checkerOptions is the part of o every related set's search shares.
func (o Options) checkerOptions() checker.Options {
	return checker.Options{
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
	// Elapsed is the call's time from the start of its plan, which on
	// Analyze includes translating the sources, to the last related
	// set's result.
	Elapsed time.Duration

	// programs and atomTables are the call's plan counters (programs
	// compiled, atom tables resolved), kept for the compile-once gate.
	programs, atomTables int
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
	return analyze(sys, slices.Sorted(maps.Keys(sources)), func(name string) (*ir.App, error) {
		app, err := smartapp.Translate(sources[name])
		if err != nil {
			return nil, fmt.Errorf("iotsan: translating %q: %w", name, err)
		}
		return app, nil
	}, opts)
}

// AnalyzeTranslated verifies a system whose apps are already translated.
func AnalyzeTranslated(sys *System, apps map[string]*ir.App, opts Options) (*Report, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	names, translate := translated(apps)
	return analyze(sys, names, translate, opts.withDefaults())
}

// translated gives apps, already translated, the form relatedSets takes
// an app list in: the names, sorted, and a lookup.
func translated(apps map[string]*ir.App) ([]string, func(name string) (*ir.App, error)) {
	return slices.Sorted(maps.Keys(apps)), func(name string) (*ir.App, error) { return apps[name], nil }
}

func analyze(sys *System, names []string, translate func(name string) (*ir.App, error), opts Options) (*Report, error) {
	start := time.Now()
	rep := &Report{}
	pl, groups, err := relatedSets(rep, sys, names, translate, opts)
	if err != nil {
		return nil, err
	}
	if err := runGroups(rep, pl, groups, opts); err != nil {
		return nil, err
	}
	rep.programs = int(pl.model.Counts.Programs.Load())
	rep.atomTables = int(pl.model.Counts.AtomTables.Load())
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// relatedSets is the App Dependency Analyzer (§5): it builds the plan
// every set's verification reads, which translates the apps, then groups
// the installed apps into related sets via their handlers' input/output
// events and records the translations and the scale of the grouping in
// rep.
func relatedSets(rep *Report, sys *System, names []string, translate func(name string) (*ir.App, error), opts Options) (*plan, [][]string, error) {
	pl, apps, err := newPlan(sys, names, translate, opts)
	if err != nil {
		return nil, nil, err
	}
	rep.Apps = apps
	var handlers []smartapp.HandlerInfo
	var handlerApp []string // handler index → installed app name
	for i, inst := range sys.Apps {
		for _, hi := range pl.handlers[i] {
			handlerApp = append(handlerApp, inst.App)
			handlers = append(handlers, hi)
		}
	}
	g := depgraph.Build(handlers)
	final := g.FinalSets()
	rep.Scale = g.Scale(final)
	return pl, relatedAppGroups(sys, g, final, handlerApp, opts.NoDepGraph), nil
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
	// program); handlers[i] is its handler analysis, shared by every
	// instance of the app.
	insts    []*model.AppInst
	handlers [][]smartapp.HandlerInfo
	// invs is the invariant catalog, compiled once.
	invs []model.Invariant
	// propAttrs are the sensed attributes the applicable properties
	// observe: the half of a group's relevant attributes that does not
	// depend on the group.
	propAttrs map[string]bool
}

// newPlan builds the call's plan from the apps names lists, which
// translate yields by name, and returns it with those apps by name.
//
// After the device table, the work is one forEachIndex pool of
// opts.width() goroutines, each task writing only its own slots: task 0
// compiles the invariant catalog, and task 1+j translates names[j],
// analyses its handlers and prepares each installed instance of it.
// Workers: 1 runs the tasks in that order on one goroutine. Errors are
// the ones a sequential pass meets first: the first failing translation
// in name order, then the first installed instance with no app, then
// the first instance that does not prepare, in installation order, then
// the catalog's.
func newPlan(sys *System, names []string, translate func(name string) (*ir.App, error), opts Options) (*plan, map[string]*ir.App, error) {
	mp, err := model.Prepare(sys)
	if err != nil {
		return nil, nil, err
	}
	pl := &plan{
		sys:      sys,
		model:    mp,
		insts:    make([]*model.AppInst, len(sys.Apps)),
		handlers: make([][]smartapp.HandlerInfo, len(sys.Apps)),
	}
	// instances[j] are the positions in sys.Apps of names[j]'s instances.
	instances := make([][]int, len(names))
	for i, inst := range sys.Apps {
		if j, ok := slices.BinarySearch(names, inst.App); ok {
			instances[j] = append(instances[j], i)
		}
	}
	apps := make([]*ir.App, len(names))
	appErrs := make([]error, len(names))
	instErrs := make([]error, len(sys.Apps))
	var catalogErr error
	forEachIndex(1+len(names), opts.width(), func(_, t int) {
		if t == 0 {
			pl.invs, catalogErr = props.CompileCatalog(mp, nil)
			return
		}
		j := t - 1
		if apps[j], appErrs[j] = translate(names[j]); apps[j] == nil {
			return
		}
		handlers := smartapp.AnalyzeHandlers(apps[j])
		for _, i := range instances[j] {
			pl.handlers[i] = handlers
			pl.insts[i], instErrs[i] = mp.PrepareApp(sys.Apps[i], apps[j], opts.Interpreter)
		}
	})
	if err := cmp.Or(appErrs...); err != nil {
		return nil, nil, err
	}
	for _, inst := range sys.Apps {
		if j, ok := slices.BinarySearch(names, inst.App); !ok || apps[j] == nil {
			return nil, nil, fmt.Errorf("iotsan: no source for installed app %q", inst.App)
		}
	}
	if err := cmp.Or(instErrs...); err != nil {
		return nil, nil, err
	}
	if catalogErr != nil {
		return nil, nil, catalogErr
	}
	byName := make(map[string]*ir.App, len(names))
	for j, name := range names {
		byName[name] = apps[j]
	}

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
	return pl, byName, nil
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
//
// Each goroutine of the pool owns one searchKit for the call, which
// hands what a finished set's search grew to the next set it runs.
func runGroups(rep *Report, pl *plan, groups [][]string, opts Options) error {
	width := opts.width()
	pool := max(1, min(width, len(groups)))
	crew := width / pool // pool <= width: every search gets a worker
	stop := new(atomic.Bool)
	seen := map[string]bool{}
	results := make([]*GroupResult, len(groups))
	errs := make([]error, len(groups))
	done := make([]bool, len(groups))
	kits := make([]searchKit, pool)
	var (
		mu        sync.Mutex // guards results, errs, done, committed, firstErr and rep
		committed int        // groups[:committed] are committed
		firstErr  error
	)
	forEachIndex(len(groups), pool, func(w, i int) {
		gr, err := verifyGroup(pl, pl.groupInstances(groups[i]), opts, i, stop, crew, &kits[w])
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

// forEachIndex calls f(w, i) for every i in [0, n) from a fixed pool of
// min(width, n) goroutines, which take the indices in increasing order
// from one counter, and returns once every call has returned. w numbers
// the goroutine making the call, from 0: calls with the same w never
// overlap.
func forEachIndex(n, width int, f func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range min(width, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(w, i)
			}
		}()
	}
	wg.Wait()
}

// searchKit is what one scheduler goroutine's related-set searches hand
// down, each to the next: the DFS's visited table (checker.Tables) and
// the transition memo's arenas (model.Arenas). A set's search starts
// from the arrays the one before it grew, emptied, and allocates only
// where it outgrows them. A kit lives for one runGroups call.
type searchKit struct {
	visited checker.Tables
	memo    model.Arenas
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
// killed run wrote for the same group. workers is the search's crew, and
// kit the calling goroutine's searchKit.
func verifyGroup(pl *plan, group []int, opts Options, gidx int, stop *atomic.Bool, workers int, kit *searchKit) (*GroupResult, error) {
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
		CheckConflicts:  true,
		CheckLeakage:    true,
		CheckRobustness: opts.Failures || opts.Faults,
		Invariants:      pl.invs,
		RelevantAttrs:   pl.relevantAttrs(group),
		Interpreter:     opts.Interpreter,
		Symmetry:        opts.Symmetry,
		Incremental:     !opts.NoIncremental,
		Arenas:          &kit.memo,
	})
	if err != nil {
		return nil, err
	}

	// The checker has no violation cap. The global MaxViolations cap is
	// enforced when a group's results are committed — the report filters
	// exec-errors and deduplicates across groups, so a per-group count
	// could stop a search on violations that never reach it — and
	// reaches the searches still running through the shared stop flag.
	// Fault transitions extend paths beyond the event budget (an
	// outage/recovery/delivery chain can interleave between events), so
	// the depth bound grows with the fault budget.
	copts := opts.checkerOptions()
	copts.MaxDepth = opts.MaxEvents + 64 + 8*opts.MaxFaults
	copts.Workers, copts.Stop, copts.Tables = workers, stop, &kit.visited
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
	kit.memo.Reclaim()
	if res.Err != nil {
		return nil, fmt.Errorf("iotsan: related set %d: %w", gidx, res.Err)
	}
	return &GroupResult{Apps: names, Handlers: handlers, Result: res, InvariantCount: len(pl.invs)}, nil
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
