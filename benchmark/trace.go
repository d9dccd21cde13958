package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/depgraph"
	"iotsan/internal/device"
	"iotsan/internal/groovy"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/props"
	"iotsan/internal/smartapp"
	"iotsan/internal/typeinfer"
)

// The traced pass re-creates iotsan.Analyze's orchestration from the
// layers' public functions, so spans and counters sit at the layer
// boundaries without touching product code. Every traced pass must
// reproduce the untraced verdict exactly (child.go), which is what keeps
// this copy honest when Analyze changes.

// Span names: one per coarse layer boundary.
const (
	spanAnalyze   = "iotsan.analyze"
	spanGroup     = "iotsan.group"
	spanTranslate = "smartapp.translate"
	spanHandlers  = "smartapp.handlers"
	spanDepgraph  = "depgraph.build"
	spanProps     = "props.compile"
	spanModel     = "model.build"
	spanChecker   = "checker.run"
)

// A span is one timed interval of a traced pass. Parent is the id of the
// span that caused it (0 for the root), Pass the traced pass it belongs
// to; times are seconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	// Counts carries, on checker.run spans, that run's callback counters
	// and the checker's own result counters.
	Counts map[string]float64 `json:"counts,omitempty"`
	StartS float64            `json:"start_s"`
	EndS   float64            `json:"end_s"`
}

// A tracer keeps spans in memory until the child writes them out. The
// orchestration is single-goroutine, so only the callback counters (hit
// from checker workers) are atomic.
type tracer struct {
	origin time.Time
	pass   int
	spans  []span
	// totals accumulates every run's callback counters and result
	// counters over all traced passes.
	totals map[string]float64
	// probe holds the front-end split timings.
	probe frontEndProbe
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), totals: map[string]float64{}}
}

func (t *tracer) begin(parent int, name, detail string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Pass: t.pass,
		Name: name, Detail: detail, StartS: time.Since(t.origin).Seconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	t.spans[id-1].EndS = time.Since(t.origin).Seconds()
}

// spanSeconds sums the durations of every span with the given name.
func (t *tracer) spanSeconds(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.EndS - s.StartS
		}
	}
	return sum
}

func (t *tracer) spanCount(name string) float64 {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return float64(n)
}

// frontEndProbe splits smartapp.Translate, which calls the lexer, parser
// and type inference internally, into its layers. The probe runs each
// layer's public entry point on the same sources outside the traced
// pass; the in-pass Translate span is then divided in proportion.
type frontEndProbe struct {
	lexS, parseS, inferS, translateS float64
	sourceBytes, tokens              int
}

func (p *frontEndProbe) add(sources map[string]string) error {
	for name, src := range sources {
		t0 := time.Now()
		toks, err := groovy.Tokenize(src)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("probe: tokenizing %q: %w", name, err)
		}
		if _, err := groovy.ParseScript(src); err != nil {
			return fmt.Errorf("probe: parsing %q: %w", name, err)
		}
		t2 := time.Now()
		app, err := smartapp.Translate(src)
		t3 := time.Now()
		if err != nil {
			return fmt.Errorf("probe: translating %q: %w", name, err)
		}
		typeinfer.Infer(app)
		t4 := time.Now()

		lex := t1.Sub(t0).Seconds()
		p.lexS += lex
		// ParseScript tokenizes again; what is left is the parser.
		p.parseS += max(t2.Sub(t1).Seconds()-lex, 0)
		p.translateS += t3.Sub(t2).Seconds()
		p.inferS += t4.Sub(t3).Seconds()
		p.sourceBytes += len(src)
		p.tokens += len(toks)
	}
	return nil
}

// analyze is the traced twin of iotsan.Analyze for the option subset the
// workloads use (sequential groups, the full property catalog, no
// violation cap). workers is how many goroutines opts makes the checker
// start, the multiplier in checker.self_s.
func (t *tracer) analyze(s system, opts iotsan.Options, workers int) (verdict, error) {
	if opts.GroupParallel || opts.Properties != nil || opts.MaxViolations != 0 || opts.Bitstate {
		return verdict{}, fmt.Errorf("traced pass does not model options %+v", opts)
	}
	if opts.MaxStatesPerSet <= 0 {
		opts.MaxStatesPerSet = 1_000_000
	}
	if opts.Thresholds == (props.Thresholds{}) {
		opts.Thresholds = props.DefaultThresholds()
	}

	root := t.begin(0, spanAnalyze, s.sys.Name)
	defer t.end(root)
	if err := s.sys.Validate(); err != nil {
		return verdict{}, err
	}
	apps := map[string]*ir.App{}
	for name, src := range s.sources {
		sp := t.begin(root, spanTranslate, name)
		app, err := smartapp.Translate(src)
		t.end(sp)
		if err != nil {
			return verdict{}, fmt.Errorf("translating %q: %w", name, err)
		}
		apps[name] = app
	}
	for _, inst := range s.sys.Apps {
		if apps[inst.App] == nil {
			return verdict{}, fmt.Errorf("no source for installed app %q", inst.App)
		}
	}

	sp := t.begin(root, spanHandlers, "")
	var handlers []smartapp.HandlerInfo
	var handlerApp []string // handler index → installed app name
	for _, inst := range s.sys.Apps {
		for _, hi := range smartapp.AnalyzeHandlers(apps[inst.App]) {
			handlerApp = append(handlerApp, inst.App)
			handlers = append(handlers, hi)
		}
	}
	t.end(sp)
	t.totals["smartapp.handlers"] += float64(len(handlers))

	sp = t.begin(root, spanDepgraph, "")
	scale := depgraph.Scale(handlers)
	groups := relatedAppGroups(s.sys, handlers, handlerApp, opts.NoDepGraph)
	t.end(sp)
	t.totals["depgraph.handlers"] += float64(scale.OriginalSize)
	t.totals["depgraph.largest_set"] += float64(scale.NewSize)

	var results []iotsan.GroupResult
	var found []checker.Found
	seen := map[string]bool{}
	for gidx, groupApps := range groups {
		gsp := t.begin(root, spanGroup, strings.Join(groupApps, ", "))
		gr, err := t.verifyGroup(gsp, subSystem(s.sys, groupApps), apps, opts, workers, gidx)
		t.end(gsp)
		if err != nil {
			return verdict{}, err
		}
		results = append(results, *gr)
		for _, f := range gr.Result.Violations {
			key := f.Property + "\x00" + f.Detail
			if f.Property != model.PropExecError && !seen[key] {
				seen[key] = true
				found = append(found, f)
			}
		}
	}
	return newVerdict(results, found)
}

func (t *tracer) verifyGroup(parent int, sub *config.System, apps map[string]*ir.App, opts iotsan.Options, workers, gidx int) (*iotsan.GroupResult, error) {
	sp := t.begin(parent, spanProps, "")
	invs, err := props.CompileInvariants(sub, nil, opts.Thresholds)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	t.totals["props.invariants"] += float64(len(invs))
	sel := map[string]bool{}
	for _, id := range props.IDs() {
		sel[id] = true
	}
	relevant := t.relevantAttrs(parent, sub, apps)

	sp = t.begin(parent, spanModel, "")
	m, err := model.New(sub, apps, model.Options{
		Design:          opts.Design,
		MaxEvents:       opts.MaxEvents,
		Failures:        opts.Failures,
		Faults:          opts.Faults,
		MaxFaults:       opts.MaxFaults,
		CheckConflicts:  sel[model.PropConflicting] || sel[model.PropRepeated],
		CheckLeakage:    sel[model.PropLeakNetwork],
		CheckRobustness: (opts.Failures || opts.Faults) && sel[model.PropRobustness],
		Invariants:      invs,
		RelevantAttrs:   relevant,
		Interpreter:     opts.Interpreter,
		Symmetry:        opts.Symmetry,
		Incremental:     !opts.NoIncremental,
	})
	t.end(sp)
	if err != nil {
		return nil, err
	}

	copts := checker.Options{
		MaxDepth:       opts.MaxEvents + 64 + 8*opts.MaxFaults,
		MaxStates:      opts.MaxStatesPerSet,
		Deadline:       opts.Deadline,
		Strategy:       opts.Strategy,
		Workers:        opts.Workers,
		Stop:           new(atomic.Bool),
		POR:            opts.POR,
		Symmetry:       opts.Symmetry,
		NoEpochReclaim: opts.NoEpochReclaim,
		Store:          opts.Store,
	}
	if copts.Store == checker.Tiered || opts.Checkpoint || opts.Resume {
		if opts.StoreDir == "" {
			return nil, fmt.Errorf("StoreTiered/Checkpoint/Resume require Options.StoreDir")
		}
		dir := filepath.Join(opts.StoreDir, fmt.Sprintf("group-%03d", gidx))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store directory: %w", err)
		}
		copts.StoreDir = dir
		copts.MemBudget = opts.MemBudget
		copts.Checkpoint = opts.Checkpoint
		copts.Resume = opts.Resume
	}

	traced, err := newTracedSystem(m.System())
	if err != nil {
		return nil, err
	}
	sp = t.begin(parent, spanChecker, "")
	res := checker.Run(traced, copts)
	t.end(sp)
	counts := traced.calls.counts()
	run := t.spans[sp-1].EndS - t.spans[sp-1].StartS
	counts["checker.self_s"] = run*float64(workers) - traced.calls.busySeconds()
	counts["checker.states_explored"] = float64(res.StatesExplored)
	counts["checker.states_matched"] = float64(res.StatesMatched)
	counts["checker.states_stored"] = float64(res.StatesStored)
	counts["checker.violations"] = float64(len(res.Violations))
	counts["checker.por_pruned"] = float64(res.PORPrunedTransitions)
	counts["checker.store_spilled"] = float64(res.Store.Spilled)
	counts["checker.store_disk_hits"] = float64(res.Store.DiskHits)
	counts["checker.store_filter_rejects"] = float64(res.Store.FilterRejects)
	counts["checker.wal_bytes"] = float64(res.Store.CheckpointBytes)
	counts["checker.wal_checkpoints"] = float64(res.Store.Checkpoints)
	t.spans[sp-1].Counts = counts
	for k, v := range counts {
		t.totals[k] += v
	}
	// A peak does not add up over runs: keep the largest.
	t.totals["checker.store_peak_resident"] = max(t.totals["checker.store_peak_resident"], float64(res.Store.PeakResident))

	var names []string
	nhandlers := 0
	for _, inst := range sub.Apps {
		names = append(names, inst.App)
		nhandlers += len(apps[inst.App].HandlerNames())
	}
	return &iotsan.GroupResult{Apps: names, Handlers: nhandlers, Result: res, InvariantCount: len(invs)}, nil
}

// relevantAttrs mirrors iotsan.relevantAttrs; its handler analysis is
// the smartapp layer's work and gets that layer's span.
func (t *tracer) relevantAttrs(parent int, sys *config.System, apps map[string]*ir.App) map[string]bool {
	attrs := map[string]bool{}
	sp := t.begin(parent, spanHandlers, "relevant attributes")
	for _, inst := range sys.Apps {
		for _, hi := range smartapp.AnalyzeHandlers(apps[inst.App]) {
			for _, in := range hi.Inputs {
				attrs[in.Attr] = true
			}
		}
	}
	t.end(sp)
	for _, p := range props.Catalog() {
		if p.Kind != props.Physical || !p.Applicable(sys) {
			continue
		}
		for _, capName := range p.Capabilities {
			if c := device.CapabilityByName(capName); c != nil && c.Sensor {
				for _, a := range c.Attributes {
					attrs[a.Name] = true
				}
			}
		}
	}
	attrs["presence"] = true
	return attrs
}

// relatedAppGroups, dedupe and subSystem mirror the unexported helpers
// of the same names in iotsan.go.
func relatedAppGroups(sys *config.System, handlers []smartapp.HandlerInfo, handlerApp []string, noDepGraph bool) [][]string {
	if noDepGraph {
		var all []string
		for _, inst := range sys.Apps {
			all = append(all, inst.App)
		}
		return [][]string{dedupe(all)}
	}
	g := depgraph.Build(handlers)
	var groups [][]string
	seenGroups := map[string]bool{}
	for _, rs := range g.FinalSets() {
		var names []string
		for _, i := range g.HandlerIndices(rs) {
			names = append(names, handlerApp[i])
		}
		names = dedupe(names)
		k := fmt.Sprint(names)
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

func subSystem(sys *config.System, appNames []string) *config.System {
	want := map[string]bool{}
	for _, n := range appNames {
		want[n] = true
	}
	sub := &config.System{
		Name: sys.Name, Modes: sys.Modes, Mode: sys.Mode,
		Devices: sys.Devices, Phones: sys.Phones,
	}
	for _, inst := range sys.Apps {
		if want[inst.App] {
			sub.Apps = append(sub.Apps, inst)
		}
	}
	return sub
}

// modelSystem is everything model.System() implements today: the
// checker.System contract plus every optional engine hook. The tracing
// wrapper forwards all of it so the engine takes the same code path as
// in an untraced pass; bench_test.go fails when the two sets diverge.
type modelSystem interface {
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

// A callCounter is one callback's call count and busy time, summed over
// the checker's workers.
type callCounter struct {
	calls, nanos atomic.Int64
}

func (c *callCounter) since(t0 time.Time) {
	c.calls.Add(1)
	c.nanos.Add(int64(time.Since(t0)))
}

func (c *callCounter) seconds() float64 { return float64(c.nanos.Load()) / 1e9 }

type callCounters struct {
	expand, inspect, digest, reduce, replay, recycle, delta callCounter
	transitions                                             atomic.Int64
}

func (c *callCounters) busySeconds() float64 {
	return c.expand.seconds() + c.inspect.seconds() + c.digest.seconds() + c.reduce.seconds() +
		c.replay.seconds() + c.recycle.seconds() + c.delta.seconds()
}

func (c *callCounters) counts() map[string]float64 {
	return map[string]float64{
		"model.expand_s":      c.expand.seconds(),
		"model.expand_calls":  float64(c.expand.calls.Load()),
		"model.transitions":   float64(c.transitions.Load()),
		"model.inspect_s":     c.inspect.seconds(),
		"model.inspect_calls": float64(c.inspect.calls.Load()),
		"model.digest_s":      c.digest.seconds(),
		"model.digest_calls":  float64(c.digest.calls.Load()),
		"model.reduce_s":      c.reduce.seconds(),
		"model.reduce_calls":  float64(c.reduce.calls.Load()),
		"model.replay_s":      c.replay.seconds(),
		"model.replay_calls":  float64(c.replay.calls.Load()),
		"model.recycle_s":     c.recycle.seconds(),
		"model.delta_s":       c.delta.seconds(),
	}
}

// tracedSystem counts and times every callback the checker makes into
// the model.
type tracedSystem struct {
	inner modelSystem
	calls *callCounters
}

func newTracedSystem(sys checker.System) (*tracedSystem, error) {
	inner, ok := sys.(modelSystem)
	if !ok {
		return nil, fmt.Errorf("model.System() (%T) no longer implements every hook the tracing wrapper forwards", sys)
	}
	return &tracedSystem{inner: inner, calls: new(callCounters)}, nil
}

func (t *tracedSystem) Initial() checker.State { return t.inner.Initial() }

func (t *tracedSystem) Expand(s checker.State) []checker.Transition {
	t0 := time.Now()
	trs := t.inner.Expand(s)
	t.calls.expand.since(t0)
	t.calls.transitions.Add(int64(len(trs)))
	return trs
}

func (t *tracedSystem) Inspect(s checker.State) []checker.Violation {
	t0 := time.Now()
	vs := t.inner.Inspect(s)
	t.calls.inspect.since(t0)
	return vs
}

func (t *tracedSystem) Replay(from checker.State, key uint64) (string, []string, checker.State) {
	t0 := time.Now()
	label, steps, next := t.inner.Replay(from, key)
	t.calls.replay.since(t0)
	return label, steps, next
}

func (t *tracedSystem) Reduce(s checker.State, trs []checker.Transition) []int {
	t0 := time.Now()
	subset := t.inner.Reduce(s, trs)
	t.calls.reduce.since(t0)
	return subset
}

func (t *tracedSystem) CertifiesProgress() bool { return t.inner.CertifiesProgress() }

func (t *tracedSystem) CanonicalEncode(s checker.State, buf []byte) []byte {
	t0 := time.Now()
	buf = t.inner.CanonicalEncode(s, buf)
	t.calls.digest.since(t0)
	return buf
}

func (t *tracedSystem) HasSymmetry() bool { return t.inner.HasSymmetry() }

func (t *tracedSystem) IncrementalDigest(s checker.State, canonical bool) (uint64, uint64) {
	t0 := time.Now()
	h1, h2 := t.inner.IncrementalDigest(s, canonical)
	t.calls.digest.since(t0)
	return h1, h2
}

func (t *tracedSystem) HasIncremental() bool { return t.inner.HasIncremental() }

// Recycle implements checker.StateRecycler.
//
//iotsan:retires s
func (t *tracedSystem) Recycle(s checker.State) {
	t0 := time.Now()
	t.inner.Recycle(s)
	t.calls.recycle.since(t0)
}

// RecycleTransitions implements checker.TransitionRecycler.
//
//iotsan:retires trs
func (t *tracedSystem) RecycleTransitions(trs []checker.Transition) {
	t0 := time.Now()
	t.inner.RecycleTransitions(trs)
	t.calls.recycle.since(t0)
}

func (t *tracedSystem) DeltaEncode(child, parent checker.State, buf []byte) []byte {
	t0 := time.Now()
	buf = t.inner.DeltaEncode(child, parent, buf)
	t.calls.delta.since(t0)
	return buf
}

func (t *tracedSystem) DeltaApply(parent checker.State, delta, buf []byte) ([]byte, error) {
	t0 := time.Now()
	buf, err := t.inner.DeltaApply(parent, delta, buf)
	t.calls.delta.since(t0)
	return buf, err
}
