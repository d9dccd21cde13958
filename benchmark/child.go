package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"iotsan"
)

// environment is recorded in every result and trace file.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// pinProcs caps GOMAXPROCS at two: no workload starts more than two
// workers, and a wider machine must not change what is measured.
func pinProcs() environment {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// A childResult is what one child process measured on one workload.
type childResult struct {
	Env      environment `json:"env"`
	Workload string      `json:"workload"`
	Split    int64       `json:"split"`
	Seed     int64       `json:"seed"`
	// Expected names what the passes were checked against: "committed"
	// (expected.json) or "self" (this child's own first pass, for a split
	// without a committed entry).
	Expected string `json:"expected"`
	// SetupS runs from the parent spawning the child until the first
	// timed sample can begin: process start, input generation, loading
	// the expected verdicts, and one cold warm-up pass.
	SetupS float64 `json:"setup_s"`
	// SampleS holds one value per timed sample: the sample's Analyze
	// time divided by its passes, in seconds per pass.
	SampleS   []float64 `json:"sample_s"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	// Passes counts every pass, warm-up and traced ones included; Wrong
	// counts those whose verdict differed from the expected one.
	Passes int `json:"passes_attempted"`
	Wrong  int `json:"wrong_verdicts"`
	// Layers holds the per-layer metrics of a traced child.
	Layers       map[string]float64 `json:"per_layer,omitempty"`
	TracedPasses int                `json:"traced_passes,omitempty"`
}

// inputs selects what a workload runs on. split picks the random
// six-way split of the market apps, which decides how much work a pass
// is (splits differ more than twofold), so runs are comparable only
// within one split. seed orders the systems within a pass and nothing
// else: every seed is the same work, which is what lets the spread over
// runs with different seeds stand for the noise of the measurement.
type inputs struct {
	split, seed int64
}

// permute returns in reordered by order; nil stays nil.
func permute[T any](in []T, order []int) []T {
	if in == nil {
		return nil
	}
	out := make([]T, len(in))
	for i, from := range order {
		out[i] = in[from]
	}
	return out
}

// A child runs one workload in a process of its own, so that set-up
// time and peak memory belong to that workload alone.
type child struct {
	w       workload
	systems []system
	want    []verdict
	dir     string // results directory; temp store directories live under it
	res     *childResult
}

// runChild sets up the workload, spends budget on timed samples (or, for
// a traced child, one untraced sample and then budget on traced passes)
// and returns what it measured.
func runChild(w workload, in inputs, budget time.Duration, traced bool, spawned time.Time, dir string) (*childResult, error) {
	c := &child{w: w, dir: dir, res: &childResult{Env: pinProcs(), Workload: w.name, Split: in.split, Seed: in.seed, Expected: "committed"}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if c.systems, err = w.systems(in.split); err != nil {
		return nil, err
	}
	if c.want, err = committedVerdicts(w, in.split); err != nil {
		return nil, err
	}
	if c.want != nil && len(c.want) != len(c.systems) {
		return nil, fmt.Errorf("expected.json has %d verdicts for %s, the workload %d systems", len(c.want), w.name, len(c.systems))
	}
	order := rand.New(rand.NewSource(in.seed)).Perm(len(c.systems))
	c.systems, c.want = permute(c.systems, order), permute(c.want, order)
	first, _, err := c.pass()
	if err != nil {
		return nil, err
	}
	if c.want == nil {
		c.want, c.res.Expected = first, "self"
	}
	c.check(first)
	c.res.SetupS = time.Since(spawned).Seconds()

	start := time.Now()
	for len(c.res.SampleS) == 0 || (!traced && time.Since(start) < budget) {
		if err := c.sample(); err != nil {
			return nil, err
		}
	}
	if traced {
		if err := c.tracedPasses(budget); err != nil {
			return nil, err
		}
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	c.res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return c.res, nil
}

func (c *child) check(got []verdict) {
	c.res.Passes++
	if !sameVerdicts(got, c.want) {
		c.res.Wrong++
	}
}

// eachSystem calls run once per system with the workload's options.
// A tempStore workload gets a fresh StoreDir for every call, created
// before and removed after it: neither is the engine's work, so run can
// keep them off its clock.
func (c *child) eachSystem(run func(system, iotsan.Options) (verdict, error)) ([]verdict, error) {
	var out []verdict
	for _, s := range c.systems {
		opts := c.w.opts
		if c.w.tempStore {
			var err error
			if opts.StoreDir, err = os.MkdirTemp(c.dir, "store-"); err != nil {
				return nil, err
			}
		}
		v, err := run(s, opts)
		if opts.StoreDir != "" {
			if rmErr := os.RemoveAll(opts.StoreDir); rmErr != nil {
				return nil, rmErr
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", c.w.name, s.sys.Name, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// pass runs iotsan.Analyze once per system and returns the verdicts and
// the time spent inside Analyze.
func (c *child) pass() ([]verdict, time.Duration, error) {
	var spent time.Duration
	got, err := c.eachSystem(func(s system, opts iotsan.Options) (verdict, error) {
		t0 := time.Now()
		rep, err := iotsan.Analyze(s.sys, s.sources, opts)
		spent += time.Since(t0)
		if err != nil {
			return verdict{}, err
		}
		return newVerdict(rep.Groups, rep.Violations)
	})
	return got, spent, err
}

// sample runs the workload's fixed number of consecutive passes, a
// closed loop from this one goroutine.
func (c *child) sample() error {
	var spent time.Duration
	for i := 0; i < c.w.passesPerSample; i++ {
		got, d, err := c.pass()
		if err != nil {
			return err
		}
		c.check(got)
		spent += d
	}
	c.res.SampleS = append(c.res.SampleS, spent.Seconds()/float64(c.w.passesPerSample))
	return nil
}

// procStats is the process-wide cost of the traced passes.
type procStats struct {
	allocBytes, mallocs, gcCycles, gcPauseNs uint64
	cpuS                                     float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // proc.cpu_s is informational; a failing getrusage is not worth a run
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// tracedPasses repeats the traced pass until budget is spent, checks
// every one against the expected verdict, and reduces the spans and
// counters to the per-layer metrics, each a mean over the traced passes.
func (c *child) tracedPasses(budget time.Duration) error {
	t := newTracer()
	var ps procStats
	for _, s := range c.systems {
		if err := t.probe.add(s.sources); err != nil {
			return err
		}
	}
	start := time.Now()
	for t.pass == 0 || time.Since(start) < budget {
		t.pass++
		got, err := c.eachSystem(func(s system, opts iotsan.Options) (verdict, error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cpu0 := cpuSeconds()
			v, err := t.analyze(s, opts, c.w.workers)
			ps.cpuS += cpuSeconds() - cpu0
			runtime.ReadMemStats(&after)
			ps.allocBytes += after.TotalAlloc - before.TotalAlloc
			ps.mallocs += after.Mallocs - before.Mallocs
			ps.gcCycles += uint64(after.NumGC - before.NumGC)
			ps.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
			return v, err
		})
		if err != nil {
			return err
		}
		c.check(got)
	}
	c.res.TracedPasses = t.pass
	c.res.Layers = layerMetrics(t, ps, median(c.res.SampleS))
	return writeJSON(filepath.Join(c.dir, "trace-"+c.w.name+".json"), map[string]any{
		"env": c.res.Env, "workload": c.w.name, "split": c.res.Split, "seed": c.res.Seed,
		"traced_passes": t.pass, "per_layer": c.res.Layers,
		"probe": map[string]float64{"lex_s": t.probe.lexS, "parse_s": t.probe.parseS,
			"infer_s": t.probe.inferS, "translate_s": t.probe.translateS},
		"spans": t.spans,
	})
}

// layerMetrics reduces a tracer to the per-layer metrics, per traced
// pass. verdictS is the untraced seconds per pass of the same child.
func layerMetrics(t *tracer, ps procStats, verdictS float64) map[string]float64 {
	p := float64(t.pass)
	m := map[string]float64{}
	for _, lm := range perLayer {
		if v, ok := t.totals[lm.name]; ok {
			m[lm.name] = v / p
		}
	}
	// A peak is not a sum over passes.
	m["checker.store_peak_resident"] = t.totals["checker.store_peak_resident"]

	// The Translate span, divided among the layers it calls in proportion
	// to the probe timings.
	translate := t.spanSeconds(spanTranslate) / p
	pr := t.probe
	whole := max(pr.translateS, pr.lexS+pr.parseS+pr.inferS)
	m["groovy.lex_s"] = translate * pr.lexS / whole
	m["groovy.parse_s"] = translate * pr.parseS / whole
	m["typeinfer.infer_s"] = translate * pr.inferS / whole
	m["smartapp.translate_s"] = translate * (whole - pr.lexS - pr.parseS - pr.inferS) / whole
	m["groovy.source_kb"] = float64(pr.sourceBytes) / 1024
	m["groovy.tokens"] = float64(pr.tokens)
	m["groovy.parse_mb_per_s"] = float64(pr.sourceBytes) / 1e6 / (m["groovy.lex_s"] + m["groovy.parse_s"])

	m["smartapp.handlers_s"] = t.spanSeconds(spanHandlers) / p
	m["smartapp.apps"] = t.spanCount(spanTranslate) / p
	m["depgraph.build_s"] = t.spanSeconds(spanDepgraph) / p
	m["depgraph.related_sets"] = t.spanCount(spanGroup) / p
	m["depgraph.scale_ratio"] = t.totals["depgraph.handlers"] / t.totals["depgraph.largest_set"]
	m["props.compile_s"] = t.spanSeconds(spanProps) / p
	m["model.build_s"] = t.spanSeconds(spanModel) / p
	m["model.build_calls"] = t.spanCount(spanModel) / p
	m["checker.run_s"] = t.spanSeconds(spanChecker) / p
	m["checker.new_state_ratio"] = m["checker.states_stored"] / m["model.transitions"]
	m["checker.states_per_s"] = m["checker.states_explored"] / m["checker.run_s"]
	m["iotsan.analyze_s"] = t.spanSeconds(spanAnalyze) / p
	m["iotsan.groups"] = m["depgraph.related_sets"]
	m["iotsan.other_s"] = m["iotsan.analyze_s"] - translate - m["smartapp.handlers_s"] -
		m["depgraph.build_s"] - m["props.compile_s"] - m["model.build_s"] - m["checker.run_s"]

	m["proc.alloc_mb"] = float64(ps.allocBytes) / (1 << 20) / p
	m["proc.allocs_per_state"] = float64(ps.mallocs) / p / m["checker.states_explored"]
	m["proc.gc_cycles"] = float64(ps.gcCycles) / p
	m["proc.gc_pause_ms"] = float64(ps.gcPauseNs) / 1e6 / p
	m["proc.cpu_s"] = ps.cpuS / p
	m["proc.trace_overhead"] = m["iotsan.analyze_s"] / verdictS
	return m
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
