package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/experiments"
	"iotsan/internal/model"
)

// quick returns the named workload cut to one pass per sample, so a test
// run stays short under the race detector.
func quick(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.passesPerSample = 1
	return w
}

// TestManifest holds BENCHMARK.json to the tables in metrics.go and
// workloads.go, and the names to the contract's alphabet.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Error("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
	metricName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !metricName.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		name(m.name)
	}
}

// TestRunReportsDeclaredMetrics runs one sample of the cheapest two
// workloads, untraced and traced, and checks that what comes out is
// exactly what BENCHMARK.json declares, with no wrong verdict.
func TestRunReportsDeclaredMetrics(t *testing.T) {
	for _, name := range []string{"market_scan", "symfleet_reduced"} {
		w := quick(t, name)
		plain, err := runChild(w, inputs{split: 1, seed: 7}, 0, false, time.Now(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if plain.Expected != "committed" || plain.Wrong != 0 || len(plain.SampleS) != 1 ||
			plain.SetupS <= 0 || plain.PeakRSSMB <= 0 || plain.SampleS[0] <= 0 {
			t.Errorf("%s: untraced child measured %+v", name, plain)
		}

		dir := t.TempDir()
		traced, err := runChild(w, inputs{split: 1, seed: 8}, 0, true, time.Now(), dir)
		if err != nil {
			t.Fatal(err)
		}
		if traced.Wrong != 0 || traced.TracedPasses != 1 {
			t.Errorf("%s: traced child: %d wrong verdicts, %d traced passes", name, traced.Wrong, traced.TracedPasses)
		}
		for _, m := range perLayer {
			if _, ok := traced.Layers[m.name]; !ok {
				t.Errorf("%s: declared layer metric %s was not reported", name, m.name)
			}
		}
		if len(traced.Layers) != len(perLayer) {
			t.Errorf("%s: %d layer metrics reported, %d declared", name, len(traced.Layers), len(perLayer))
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
			t.Error(err)
		}

		// Layer self-times plus iotsan.other_s make up the traced pass.
		l := traced.Layers
		sum := l["groovy.lex_s"] + l["groovy.parse_s"] + l["typeinfer.infer_s"] + l["smartapp.translate_s"] +
			l["smartapp.handlers_s"] + l["depgraph.build_s"] + l["props.compile_s"] + l["model.build_s"] +
			l["checker.run_s"] + l["iotsan.other_s"]
		if diff := sum/l["iotsan.analyze_s"] - 1; diff > 0.02 || diff < -0.02 {
			t.Errorf("%s: layers sum to %v, iotsan.analyze_s is %v", name, sum, l["iotsan.analyze_s"])
		}
	}
}

// TestUncommittedSplitChecksItself: a split absent from expected.json is
// checked against its own first pass, and the result says so.
func TestUncommittedSplitChecksItself(t *testing.T) {
	res, err := runChild(quick(t, "market_scan"), inputs{split: 99, seed: 1}, 0, false, time.Now(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Expected != "self" || res.Wrong != 0 || res.Passes != 2 {
		t.Errorf("got %+v", res)
	}
}

// TestTracedPassEqualsUntraced: the benchmark's own copy of Analyze's
// orchestration, tracing wrapper included, decides what Analyze decides.
func TestTracedPassEqualsUntraced(t *testing.T) {
	systems, err := symfleetSystems(0)
	if err != nil {
		t.Fatal(err)
	}
	w := quick(t, "symfleet_reduced")
	w.opts.MaxEvents = 2
	rep, err := iotsan.Analyze(systems[0].sys, systems[0].sources, w.opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newVerdict(rep.Groups, rep.Violations)
	if err != nil {
		t.Fatal(err)
	}
	got, err := newTracer().analyze(systems[0], w.opts, w.workers)
	if err != nil {
		t.Fatal(err)
	}
	if !sameVerdicts([]verdict{got}, []verdict{want}) || want.Sets[0].Explored < 100 {
		t.Errorf("traced pass decided %+v, iotsan.Analyze %+v", got, want)
	}
}

// TestWrapperForwardsEveryHook fails when model.System() gains or loses
// an optional checker interface the tracing wrapper does not mirror: an
// engine hook the wrapper hid would silently change the traced pass's
// code path.
func TestWrapperForwardsEveryHook(t *testing.T) {
	sys, apps, err := experiments.SymmetrySystem("hooks")
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(sys, apps, model.Options{Symmetry: true, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	inner := m.System()
	wrapper, err := newTracedSystem(inner)
	if err != nil {
		t.Fatal(err)
	}
	hooks := map[string]func(checker.System) bool{
		"Replayer":            func(s checker.System) bool { _, ok := s.(checker.Replayer); return ok },
		"Reducer":             func(s checker.System) bool { _, ok := s.(checker.Reducer); return ok },
		"ProgressCertifier":   func(s checker.System) bool { _, ok := s.(checker.ProgressCertifier); return ok },
		"CanonicalEncoder":    func(s checker.System) bool { _, ok := s.(checker.CanonicalEncoder); return ok },
		"HasSymmetry":         func(s checker.System) bool { _, ok := s.(interface{ HasSymmetry() bool }); return ok },
		"IncrementalDigester": func(s checker.System) bool { _, ok := s.(checker.IncrementalDigester); return ok },
		"StateRecycler":       func(s checker.System) bool { _, ok := s.(checker.StateRecycler); return ok },
		"TransitionRecycler":  func(s checker.System) bool { _, ok := s.(checker.TransitionRecycler); return ok },
		"DeltaCodec":          func(s checker.System) bool { _, ok := s.(checker.DeltaCodec); return ok },
	}
	for name, has := range hooks {
		if has(inner) != has(wrapper) {
			t.Errorf("%s: model.System() implements it: %v, the tracing wrapper: %v", name, has(inner), has(wrapper))
		}
	}
}

// TestCompare: a file compared with itself passes; a 15% slowdown
// against a 10% bound, or a new wrong verdict, does not; a noisy parent
// makes the row unresolved rather than unchanged.
func TestCompare(t *testing.T) {
	base := func() *resultFile {
		f := &resultFile{Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			f.Workloads[w.name] = &workloadResult{Passes: 10, EndToEnd: map[string]summary{
				"verdict_s":   summarize([]float64{0.99, 1, 1.01}, "s"),
				"peak_rss_mb": summarize([]float64{20, 20, 20}, "MB"),
				"setup_s":     summarize([]float64{1, 1, 1}, "s"),
			}, PerLayer: map[string]float64{"checker.states_explored": 100}}
		}
		return f
	}
	bounds := []metric{{name: "verdict_s", bound: 0.10}, {name: "peak_rss_mb", bound: 0.15}, {name: "setup_s", bound: 0.25}}

	var out bytes.Buffer
	if compareResults(&out, base(), base(), bounds) {
		t.Errorf("a file regressed against itself:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "layer counts identical") {
		t.Errorf("no layer-count verdict:\n%s", out.String())
	}

	slow := base()
	slow.Workloads["table8_dfs"].EndToEnd["verdict_s"] = summarize([]float64{1.14, 1.15, 1.16}, "s")
	slow.Workloads["table8_dfs"].PerLayer["checker.states_explored"] = 101
	out.Reset()
	if !compareResults(&out, base(), slow, bounds) {
		t.Errorf("a 15%% slowdown passed a 10%% bound:\n%s", out.String())
	}
	for _, want := range []string{"regressed", "checker.states_explored", "100 -> 101"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	wrong := base()
	wrong.Workloads["market_t5"].Wrong = 1
	if !compareResults(&bytes.Buffer{}, base(), wrong, bounds) {
		t.Error("a new wrong verdict passed")
	}

	noisy := base()
	noisy.Workloads["table8_dfs"].EndToEnd["verdict_s"] = summarize([]float64{0.8, 1, 1.2}, "s")
	out.Reset()
	if compareResults(&out, noisy, slow, bounds) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a parent noisier than the bound must leave the row unresolved:\n%s", out.String())
	}
}
