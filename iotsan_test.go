package iotsan_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"iotsan"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
)

// TestAnalyzePipeline runs the full public pipeline on the §8 example.
func TestAnalyzePipeline(t *testing.T) {
	sources := map[string]string{
		"Auto Mode Change": corpus.MustSource("Auto Mode Change"),
		"Unlock Door":      corpus.MustSource("Unlock Door"),
	}
	sys := &iotsan.System{
		Name: "alice", Modes: []string{"Home", "Away", "Night"}, Mode: "Home",
		Devices: []iotsan.Device{
			{ID: "p1", Model: "Presence Sensor"},
			{ID: "l1", Model: "Smart Lock", Association: "main door"},
		},
		Apps: []iotsan.AppInstance{
			{App: "Auto Mode Change", Bindings: map[string]iotsan.Binding{
				"people":   {DeviceIDs: []string{"p1"}},
				"awayMode": {Value: "Away"}, "homeMode": {Value: "Home"},
			}},
			{App: "Unlock Door", Bindings: map[string]iotsan.Binding{
				"lock1": {DeviceIDs: []string{"l1"}},
			}},
		},
	}
	rep, err := iotsan.Analyze(sys, sources, iotsan.Options{MaxEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.ViolatedProperties() {
		if p == "lock.main-door-when-away" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing Fig. 7 violation; got %v", rep.ViolatedProperties())
	}
	if rep.Scale.OriginalSize == 0 || len(rep.Groups) == 0 {
		t.Errorf("scale/groups not populated: %+v", rep.Scale)
	}
}

// TestAnalyzeErrors covers facade error paths.
func TestAnalyzeErrors(t *testing.T) {
	sys := &iotsan.System{
		Devices: []iotsan.Device{{ID: "d", Model: "Smart Switch"}},
		Apps:    []iotsan.AppInstance{{App: "Nope"}},
	}
	if _, err := iotsan.Analyze(sys, map[string]string{}, iotsan.Options{}); err == nil {
		t.Error("missing source should fail")
	}
	if _, err := iotsan.Analyze(sys, map[string]string{"Nope": "not groovy ("}, iotsan.Options{}); err == nil {
		t.Error("bad source should fail")
	}
}

// TestAnalyzeTranslationConcurrent: the translations Analyze makes
// concurrently equal sequential ones, app by app, over the whole
// corpus. Under -race this shows that the groovy, smartapp and
// typeinfer packages share no mutable state between translations.
func TestAnalyzeTranslationConcurrent(t *testing.T) {
	sources := map[string]string{}
	for _, s := range corpus.Apps() {
		sources[s.Name] = s.Groovy
	}
	// A system with no apps: Analyze translates every source and has no
	// related set to verify.
	rep, err := iotsan.Analyze(&iotsan.System{Name: "corpus"}, sources, iotsan.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) != len(sources) {
		t.Fatalf("Analyze kept %d translations of %d sources", len(rep.Apps), len(sources))
	}
	for name, src := range sources {
		want, err := iotsan.Translate(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(rep.Apps[name], want) {
			t.Errorf("%s: concurrent translation differs from sequential", name)
		}
	}
}

// TestWALPathNotAFileIsAnError: when a related set's WAL path is a
// directory, Analyze fails with the cause instead of panicking.
func TestWALPathNotAFileIsAnError(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "group-000", "wal.log"), 0o755); err != nil {
		t.Fatal(err)
	}
	sys := &iotsan.System{
		Devices: []iotsan.Device{{ID: "l1", Model: "Smart Lock"}},
		Apps: []iotsan.AppInstance{{App: "Unlock Door", Bindings: map[string]iotsan.Binding{
			"lock1": {DeviceIDs: []string{"l1"}},
		}}},
	}
	sources := map[string]string{"Unlock Door": corpus.MustSource("Unlock Door")}
	_, err := iotsan.Analyze(sys, sources, iotsan.Options{MaxEvents: 1, Checkpoint: true, StoreDir: dir})
	if err == nil || !strings.Contains(err.Error(), "wal.log") {
		t.Fatalf("Analyze error = %v, want the WAL open error", err)
	}
}

// TestStoreDirValidatedBeforeTranslation: each option value or
// combination no search runs under is rejected up front — a deprecated
// field that is set, a negative fault or hot-tier budget, event count,
// worker count, state cap, violation cap or deadline, one that needs a
// store directory, and steal with a store other than the in-memory
// exhaustive one or with checkpointing, and a hot-tier budget on a store
// other than the tiered one, which the checker's rule refuses. The error
// wins over the unparsable source, so nothing was translated first.
func TestStoreDirValidatedBeforeTranslation(t *testing.T) {
	sys := &iotsan.System{
		Devices: []iotsan.Device{{ID: "d", Model: "Smart Switch"}},
		Apps:    []iotsan.AppInstance{{App: "Nope"}},
	}
	bad := map[string]string{"Nope": "not groovy ("}
	dir := t.TempDir()
	const noDir, steal, deprecated = "require Options.StoreDir", "steal strategy", "is deprecated and refused"
	for name, c := range map[string]struct {
		opts iotsan.Options
		want string
	}{
		"tiered":              {iotsan.Options{Store: iotsan.StoreTiered}, noDir},
		"checkpoint":          {iotsan.Options{Checkpoint: true}, noDir},
		"resume":              {iotsan.Options{Resume: true}, noDir},
		"steal-tiered":        {iotsan.Options{Strategy: iotsan.StrategySteal, Store: iotsan.StoreTiered, StoreDir: dir}, steal},
		"steal-bitstate":      {iotsan.Options{Strategy: iotsan.StrategySteal, Store: iotsan.StoreBitstate}, steal},
		"steal-checkpoint":    {iotsan.Options{Strategy: iotsan.StrategySteal, Checkpoint: true, StoreDir: dir}, steal},
		"steal-resume":        {iotsan.Options{Strategy: iotsan.StrategySteal, Resume: true, StoreDir: dir}, steal},
		"budget-exhaustive":   {iotsan.Options{MemBudget: 65536}, "memory budget"},
		"budget-bitstate":     {iotsan.Options{Store: iotsan.StoreBitstate, MemBudget: 65536}, "memory budget"},
		"properties":          {iotsan.Options{Properties: []string{"lock.main-door-when-away"}}, "Options.Properties " + deprecated},
		"bitstate-legacy":     {iotsan.Options{Bitstate: true}, "Options.Bitstate " + deprecated},
		"group-parallel":      {iotsan.Options{GroupParallel: true}, "Options.GroupParallel " + deprecated},
		"negative-max-faults": {iotsan.Options{MaxFaults: -1}, "Options.MaxFaults"},
		"negative-mem-budget": {iotsan.Options{MemBudget: -1}, "Options.MemBudget"},
		"negative-max-events": {iotsan.Options{MaxEvents: -1}, "Options.MaxEvents"},
		"negative-workers":    {iotsan.Options{Workers: -2}, "Options.Workers"},
		"negative-max-states": {iotsan.Options{MaxStatesPerSet: -1}, "Options.MaxStatesPerSet"},
		"negative-max-viols":  {iotsan.Options{MaxViolations: -1}, "Options.MaxViolations"},
		"negative-deadline":   {iotsan.Options{Deadline: -time.Second}, "Options.Deadline"},
	} {
		_, err := iotsan.Analyze(sys, bad, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Analyze error = %v, want %q", name, err, c.want)
		}
		_, err = iotsan.AnalyzeTranslated(sys, nil, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: AnalyzeTranslated error = %v, want %q", name, err, c.want)
		}
	}
}

// TestDepGraphAblation: disabling the dependency analyzer still finds
// the violation (with one big group).
func TestDepGraphAblation(t *testing.T) {
	names := []string{"Auto Mode Change", "Unlock Door", "It's Too Cold"}
	var sources []corpus.Source
	for _, n := range names {
		s, _ := corpus.ByName(n)
		sources = append(sources, s)
	}
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys := experiments.ExpertConfig("ablation", sources, apps)
	rep, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{
		MaxEvents: 2, NoDepGraph: true, MaxStatesPerSet: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 1 {
		t.Errorf("NoDepGraph should yield one group, got %d", len(rep.Groups))
	}
	// The Unlock Door flaw must surface through one of the lock
	// properties (the exact one depends on how deep the bounded search
	// gets in the larger undecomposed state space).
	found := false
	for _, p := range rep.ViolatedProperties() {
		if p == "lock.main-door-when-away" || p == "lock.all-locked-when-away" {
			found = true
		}
	}
	if !found {
		t.Errorf("ablation run missed the lock violation: %v", rep.ViolatedProperties())
	}
}
