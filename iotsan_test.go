package iotsan_test

import (
	"strings"
	"testing"

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

// TestStoreDirValidatedBeforeTranslation: each option combination that
// needs a store directory is rejected up front — the store error wins
// over the unparsable source, so nothing was translated first.
func TestStoreDirValidatedBeforeTranslation(t *testing.T) {
	sys := &iotsan.System{
		Devices: []iotsan.Device{{ID: "d", Model: "Smart Switch"}},
		Apps:    []iotsan.AppInstance{{App: "Nope"}},
	}
	bad := map[string]string{"Nope": "not groovy ("}
	for name, opts := range map[string]iotsan.Options{
		"tiered":     {Store: iotsan.StoreTiered},
		"checkpoint": {Checkpoint: true},
		"resume":     {Resume: true},
	} {
		_, err := iotsan.Analyze(sys, bad, opts)
		if err == nil || !strings.Contains(err.Error(), "require Options.StoreDir") {
			t.Errorf("%s: Analyze error = %v, want the store-directory error", name, err)
		}
		_, err = iotsan.AnalyzeTranslated(sys, nil, opts)
		if err == nil || !strings.Contains(err.Error(), "require Options.StoreDir") {
			t.Errorf("%s: AnalyzeTranslated error = %v, want the store-directory error", name, err)
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
