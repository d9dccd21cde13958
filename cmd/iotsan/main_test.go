package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
)

// quietHome is violation-free: in three rooms a light follows a motion
// sensor.
func quietHome() (*iotsan.System, map[string]string) {
	sys := &iotsan.System{Name: "quiet-home", Modes: []string{"Home", "Away", "Night"}, Mode: "Home"}
	for _, room := range []string{"hall", "porch", "den"} {
		sys.Devices = append(sys.Devices,
			iotsan.Device{ID: room + "Motion", Model: "Motion Sensor"},
			iotsan.Device{ID: room + "Light", Model: "Smart Switch"})
		sys.Apps = append(sys.Apps, iotsan.AppInstance{App: "Light Follows Me", Bindings: map[string]iotsan.Binding{
			"motion1":  {DeviceIDs: []string{room + "Motion"}},
			"minutes1": {Value: "1"},
			"switches": {DeviceIDs: []string{room + "Light"}},
		}})
	}
	return sys, map[string]string{"Light Follows Me": corpus.MustSource("Light Follows Me")}
}

// A run that found nothing is "no violations detected", exit 0, only
// when every related set was searched to the end on an exact store;
// stopped early by the state cap, or searched on the bitstate store, it
// is inconclusive, exit 3 — never a silent "safe".
func TestReportExitStatus(t *testing.T) {
	analyze := func(opts iotsan.Options) (int, string) {
		t.Helper()
		sys, sources := quietHome()
		rep, err := iotsan.Analyze(sys, sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("the quiet home has violations: %v", rep.Violations)
		}
		var out strings.Builder
		return report(rep, opts, true, &out), out.String()
	}

	if code, out := analyze(iotsan.Options{MaxEvents: 4}); code != 0 || !strings.Contains(out, "no violations detected\n") {
		t.Errorf("exhausted run: exit %d, output:\n%s", code, out)
	}

	code, out := analyze(iotsan.Options{MaxEvents: 4, MaxStatesPerSet: 50})
	const line = "inconclusive: 1 of 1 related set(s) stopped early (state cap or deadline) — no violation found within the explored part\n"
	if code != 3 || !strings.Contains(out, line) || strings.Contains(out, "no violations detected") {
		t.Errorf("run stopped at the 50-state cap: exit %d, output:\n%s", code, out)
	}

	code, out = analyze(iotsan.Options{MaxEvents: 4, Store: iotsan.StoreBitstate})
	const supertrace = "inconclusive: the bitstate store may have skipped states (supertrace) — no violation found within the explored part\n"
	if code != 3 || !strings.Contains(out, supertrace) || strings.Contains(out, "no violations detected") || strings.Contains(out, "stopped early") {
		t.Errorf("exhausted run on the bitstate store: exit %d, output:\n%s", code, out)
	}
}

// With -apps, an app's source is its file and nothing else: a missing or
// unreadable file is an error naming the path, never the built-in corpus
// app of the same name. Without -apps the corpus serves.
func TestLoadSources(t *testing.T) {
	sys := &config.System{Apps: []config.AppInstance{{App: "Unlock Door"}}}
	dir := t.TempDir()
	path := filepath.Join(dir, "Unlock Door.groovy")

	if _, err := loadSources(dir, sys); !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), path) {
		t.Errorf("missing file: error %v, want one naming %s", err, path)
	}
	if err := os.Mkdir(path, 0o755); err != nil { // a directory: the read fails
		t.Fatal(err)
	}
	if _, err := loadSources(dir, sys); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("unreadable file: error %v, want one naming %s", err, path)
	}

	mine := t.TempDir()
	if err := os.WriteFile(filepath.Join(mine, "Unlock Door.groovy"), []byte("// mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	if src, err := loadSources(mine, sys); err != nil || src["Unlock Door"] != "// mine" {
		t.Errorf("-apps file: sources %q, error %v", src, err)
	}
	if src, err := loadSources("", sys); err != nil || src["Unlock Door"] != corpus.MustSource("Unlock Door") {
		t.Errorf("built-in corpus: error %v", err)
	}
	if _, err := loadSources("", &config.System{Apps: []config.AppInstance{{App: "Nope"}}}); err == nil {
		t.Error("an app in no corpus resolved")
	}

	// -apps may be the corpus directory itself, whose file names drop the
	// apostrophe of "It's Too Cold".
	table8, _, err := experiments.Table8System()
	if err != nil {
		t.Fatal(err)
	}
	src, err := loadSources(filepath.Join("..", "..", "internal", "corpus", "apps"), table8)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range table8.Apps {
		if src[inst.App] != corpus.MustSource(inst.App) {
			t.Errorf("%q: the corpus directory's file differs from the built-in source", inst.App)
		}
	}
}

// An app name whose -apps file would lie outside the directory, or an
// empty one, is refused before any read: loadSources names the app, and
// the command exits 2.
func TestAppNameOutsideAppsDir(t *testing.T) {
	asMain()
	parent := t.TempDir()
	dir := filepath.Join(parent, "apps")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// The escape target exists, so only the name check can refuse it.
	if err := os.WriteFile(filepath.Join(parent, "x.groovy"), []byte("// outside"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".groovy"), []byte("// no name"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../x", "", "/x", "a/../../x"} {
		sys := &config.System{Apps: []config.AppInstance{{App: name}}}
		if src, err := loadSources(dir, sys); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Errorf("app %q: sources %q, error %v, want one naming the app", name, src, err)
		}
	}

	cfg := filepath.Join(parent, "home.json")
	if err := os.WriteFile(cfg, []byte(`{"name": "h", "apps": [{"app": "../x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCommand(t, "TestAppNameOutsideAppsDir", "-config", cfg, "-apps", dir)
	if code != 2 || !strings.Contains(out, `"../x"`) {
		t.Errorf("exit %d, output:\n%s", code, out)
	}
}

// The user path equals the experiments path: an experiment system
// written out as a JSON configuration and one <name>.groovy file per
// installed app, then read back through config.Load and loadSources,
// gives the same violations and stores the same number of states as the
// in-memory system on the corpus sources.
func TestUserPathMatchesExperiments(t *testing.T) {
	plain := iotsan.Options{MaxEvents: 2, Workers: 1}
	faults := plain
	faults.Faults, faults.MaxFaults = true, 1
	type run struct {
		sys  *config.System
		opts iotsan.Options
	}
	var runs []run
	table8, _, err := experiments.Table8System()
	if err != nil {
		t.Fatal(err)
	}
	fault, _, err := experiments.FaultSystem("faults")
	if err != nil {
		t.Fatal(err)
	}
	symmetry, _, err := experiments.SymmetrySystem("symmetry")
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{table8, plain}, run{fault, faults}, run{symmetry, plain})
	for i, group := range experiments.RandomGroups(1) {
		apps, err := experiments.TranslateAll(group)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{experiments.ExpertConfig(fmt.Sprintf("group-%d", i+1), group, apps), plain})
	}

	// outcome is a report's (property, detail) list and its summed
	// StatesStored.
	outcome := func(sys *config.System, sources map[string]string, opts iotsan.Options) ([]string, int) {
		t.Helper()
		rep, err := iotsan.Analyze(sys, sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		var found []string
		for _, v := range rep.Violations {
			found = append(found, v.Property+": "+v.Detail)
		}
		stored := 0
		for _, g := range rep.Groups {
			stored += g.Result.StatesStored
		}
		return found, stored
	}

	for _, r := range runs {
		t.Run(r.sys.Name, func(t *testing.T) {
			appsDir, cfgDir := t.TempDir(), t.TempDir()
			sources := map[string]string{}
			for _, inst := range r.sys.Apps {
				sources[inst.App] = corpus.MustSource(inst.App)
				if err := os.WriteFile(filepath.Join(appsDir, inst.App+".groovy"), []byte(sources[inst.App]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := json.Marshal(r.sys)
			if err != nil {
				t.Fatal(err)
			}
			cfg := filepath.Join(cfgDir, "system.json")
			if err := os.WriteFile(cfg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := config.Load(cfg)
			if err != nil {
				t.Fatal(err)
			}
			loadedSources, err := loadSources(appsDir, loaded)
			if err != nil {
				t.Fatal(err)
			}

			want, wantStored := outcome(r.sys, sources, r.opts)
			got, gotStored := outcome(loaded, loadedSources, r.opts)
			if wantStored == 0 {
				t.Fatal("the experiments path stored no state")
			}
			t.Logf("%d violations, %d states", len(want), wantStored)
			if !slices.Equal(got, want) || gotStored != wantStored {
				t.Errorf("user path: %d states, violations %q\nexperiments path: %d states, violations %q",
					gotStored, got, wantStored, want)
			}
		})
	}
}

// asMain runs the command on the arguments after "--" when the test
// binary was re-executed by runCommand. main exits, so asMain returns
// only in an ordinary test run.
func asMain() {
	if os.Getenv("IOTSAN_MAIN") == "1" {
		os.Args = append([]string{"iotsan"}, flag.Args()...)
		flag.CommandLine = flag.NewFlagSet("iotsan", flag.ExitOnError)
		main()
	}
}

// runCommand re-executes the test binary as the command: the test named
// test, which must call asMain first, runs main on args. It returns the
// command's combined output and exit status.
func runCommand(t *testing.T, test string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^" + test + "$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "IOTSAN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// lockHome writes a one-lock system configuration into dir.
func lockHome(t *testing.T, dir string) string {
	t.Helper()
	cfg := filepath.Join(dir, "home.json")
	if err := os.WriteFile(cfg, []byte(`{"name": "h", "devices": [{"id": "l", "model": "Smart Lock"}],
		"apps": [{"app": "Unlock Door", "bindings": {"lock1": {"devices": ["l"]}}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// The command exits 2 on a missing -apps source, naming the file.
func TestMissingAppSourceExits2(t *testing.T) {
	asMain()
	dir := t.TempDir()
	out, code := runCommand(t, "TestMissingAppSourceExits2", "-config", lockHome(t, dir), "-apps", dir)
	if code != 2 || !strings.Contains(out, filepath.Join(dir, "Unlock Door.groovy")) {
		t.Errorf("exit %d, output:\n%s", code, out)
	}
}

// The command exits 2 on the steal strategy with the tiered store, a
// combination the checker refuses, and searches nothing.
func TestStealTieredExits2(t *testing.T) {
	asMain()
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	out, code := runCommand(t, "TestStealTieredExits2", "-config", lockHome(t, dir),
		"-strategy", "steal", "-store", "tiered", "-store-dir", store)
	if code != 2 || !strings.Contains(out, "steal strategy") {
		t.Errorf("exit %d, output:\n%s", code, out)
	}
	if _, err := os.Stat(store); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the refused run created its store directory (stat: %v)", err)
	}
}

// The command exits 2 on -mem-budget without -store tiered, the one
// store the budget bounds, and searches nothing.
func TestMemBudgetWithoutTieredExits2(t *testing.T) {
	asMain()
	dir := t.TempDir()
	out, code := runCommand(t, "TestMemBudgetWithoutTieredExits2", "-config", lockHome(t, dir),
		"-mem-budget", "65536")
	if code != 2 || !strings.Contains(out, "memory budget") {
		t.Errorf("exit %d, output:\n%s", code, out)
	}
}

// The command exits 2 on a negative fault budget, naming the field,
// and searches nothing.
func TestNegativeMaxFaultsExits2(t *testing.T) {
	asMain()
	dir := t.TempDir()
	out, code := runCommand(t, "TestNegativeMaxFaultsExits2", "-config", lockHome(t, dir),
		"-faults", "-max-faults", "-1")
	if code != 2 || !strings.Contains(out, "MaxFaults") {
		t.Errorf("exit %d, output:\n%s", code, out)
	}
}

// The command exits 2 on a negative event count, worker count or
// violation cap, naming the field, instead of running a default.
func TestNegativeLimitsExit2(t *testing.T) {
	asMain()
	dir := t.TempDir()
	for _, c := range []struct{ flag, field string }{
		{"-events", "MaxEvents"}, {"-workers", "Workers"}, {"-max-violations", "MaxViolations"},
	} {
		out, code := runCommand(t, "TestNegativeLimitsExit2", "-config", lockHome(t, dir), c.flag, "-2")
		if code != 2 || !strings.Contains(out, "Options."+c.field) {
			t.Errorf("%s -2: exit %d, output:\n%s", c.flag, code, out)
		}
	}
}

// A related group whose checkpoint log failed mid-run is named in a
// warning with the checkpoints it reached; the verdict is unchanged.
func TestReportWarnsOfDisarmedCheckpoints(t *testing.T) {
	rep := &iotsan.Report{Groups: []iotsan.GroupResult{
		{Apps: []string{"Unlock Door"}, Result: &checker.Result{}},
		{Apps: []string{"Auto Mode Change", "Lock It When I Leave"}, Result: &checker.Result{
			Store: checker.StoreStats{Checkpoints: 1, CheckpointErr: errors.New("checker: checkpoint 2: no space left on device")}}},
	}}
	var out strings.Builder
	code := report(rep, iotsan.Options{}, true, &out)
	const want = "warning: related group 1 (Auto Mode Change, Lock It When I Leave): checkpointing stopped after 1 checkpoint(s) and the search went on without it: checker: checkpoint 2: no space left on device\n"
	if code != 0 || !strings.Contains(out.String(), want) || strings.Count(out.String(), "warning:") != 1 {
		t.Errorf("exit %d, output:\n%s", code, out.String())
	}
}

// -resume on a store directory that holds no checkpoint searches every
// related group from the initial state and says so, group by group; the
// verdict and exit status are those of a fresh run. A run that does not
// ask to resume is not warned.
func TestReportWarnsOfFreshResume(t *testing.T) {
	sys, sources := quietHome()
	for _, resume := range []bool{true, false} {
		opts := iotsan.Options{MaxEvents: 2, Checkpoint: true, Resume: resume, StoreDir: t.TempDir()}
		rep, err := iotsan.Analyze(sys, sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		code := report(rep, opts, true, &out)
		want := 0
		if resume {
			want = len(rep.Groups)
		}
		if code != 0 || strings.Count(out.String(), "warning:") != want {
			t.Errorf("resume=%v: exit %d, want 0 and %d warning(s), output:\n%s", resume, code, want, out.String())
		}
		for i, g := range rep.Groups {
			line := fmt.Sprintf("warning: related group %d (%s): -resume found no intact checkpoint; searched from the initial state\n", i, strings.Join(g.Apps, ", "))
			if strings.Contains(out.String(), line) != resume {
				t.Errorf("resume=%v: group %d warning present=%v, output:\n%s", resume, i, !resume, out.String())
			}
		}
	}
}
