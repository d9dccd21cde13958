package main

import (
	"strings"
	"testing"

	"iotsan"
	"iotsan/internal/corpus"
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
// when every related set was searched to the end; stopped early by the
// state cap it is inconclusive, exit 3 — never a silent "safe".
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
		return report(rep, true, &out), out.String()
	}

	if code, out := analyze(iotsan.Options{MaxEvents: 4}); code != 0 || !strings.Contains(out, "no violations detected\n") {
		t.Errorf("exhausted run: exit %d, output:\n%s", code, out)
	}

	code, out := analyze(iotsan.Options{MaxEvents: 4, MaxStatesPerSet: 50})
	const line = "inconclusive: 1 of 1 related set(s) stopped early (state cap or deadline) — no violation found within the explored part\n"
	if code != 3 || !strings.Contains(out, line) || strings.Contains(out, "no violations detected") {
		t.Errorf("run stopped at the 50-state cap: exit %d, output:\n%s", code, out)
	}
}
