package ifttt

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/smartapp"
)

func TestParseApplets(t *testing.T) {
	data := []byte(`[
		{"name":"r1","trigger":{"service":"smartthings","device":"m1","event":"motion.active"},
		 "action":{"service":"hue","device":"l1","command":"on"}}
	]`)
	apps, err := ParseApplets(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 || apps[0].Trigger.Event != "motion.active" {
		t.Errorf("parsed: %+v", apps)
	}
	if _, err := ParseApplets([]byte(`[{"name":""}]`)); err == nil {
		t.Error("expected error for incomplete applet")
	}
}

func TestToGroovyTranslates(t *testing.T) {
	for _, a := range Table9Applets() {
		src := ToGroovy(a)
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Errorf("%s: %v\n%s", a.Name, err, src)
			continue
		}
		if len(app.Subscriptions) != 1 {
			t.Errorf("%s: %d subscriptions, want 1", a.Name, len(app.Subscriptions))
		}
	}
}

func TestBuildSystem(t *testing.T) {
	sys, apps, err := BuildSystem(Table9Applets())
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Apps) != 10 || len(apps) != 10 {
		t.Errorf("apps = %d/%d, want 10", len(sys.Apps), len(apps))
	}
	if len(sys.Devices) == 0 {
		t.Error("no devices created")
	}
}

// TestTable9 pins the IFTTT validation run (§11) at 2 and 3 events:
// the state counts, the violations and every counter-example trail, as
// checker.FormatTrail renders them. All four unsafe physical states of
// Table 9 are violated at both depths.
//
// testdata/table9.golden was written once from this loop's output at the
// commit where the four properties were still evaluated per state on
// the model's device view, before they became formulas over an atom
// table. A mismatch means the search or a property changed; a change
// that moves a count on purpose regenerates the file and lists each
// moved line, old → new, with its cause, in CHANGES.md.
func TestTable9(t *testing.T) {
	var got strings.Builder
	for _, events := range []int{2, 3} {
		res, err := RunTable9(events)
		if err != nil {
			t.Fatal(err)
		}
		r := res.Result
		fmt.Fprintf(&got, "events %d: explored %d matched %d stored %d truncated %v violations %d properties %s\n",
			events, r.StatesExplored, r.StatesMatched, r.StatesStored, r.Truncated, res.Violations, strings.Join(res.ViolatedProperties, ","))
		for _, f := range r.Violations {
			got.WriteString(checker.FormatTrail(f))
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "table9.golden"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs from the golden run\n got %q\nwant %q", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, the golden run %d", len(gotLines), len(wantLines))
	}
}
