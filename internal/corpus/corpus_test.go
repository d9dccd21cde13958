package corpus

import (
	"io/fs"
	"strings"
	"testing"

	"iotsan/internal/smartapp"
)

// TestEveryAppTranslates is the corpus gate: every app must parse,
// translate, and register at least one subscription or schedule.
func TestEveryAppTranslates(t *testing.T) {
	for _, s := range Apps() {
		app, err := smartapp.Translate(s.Groovy)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if app.Name != s.Name {
			t.Errorf("%s: definition name %q differs from corpus key", s.Name, app.Name)
		}
		if len(app.Subscriptions)+len(app.Schedules) == 0 {
			t.Errorf("%s: no subscriptions or schedules extracted", s.Name)
		}
		if len(app.Inputs) == 0 {
			t.Errorf("%s: no inputs extracted", s.Name)
		}
	}
}

// TestCorpusShape checks the corpus matches the paper's evaluation
// inventory: 150 market apps in six groups of 25, and 9 malicious apps;
// and that the manifest and the embedded files match exactly: one file
// per app, no orphan, names distinct even where case is ignored.
func TestCorpusShape(t *testing.T) {
	if n := len(Apps()); n != 177 {
		t.Errorf("corpus apps = %d, want 177", n)
	}
	want := map[string]bool{}
	folded := map[string]string{}
	for _, e := range manifest {
		want[FileName(e.name)] = true
		if other, dup := folded[strings.ToLower(e.name)]; dup {
			t.Errorf("apps %q and %q differ only in case", other, e.name)
		}
		folded[strings.ToLower(e.name)] = e.name
	}
	embedded, err := fs.ReadDir(files, "apps")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range embedded {
		if !want[f.Name()] {
			t.Errorf("apps/%s: no manifest entry", f.Name())
		}
		delete(want, f.Name())
	}
	for name := range want {
		t.Errorf("apps/%s: manifest entry without a file", name)
	}
	if len(embedded) != len(manifest) {
		t.Errorf("%d embedded files for %d manifest entries", len(embedded), len(manifest))
	}
	for _, name := range []string{"Everyone's Gone", "I'm Back", "It's Too Cold", "It's Too Hot"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("%s missing", name)
		}
	}

	market := WithTag(TagMarket)
	if len(market) != 150 {
		t.Errorf("market apps = %d, want 150", len(market))
	}
	for g := 1; g <= 6; g++ {
		if n := len(Group(g)); n != 25 {
			t.Errorf("group %d = %d apps, want 25", g, n)
		}
	}
	if n := len(WithTag(TagMalicious)); n != 9 {
		t.Errorf("malicious apps = %d, want 9", n)
	}
	if n := len(WithTag(TagBad)); n != 11 {
		t.Errorf("bad-tagged market apps = %d, want 11", n)
	}
	if n := len(WithTag(TagGood)); n < 10 {
		t.Errorf("good-tagged market apps = %d, want >= 10", n)
	}
}

// TestEveryHandlerAnalyzable: handler analysis yields input events for
// every handler of every corpus app.
func TestEveryHandlerAnalyzable(t *testing.T) {
	for _, s := range Apps() {
		app, err := smartapp.Translate(s.Groovy)
		if err != nil {
			continue // reported by TestEveryAppTranslates
		}
		for _, hi := range smartapp.AnalyzeHandlers(app) {
			if len(hi.Inputs) == 0 {
				t.Errorf("%s/%s: no input events", s.Name, hi.Handler)
			}
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("Virtual Thermostat"); !ok {
		t.Error("Virtual Thermostat missing")
	}
	if _, ok := ByName("no such app"); ok {
		t.Error("unexpected hit")
	}
}
