package groovy

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"iotsan/internal/corpus"
)

// TestParseScriptTokenPool: parses share token buffers through
// tokenBufs, so four goroutines parsing the whole corpus at once — each
// GString interpolation a nested parse while its outer parse holds a
// buffer — must build exactly the ASTs a sequential parse builds. Run
// it under -race: a buffer handed to two parses at once is a data race
// as well as a wrong AST.
//
// A warmed pass over the corpus must also allocate no token slice: the
// budget sits well below the 2.2 MB that one presized slice per app
// (what Tokenize allocates) would add to the parser's own 1.1 MB.
func TestParseScriptTokenPool(t *testing.T) {
	apps := corpus.Apps()
	want := make([]*Script, len(apps))
	interps := 0
	for i, app := range apps {
		s, err := ParseScript(app.Groovy)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		want[i] = s
		Walk(s, func(n Node) bool {
			if g, ok := n.(*GStringLit); ok {
				interps += len(g.Exprs)
			}
			return true
		})
	}
	if interps == 0 {
		t.Fatal("the corpus parsed no GString interpolation: the nested parse went untested")
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker starts at its own offset, so different apps
			// (and buffer sizes) are in flight at once.
			for k := range apps {
				i := (k + w*len(apps)/workers) % len(apps)
				got, err := ParseScript(apps[i].Groovy)
				if err != nil {
					t.Errorf("worker %d: %s: %v", w, apps[i].Name, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d: %s parses to another AST than the sequential parse", w, apps[i].Name)
				}
			}
		}()
	}
	wg.Wait()

	if raceEnabled {
		return
	}
	// Taken as testing.AllocsPerRun takes its count: one P, a warm-up
	// pass, then the mean of several.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass := func() {
		for _, app := range apps {
			if _, err := ParseScript(app.Groovy); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		pass()
	}
	runtime.ReadMemStats(&after)
	perPass := (after.TotalAlloc - before.TotalAlloc) / runs
	const budget = 1_500_000
	t.Logf("ParseScript over %d apps: %d bytes a warmed pass", len(apps), perPass)
	if perPass > budget {
		t.Errorf("ParseScript over the corpus allocates %d bytes a pass, want <= %d: are token buffers pooled?", perPass, budget)
	}
}
