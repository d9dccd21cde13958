package groovy

import (
	"testing"

	"iotsan/internal/corpus"
)

// TestTokenizeAllocBudget pins Tokenize's allocations over the corpus:
// one token slice per app, sized from the source, and string literals
// sliced from the source unless an escape forces a copy.
func TestTokenizeAllocBudget(t *testing.T) {
	apps := corpus.Apps()
	allocs := testing.AllocsPerRun(5, func() {
		for _, app := range apps {
			if _, err := Tokenize(app.Groovy); err != nil {
				t.Fatal(err)
			}
		}
	})
	const budget = 284
	t.Logf("Tokenize over %d apps: %.0f allocs", len(apps), allocs)
	if allocs > budget {
		t.Errorf("Tokenize over the corpus allocates %.0f times, want <= %d", allocs, budget)
	}
}
