package iotsan_test

import (
	"fmt"
	"strings"
	"testing"

	"iotsan"
	"iotsan/internal/checker"
)

// TestSearchKitEquivalence: every related set Analyze verifies, its
// scheduler goroutine handing each set's visited table and memo arenas
// down to the next set it runs (searchKit), is verified exactly as when
// no set starts from what another grew — the same apps, Result
// counters, violations and trails. At one worker a single kit carries every set in group order;
// at two, each goroutine owns its own kit and the race detector checks
// that no two sets share one (CI repeats the test under it, at two
// events rather than three to keep twenty runs short). The root
// package arms the splice check, so every splice and leaf lookup is
// re-stepped.
func TestSearchKitEquivalence(t *testing.T) {
	sys, apps := multiGroupSystem(t)
	opts := iotsan.Options{MaxEvents: 3}
	if raceEnabled {
		// CI repeats the test under the race detector for the kits'
		// ownership; at two events each set is a seventh of the work.
		opts.MaxEvents = 2
	}
	want, err := iotsan.VerifyEachSetAlone(sys, apps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 3 {
		t.Fatalf("%d related sets: the test needs several per worker", len(want))
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			o := opts
			o.Workers = workers
			rep, err := iotsan.AnalyzeTranslated(sys, apps, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Groups) != len(want) {
				t.Fatalf("%d related sets, %d without hand-downs", len(rep.Groups), len(want))
			}
			for i := range want {
				if g, w := groupSummary(&rep.Groups[i]), groupSummary(&want[i]); g != w {
					t.Errorf("related set %d through the kit:\n%s\nwithout hand-downs:\n%s", i, g, w)
				}
			}
		})
	}
}

// groupSummary prints what a related set's verification found and
// counted, trails included: everything but the elapsed time.
func groupSummary(g *iotsan.GroupResult) string {
	r := g.Result
	s := fmt.Sprintf("apps %q, %d handlers, %d invariants: explored %d, matched %d, stored %d, depth %d, truncated %v, %d reserve calls\n",
		g.Apps, g.Handlers, g.InvariantCount, r.StatesExplored, r.StatesMatched, r.StatesStored, r.MaxDepthReached, r.Truncated, r.ReserveCalls())
	trails := make([]string, len(r.Violations))
	for i, f := range r.Violations {
		trails[i] = checker.FormatTrail(f)
	}
	return s + strings.Join(trails, "\n")
}
