package model_test

import (
	"testing"

	"iotsan/internal/experiments"
	"iotsan/internal/model"
	"iotsan/internal/smartapp"
)

// TestBuildAllocBudget pins Plan.Build's allocations for the first market
// system of split 1 with every app installed, under the options the
// facade passes: the device events, their labels and the timer labels
// come from Prepare and PrepareApp, so Build allocates for its own
// tables only.
func TestBuildAllocBudget(t *testing.T) {
	group := experiments.RandomGroups(1)[0]
	apps, err := experiments.TranslateAll(group)
	if err != nil {
		t.Fatal(err)
	}
	sys := experiments.ExpertConfig("market-1", group, apps)
	p, err := model.Prepare(sys)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := p.PrepareApps(sys.Apps, apps, false)
	if err != nil {
		t.Fatal(err)
	}
	relevant := map[string]bool{"presence": true}
	for _, inst := range sys.Apps {
		for _, hi := range smartapp.AnalyzeHandlers(apps[inst.App]) {
			for _, in := range hi.Inputs {
				relevant[in.Attr] = true
			}
		}
	}
	opts := model.Options{MaxEvents: 1, CheckConflicts: true, RelevantAttrs: relevant, Incremental: true}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.Build(insts, opts); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 105
	t.Logf("Plan.Build: %.0f allocs", allocs)
	if allocs > budget {
		t.Errorf("Plan.Build allocates %.0f times, want <= %d", allocs, budget)
	}
}
