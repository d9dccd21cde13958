// Benchmarks regenerating every table and figure of the paper's
// evaluation (§10-§11). Each benchmark prints the reproduced rows next
// to the paper's numbers; absolute times differ (different machine and
// checker), but the shapes must hold. Run:
//
//	go test -bench=. -benchmem
package iotsan_test

import (
	"fmt"
	"testing"
	"time"

	"iotsan"
	"iotsan/internal/checker"
	"iotsan/internal/corpus"
	"iotsan/internal/depgraph"
	"iotsan/internal/experiments"
	"iotsan/internal/ifttt"
	"iotsan/internal/model"
	"iotsan/internal/smartapp"
)

// BenchmarkFig4RelatedSets regenerates the dependency-graph example of
// Figure 4 / Tables 2-3 from the five named apps.
func BenchmarkFig4RelatedSets(b *testing.B) {
	names := []string{"Brighten Dark Places", "Let There Be Dark!",
		"Auto Mode Change", "Unlock Door", "Big Turn On"}
	var handlers []smartapp.HandlerInfo
	for _, n := range names {
		app, err := smartapp.Translate(corpus.MustSource(n))
		if err != nil {
			b.Fatal(err)
		}
		handlers = append(handlers, smartapp.AnalyzeHandlers(app)...)
	}
	var final []depgraph.RelatedSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := depgraph.Build(handlers)
		final = g.FinalSets()
	}
	b.StopTimer()
	b.Logf("final related sets (paper: {3} {2,4} {0,1} {1,5} {1,2,6}): %v", final)
}

// BenchmarkFig7Trail regenerates the Figure 7 counter-example: Alice's
// home with Auto Mode Change and Unlock Door.
func BenchmarkFig7Trail(b *testing.B) {
	sources := map[string]string{
		"Auto Mode Change": corpus.MustSource("Auto Mode Change"),
		"Unlock Door":      corpus.MustSource("Unlock Door"),
	}
	sys := &iotsan.System{
		Name: "alice-home", Modes: []string{"Home", "Away", "Night"}, Mode: "Home",
		Devices: []iotsan.Device{
			{ID: "alicePresence", Label: "Alice's Presence", Model: "Presence Sensor"},
			{ID: "doorLock", Label: "Door Lock", Model: "Smart Lock", Association: "main door"},
		},
		Apps: []iotsan.AppInstance{
			{App: "Auto Mode Change", Bindings: map[string]iotsan.Binding{
				"people":   {DeviceIDs: []string{"alicePresence"}},
				"awayMode": {Value: "Away"},
				"homeMode": {Value: "Home"},
			}},
			{App: "Unlock Door", Bindings: map[string]iotsan.Binding{
				"lock1": {DeviceIDs: []string{"doorLock"}},
			}},
		},
	}
	var rep *iotsan.Report
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = iotsan.Analyze(sys, sources, iotsan.Options{MaxEvents: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, v := range rep.Violations {
		if v.Property == "lock.main-door-when-away" {
			b.Logf("violation log (cf. Fig. 7):\n%s", checker.FormatTrail(v))
			break
		}
	}
}

// BenchmarkTable5MarketApps regenerates Table 5: market apps with expert
// configurations, iterative remove-and-repeat, plus failure runs.
// Paper: 8 conflicting + 10 repeated + 20 unsafe = 38 violations of 11
// properties; failures add 9 properties.
func BenchmarkTable5MarketApps(b *testing.B) {
	var res *experiments.Table5Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunTable5(iotsan.Options{}, 2, []int{1, 2, 3, 4, 5, 6})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	names := []string{"conflicting", "repeated", "unsafe-physical"}
	for i, row := range res.Rows {
		b.Logf("Table 5 row %-16s violations=%d properties=%d", names[i], row.Violations, row.Properties)
	}
	b.Logf("total violations=%d distinct properties=%d (paper: 38 of 11)",
		res.TotalViolations, res.Properties)
	b.Logf("failure-only properties=%d (paper: 9 additional)", res.FailureExtraProperties)
	b.ReportMetric(float64(res.TotalViolations), "violations")
	b.ReportMetric(float64(res.Properties), "properties")
}

// BenchmarkTable6Volunteers regenerates Table 6: 10 groups × 7
// volunteer configurations. Paper: 19 conflicting + 12 repeated + 66
// unsafe = 97 violations of 10 properties.
func BenchmarkTable6Volunteers(b *testing.B) {
	var res *experiments.Table6Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunTable6(iotsan.Options{}, 2, 7, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	names := []string{"conflicting", "repeated", "unsafe-physical"}
	for i, row := range res.Rows {
		b.Logf("Table 6 row %-16s violations=%d properties=%d", names[i], row.Violations, row.Properties)
	}
	b.Logf("total violations=%d across %d configurations (paper: 97 in 70 configs)",
		res.TotalViolations, res.Configurations)
	b.ReportMetric(float64(res.TotalViolations), "violations")
}

// BenchmarkTable7aScaleRatio regenerates Table 7a: the dependency
// analyzer's problem-size reduction per random group. Paper mean: 3.4x.
func BenchmarkTable7aScaleRatio(b *testing.B) {
	var rows []experiments.Table7aRow
	var mean float64
	var err error
	for i := 0; i < b.N; i++ {
		rows, mean, err = experiments.RunTable7a()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		b.Logf("group %d: original=%d new=%d ratio=%.1f", r.Group, r.OriginalSize, r.NewSize, r.Ratio)
	}
	b.Logf("mean scale ratio=%.1f (paper: 3.4)", mean)
	b.ReportMetric(mean, "scale-ratio")
}

// BenchmarkTable7bConcurrentVsSequential regenerates Table 7b: the
// concurrent design explodes with event count while the sequential
// design stays flat (paper: 139m at 3 events, "forever" at 4+ vs <=16.3s
// sequential at 7).
func BenchmarkTable7bConcurrentVsSequential(b *testing.B) {
	var rows []experiments.Table7bRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunTable7b(iotsan.Options{}, []int{1, 2, 3, 4}, 120000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		cap := ""
		if r.ConcurrentCap {
			cap = " (state cap hit — the paper's `forever`)"
		}
		b.Logf("events=%d concurrent: states=%-8d %-12v%s | sequential: states=%-6d %v",
			r.Events, r.ConcurrentStates, r.ConcurrentTime.Round(time.Millisecond), cap,
			r.SequentialStates, r.SequentialTime.Round(time.Millisecond))
	}
	if n := len(rows); n >= 2 {
		growth := float64(rows[n-1].ConcurrentStates) / float64(rows[0].ConcurrentStates+1)
		b.ReportMetric(growth, "concurrent-growth")
	}
}

// BenchmarkTable8VerificationTime regenerates Table 8: sequential
// verification time versus event count for a 5-app violation-free
// system (paper: 6.61s at 6 events to 23.39h at 11 — exponential).
func BenchmarkTable8VerificationTime(b *testing.B) {
	var rows []experiments.Table8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunTable8(iotsan.Options{}, []int{3, 4, 5, 6}, 400_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var prev float64
	for _, r := range rows {
		growth := ""
		if prev > 0 {
			growth = fmt.Sprintf(" (%.1fx states of previous)", float64(r.States)/prev)
		}
		b.Logf("events=%d states=%d time=%v%s", r.Events, r.States,
			r.Elapsed.Round(time.Millisecond), growth)
		prev = float64(r.States)
	}
}

// BenchmarkTable9IFTTT regenerates Table 9: the IFTTT validation set.
// Paper: 7 violations of 4 unsafe physical states from 10 rules.
func BenchmarkTable9IFTTT(b *testing.B) {
	var res *ifttt.Table9Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ifttt.RunTable9(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("violated properties=%d (paper: 4): %v", len(res.ViolatedProperties), res.ViolatedProperties)
	b.ReportMetric(float64(len(res.ViolatedProperties)), "properties")
}

// BenchmarkAttribution regenerates §10.3: the Output Analyzer attributes
// the 9 ContexIoT-style malicious apps (paper: 9/9 at 100% ratio), the
// 11 bad market apps, and 10 good apps.
func BenchmarkAttribution(b *testing.B) {
	var rows []experiments.AttributionRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunAttribution(iotsan.Options{}, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	malTotal, malCaught := 0, 0
	for _, r := range rows {
		b.Logf("%-28s tag=%-10s verdict=%-22s phase1=%.0f%% phase2=%.0f%%",
			r.App, r.Tag, r.Verdict, r.Ratio1*100, r.Ratio2*100)
		if r.Tag == corpus.TagMalicious {
			malTotal++
			if r.Verdict == 3 /* attribution.Malicious */ {
				malCaught++
			}
		}
	}
	b.Logf("malicious attribution accuracy: %d/%d (paper: 9/9)", malCaught, malTotal)
	b.ReportMetric(float64(malCaught)/float64(max(1, malTotal)), "malicious-accuracy")
}

// BenchmarkAblationNoDepGraph quantifies the related-set optimisation
// (DESIGN.md ablation 2): verification with and without dependency-graph
// decomposition on one market group.
func BenchmarkAblationNoDepGraph(b *testing.B) {
	sources := experiments.RandomGroups(1)[0]
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		b.Fatal(err)
	}
	sys := experiments.ExpertConfig("ablation", sources, apps)
	states := map[bool]int{}
	for i := 0; i < b.N; i++ {
		for _, noDG := range []bool{false, true} {
			rep, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{
				MaxEvents: 2, NoDepGraph: noDG,
				MaxStatesPerSet: 150000, Deadline: 15 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			total := 0
			for _, g := range rep.Groups {
				total += g.Result.StatesExplored
			}
			states[noDG] = total
		}
	}
	b.StopTimer()
	b.Logf("states with depgraph=%d, without=%d", states[false], states[true])
}

// BenchmarkAblationBitstate compares the exhaustive hash store against
// Spin-style BITSTATE hashing (DESIGN.md ablation 3).
func BenchmarkAblationBitstate(b *testing.B) {
	sources := []corpus.Source{}
	for _, n := range []string{"Auto Mode Change", "Unlock Door", "Make It So", "Good Night"} {
		s, _ := corpus.ByName(n)
		sources = append(sources, s)
	}
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		b.Fatal(err)
	}
	sys := experiments.ExpertConfig("bitstate", sources, apps)
	results := map[bool]*checker.Result{}
	for i := 0; i < b.N; i++ {
		for _, bit := range []bool{false, true} {
			invs := []model.Invariant{}
			m, err := model.New(sys, apps, model.Options{MaxEvents: 3, CheckConflicts: true, Invariants: invs})
			if err != nil {
				b.Fatal(err)
			}
			opts := checker.Options{MaxDepth: 16, MaxStates: 500000}
			if bit {
				opts.Store = checker.Bitstate
				opts.BitstateBits = 22
			}
			results[bit] = checker.Run(m.System(), opts)
		}
	}
	b.StopTimer()
	b.Logf("exhaustive: explored=%d stored=%d matched=%d",
		results[false].StatesExplored, results[false].StatesStored, results[false].StatesMatched)
	b.Logf("bitstate:   explored=%d stored=%d matched=%d",
		results[true].StatesExplored, results[true].StatesStored, results[true].StatesMatched)
}
