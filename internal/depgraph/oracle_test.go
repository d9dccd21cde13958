package depgraph_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"iotsan"
	"iotsan/internal/corpus"
	"iotsan/internal/depgraph"
	"iotsan/internal/experiments"
	"iotsan/internal/smartapp"
)

// TestRelatedSetsOracle: InitialSets, ConflictSets and FinalSets equal
// the map-and-string-key algorithm below on every market group of
// splits 1–3 (split 1 is Table 7a's) and on the paper's Table 2 apps,
// and so do the Table 7a rows derived from them.
func TestRelatedSetsOracle(t *testing.T) {
	type input struct {
		name     string
		handlers []smartapp.HandlerInfo
	}
	var inputs []input
	var table2 []smartapp.HandlerInfo
	for _, name := range []string{"Brighten Dark Places", "Let There Be Dark!",
		"Auto Mode Change", "Unlock Door", "Big Turn On"} {
		table2 = append(table2, translateHandlers(t, corpus.Source{Name: name, Groovy: corpus.MustSource(name)})...)
	}
	inputs = append(inputs, input{"table2", table2})
	for split := int64(1); split <= 3; split++ {
		for gi, group := range experiments.RandomGroups(split) {
			var hs []smartapp.HandlerInfo
			for _, src := range group {
				hs = append(hs, translateHandlers(t, src)...)
			}
			inputs = append(inputs, input{fmt.Sprintf("split%d/group%d", split, gi+1), hs})
		}
	}
	for _, in := range inputs {
		g := depgraph.Build(in.handlers)
		initial := g.InitialSets()
		if got, want := ids(initial), ids(refInitialSets(g)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: InitialSets = %v, want %v", in.name, got, want)
		}
		if got, want := ids(g.ConflictSets(initial)), ids(refConflictSets(g, initial)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ConflictSets = %v, want %v", in.name, got, want)
		}
		final := g.FinalSets()
		if got, want := ids(final), ids(refFinalSets(g)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: FinalSets = %v, want %v", in.name, got, want)
		}
		if got, want := g.Scale(final), refScale(g); got != want {
			t.Errorf("%s: Scale = %+v, want %+v", in.name, got, want)
		}
	}

	rows, _, err := experiments.RunTable7a()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		h := inputs[1+i].handlers // split 1, group i+1
		want := refScale(depgraph.Build(h))
		if row.OriginalSize != want.OriginalSize || row.NewSize != want.NewSize {
			t.Errorf("Table 7a group %d = %d/%d, want %d/%d", row.Group,
				row.OriginalSize, row.NewSize, want.OriginalSize, want.NewSize)
		}
	}
}

// TestReportScale: the Report.Scale that Analyze derives from the sets it
// groups by equals depgraph.Scale over the installed handlers, on every
// market system of split 1.
func TestReportScale(t *testing.T) {
	for i, group := range experiments.RandomGroups(1) {
		apps, err := experiments.TranslateAll(group)
		if err != nil {
			t.Fatal(err)
		}
		sys := experiments.ExpertConfig(fmt.Sprintf("market-%d", i+1), group, apps)
		var handlers []smartapp.HandlerInfo
		for _, inst := range sys.Apps {
			handlers = append(handlers, smartapp.AnalyzeHandlers(apps[inst.App])...)
		}
		rep, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{MaxEvents: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := depgraph.Scale(handlers); rep.Scale != want {
			t.Errorf("%s: Report.Scale = %+v, want %+v", sys.Name, rep.Scale, want)
		}
	}
}

func translateHandlers(t *testing.T, src corpus.Source) []smartapp.HandlerInfo {
	t.Helper()
	app, err := smartapp.Translate(src.Groovy)
	if err != nil {
		t.Fatalf("translate %s: %v", src.Name, err)
	}
	return smartapp.AnalyzeHandlers(app)
}

func ids(sets []depgraph.RelatedSet) [][]int {
	out := make([][]int, len(sets))
	for i, s := range sets {
		out[i] = s.VertexIDs
	}
	return out
}

// The reference algorithm: ancestor maps, map unions per conflicting
// pair, and deduplication on printed keys.

func refInitialSets(g *depgraph.Graph) []depgraph.RelatedSet {
	var sets []depgraph.RelatedSet
	for _, v := range g.Vertices {
		if len(v.Children) > 0 {
			continue
		}
		anc := map[int]bool{v.ID: true}
		var climb func(id int)
		climb = func(id int) {
			for _, p := range g.Vertices[id].Parents {
				if !anc[p] {
					anc[p] = true
					climb(p)
				}
			}
		}
		climb(v.ID)
		sets = append(sets, depgraph.RelatedSet{VertexIDs: sortedKeys(anc)})
	}
	sort.Slice(sets, func(i, j int) bool { return refLess(sets[i].VertexIDs, sets[j].VertexIDs) })
	return sets
}

func refConflictSets(g *depgraph.Graph, initial []depgraph.RelatedSet) []depgraph.RelatedSet {
	var out []depgraph.RelatedSet
	for u := 0; u < len(g.Vertices); u++ {
		for v := u + 1; v < len(g.Vertices); v++ {
			if !refConflicts(g.Vertices[u].Outputs, g.Vertices[v].Outputs) {
				continue
			}
			union := map[int]bool{}
			for _, rs := range initial {
				if refContains(rs, u) || refContains(rs, v) {
					for _, id := range rs.VertexIDs {
						union[id] = true
					}
				}
			}
			if len(union) == 0 {
				continue
			}
			out = append(out, depgraph.RelatedSet{VertexIDs: sortedKeys(union)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return refLess(out[i].VertexIDs, out[j].VertexIDs) })
	return refDedupe(out)
}

func refFinalSets(g *depgraph.Graph) []depgraph.RelatedSet {
	initial := refInitialSets(g)
	all := refDedupe(append(append([]depgraph.RelatedSet{}, initial...), refConflictSets(g, initial)...))
	var out []depgraph.RelatedSet
	for i, rs := range all {
		subsumed := false
		for j, other := range all {
			if i == j {
				continue
			}
			if refSubset(rs, other) && (len(rs.VertexIDs) < len(other.VertexIDs) || j < i) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, rs)
		}
	}
	sort.Slice(out, func(i, j int) bool { return refLess(out[i].VertexIDs, out[j].VertexIDs) })
	return out
}

func refScale(g *depgraph.Graph) depgraph.ScaleStats {
	var stats depgraph.ScaleStats
	for _, v := range g.Vertices {
		stats.OriginalSize += len(v.Handlers)
	}
	for _, rs := range refFinalSets(g) {
		size := 0
		for _, id := range rs.VertexIDs {
			size += len(g.Vertices[id].Handlers)
		}
		stats.NewSize = max(stats.NewSize, size)
	}
	return stats
}

func refConflicts(a, b []smartapp.EventSig) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Conflicts(y) {
				return true
			}
		}
	}
	return false
}

func refContains(rs depgraph.RelatedSet, id int) bool {
	for _, v := range rs.VertexIDs {
		if v == id {
			return true
		}
	}
	return false
}

func refSubset(rs, other depgraph.RelatedSet) bool {
	if len(rs.VertexIDs) > len(other.VertexIDs) {
		return false
	}
	for _, v := range rs.VertexIDs {
		if !refContains(other, v) {
			return false
		}
	}
	return true
}

func refDedupe(in []depgraph.RelatedSet) []depgraph.RelatedSet {
	seen := map[string]bool{}
	var out []depgraph.RelatedSet
	for _, rs := range in {
		parts := make([]string, len(rs.VertexIDs))
		for i, v := range rs.VertexIDs {
			parts[i] = fmt.Sprint(v)
		}
		k := "{" + strings.Join(parts, ", ") + "}"
		if !seen[k] {
			seen[k] = true
			out = append(out, rs)
		}
	}
	return out
}

func refLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
