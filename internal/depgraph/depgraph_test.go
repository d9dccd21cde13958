package depgraph

import (
	"reflect"
	"testing"

	"iotsan/internal/corpus"
	"iotsan/internal/smartapp"
)

// table2Handlers translates the five apps of the paper's Table 2 and
// returns their handler infos in the table's vertex order:
//
//	0 Brighten Dark Places / contactOpenHandler
//	1 Let There Be Dark!   / contactHandler
//	2 Auto Mode Change     / presenceHandler
//	3 Unlock Door          / appTouch
//	4 Unlock Door          / changedLocationMode
//	5 Big Turn On          / appTouch
//	6 Big Turn On          / changedLocationMode
func table2Handlers(t *testing.T) []smartapp.HandlerInfo {
	t.Helper()
	order := []struct{ app, handler string }{
		{"Brighten Dark Places", "contactOpenHandler"},
		{"Let There Be Dark!", "contactHandler"},
		{"Auto Mode Change", "presenceHandler"},
		{"Unlock Door", "appTouch"},
		{"Unlock Door", "changedLocationMode"},
		{"Big Turn On", "appTouch"},
		{"Big Turn On", "changedLocationMode"},
	}
	byKey := map[string]smartapp.HandlerInfo{}
	for _, name := range []string{"Brighten Dark Places", "Let There Be Dark!",
		"Auto Mode Change", "Unlock Door", "Big Turn On"} {
		app, err := smartapp.Translate(corpus.MustSource(name))
		if err != nil {
			t.Fatalf("translate %s: %v", name, err)
		}
		for _, hi := range smartapp.AnalyzeHandlers(app) {
			byKey[app.Name+"/"+hi.Handler] = hi
		}
	}
	out := make([]smartapp.HandlerInfo, 0, len(order))
	for _, o := range order {
		hi, ok := byKey[o.app+"/"+o.handler]
		if !ok {
			t.Fatalf("missing handler %s/%s", o.app, o.handler)
		}
		out = append(out, hi)
	}
	return out
}

func setsOf(sets []RelatedSet) [][]int {
	out := make([][]int, len(sets))
	for i, s := range sets {
		out[i] = s.VertexIDs
	}
	return out
}

// TestFigure4DependencyGraph verifies the edges of the paper's Figure 4a:
// the only edges are 2→4 and 2→6.
func TestFigure4DependencyGraph(t *testing.T) {
	g := Build(table2Handlers(t))
	if len(g.Vertices) != 7 {
		t.Fatalf("vertices = %d, want 7", len(g.Vertices))
	}
	wantChildren := map[int][]int{2: {4, 6}}
	for _, v := range g.Vertices {
		want := wantChildren[v.ID]
		if !reflect.DeepEqual(v.Children, want) && !(len(v.Children) == 0 && len(want) == 0) {
			t.Errorf("vertex %d children = %v, want %v", v.ID, v.Children, want)
		}
	}
}

// TestTable3aInitialSets verifies the initial related sets: {0} {1} {3}
// {5} {2,4} {2,6}.
func TestTable3aInitialSets(t *testing.T) {
	g := Build(table2Handlers(t))
	got := setsOf(g.InitialSets())
	want := [][]int{{0}, {1}, {2, 4}, {2, 6}, {3}, {5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("initial sets = %v, want %v", got, want)
	}
}

// TestTable3bConflictSets verifies the conflict-merged sets: {0,1}
// {1,5} {1,2,6}.
func TestTable3bConflictSets(t *testing.T) {
	g := Build(table2Handlers(t))
	got := setsOf(g.ConflictSets(g.InitialSets()))
	want := [][]int{{0, 1}, {1, 2, 6}, {1, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("conflict sets = %v, want %v", got, want)
	}
}

// TestTable3cFinalSets verifies the final related sets handed to the
// model checker: {3} {2,4} {0,1} {1,5} {1,2,6}.
func TestTable3cFinalSets(t *testing.T) {
	g := Build(table2Handlers(t))
	got := setsOf(g.FinalSets())
	want := [][]int{{0, 1}, {1, 2, 6}, {1, 5}, {2, 4}, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("final sets = %v, want %v", got, want)
	}
}

func TestSCCMerge(t *testing.T) {
	// Two handlers that feed each other must merge into one composite
	// vertex: A outputs switch/on and consumes mode; B consumes switch
	// and outputs mode changes.
	a := smartapp.HandlerInfo{
		Handler: "a",
		Inputs:  []smartapp.EventSig{{Attr: "mode"}},
		Outputs: []smartapp.EventSig{{Attr: "switch", Value: "on"}},
	}
	b := smartapp.HandlerInfo{
		Handler: "b",
		Inputs:  []smartapp.EventSig{{Attr: "switch"}},
		Outputs: []smartapp.EventSig{{Attr: "mode"}},
	}
	g := Build([]smartapp.HandlerInfo{a, b})
	if len(g.Vertices) != 1 {
		t.Fatalf("vertices = %d, want 1 composite", len(g.Vertices))
	}
	if len(g.Vertices[0].Handlers) != 2 {
		t.Errorf("composite handlers = %d, want 2", len(g.Vertices[0].Handlers))
	}
}

func TestScaleStats(t *testing.T) {
	handlers := table2Handlers(t)
	s := Scale(handlers)
	if s.OriginalSize != 7 {
		t.Errorf("original = %d, want 7", s.OriginalSize)
	}
	// Largest final set is {1,2,6} → 3 handlers.
	if s.NewSize != 3 {
		t.Errorf("new = %d, want 3", s.NewSize)
	}
	if r := s.Ratio(); r < 2.3 || r > 2.4 {
		t.Errorf("ratio = %v, want 7/3", r)
	}
}

func TestDisjointAppsStayApart(t *testing.T) {
	// A thermostat app and a presence app share no events: two related
	// sets, no merging.
	a := smartapp.HandlerInfo{
		Handler: "temp",
		Inputs:  []smartapp.EventSig{{Attr: "temperature"}},
		Outputs: []smartapp.EventSig{{Attr: "switch", Value: "on"}},
	}
	b := smartapp.HandlerInfo{
		Handler: "presence",
		Inputs:  []smartapp.EventSig{{Attr: "presence"}},
		Outputs: []smartapp.EventSig{{Attr: "lock", Value: "locked"}},
	}
	g := Build([]smartapp.HandlerInfo{a, b})
	final := g.FinalSets()
	if len(final) != 2 {
		t.Errorf("final sets = %v, want 2 singletons", setsOf(final))
	}
}

func TestTimerEventsAreAppScoped(t *testing.T) {
	// Two different apps using runIn must not become related through
	// their timers.
	a := smartapp.HandlerInfo{
		Handler: "h1",
		Inputs:  []smartapp.EventSig{{Attr: "time:App A/h1"}},
		Outputs: []smartapp.EventSig{{Attr: "switch", Value: "on"}},
	}
	b := smartapp.HandlerInfo{
		Handler: "h2",
		Inputs:  []smartapp.EventSig{{Attr: "time:App B/h2"}},
		Outputs: []smartapp.EventSig{{Attr: "lock", Value: "locked"}},
	}
	g := Build([]smartapp.HandlerInfo{a, b})
	if got := len(g.FinalSets()); got != 2 {
		t.Errorf("final sets = %d, want 2", got)
	}
}

// TestIndependent: the overlap/conflict-seeded independence relation.
func TestIndependent(t *testing.T) {
	sig := func(attr, val string) smartapp.EventSig { return smartapp.EventSig{Attr: attr, Value: val} }
	cases := []struct {
		name string
		a, b RW
		want bool
	}{
		{"disjoint", RW{Reads: []smartapp.EventSig{sig("motion", "")}},
			RW{Writes: []smartapp.EventSig{sig("switch", "on")}}, true},
		{"write-read", RW{Writes: []smartapp.EventSig{sig("switch", "on")}},
			RW{Reads: []smartapp.EventSig{sig("switch", "")}}, false},
		{"write-write-conflict", RW{Writes: []smartapp.EventSig{sig("switch", "on")}},
			RW{Writes: []smartapp.EventSig{sig("switch", "off")}}, false},
		{"write-write-same", RW{Writes: []smartapp.EventSig{sig("switch", "on")}},
			RW{Writes: []smartapp.EventSig{sig("switch", "on")}}, false},
		{"read-read", RW{Reads: []smartapp.EventSig{sig("temperature", "")}},
			RW{Reads: []smartapp.EventSig{sig("temperature", "")}}, true},
		{"value-filtered-write-read", RW{Writes: []smartapp.EventSig{sig("lock", "locked")}},
			RW{Reads: []smartapp.EventSig{sig("lock", "")}}, false},
	}
	for _, c := range cases {
		if got := Independent(c.a, c.b); got != c.want {
			t.Errorf("%s: Independent = %v, want %v", c.name, got, c.want)
		}
		if got := Independent(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): Independent = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestIndependenceMatrix: over the paper's Table 2 graph, the
// signature-level independence relation (vertex inputs as reads, outputs
// as writes) is symmetric and irreflexive, and the conflicting switch
// writers the graph groups (vertices 0 and 1: switch/on vs switch/off
// outputs) are dependent.
func TestIndependenceMatrix(t *testing.T) {
	g := Build(table2Handlers(t))
	rw := func(v *Vertex) RW { return RW{Reads: v.Inputs, Writes: v.Outputs} }
	for i, u := range g.Vertices {
		for j, v := range g.Vertices {
			if Independent(rw(u), rw(v)) != Independent(rw(v), rw(u)) {
				t.Errorf("independence not symmetric at (%d,%d)", i, j)
			}
		}
		if len(u.Outputs) > 0 && Independent(rw(u), rw(u)) {
			t.Errorf("vertex %d, which writes, reported independent of itself", i)
		}
	}
	if Independent(rw(g.Vertices[0]), rw(g.Vertices[1])) {
		t.Error("conflicting switch writers (vertices 0, 1) reported independent")
	}
}
