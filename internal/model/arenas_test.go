package model

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"iotsan/internal/checker"
)

// kitSpy is a model's System that keeps the scratches the engine made
// and counts the leaves it looked up (the DFS: one goroutine).
type kitSpy struct {
	scratchSpy
	looked int
}

func (s *kitSpy) InspectLeaf(sc checker.Scratch, parent checker.State) ([]checker.Violation, bool) {
	vs, ok := s.sysAdapter.InspectLeaf(sc, parent)
	if ok {
		s.looked++
	}
	return vs, ok
}

// kitRun is what one search did: its Result, its trails, and what its
// memo served and recorded.
type kitRun struct {
	explored, matched, stored, depth, reserves int
	truncated                                  bool
	trails                                     string
	splices, lookups, fullSyncs                int
	entries, shapes, hashes, viols, blocks     int
	leafKeys, leafDevs                         int
}

// runKit searches m on the DFS with tables, takes m's arenas back, and
// returns what the search did.
func runKit(t *testing.T, m *Model, tables *checker.Tables) kitRun {
	t.Helper()
	spy := &kitSpy{scratchSpy: scratchSpy{sysAdapter: sysAdapter{m}}}
	res := checker.Run(spy, checker.Options{MaxDepth: 100, Tables: tables})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var trails []string
	for _, f := range res.Violations {
		trails = append(trails, checker.FormatTrail(f))
	}
	sc, mm := spy.made[0], &spy.made[0].memo
	r := kitRun{
		explored: res.StatesExplored, matched: res.StatesMatched, stored: res.StatesStored,
		depth: res.MaxDepthReached, reserves: res.ReserveCalls(), truncated: res.Truncated,
		trails:  strings.Join(trails, "\n"),
		splices: sc.Splices(), lookups: spy.looked, fullSyncs: sc.FullSyncs(),
		entries: len(mm.entries), shapes: len(mm.shapes), hashes: len(mm.hashes), viols: len(mm.viols),
		blocks: len(mm.blocks), leafKeys: mm.nLeaves, leafDevs: len(mm.leafDevs),
	}
	m.Opts.Arenas.Reclaim()
	return r
}

// TestArenasHandDown: searches in a row through one Arenas and one
// checker.Tables, as one worker of the iotsan group scheduler runs its
// related sets, each equal to the same search run without them — its
// Result counters, violations and trails, the splices and leaf lookups
// its scratch served, and the entries, edge violations, captured blocks
// and leaf keys its memo recorded. The splice check is armed: every
// splice and lookup is re-stepped. After a small search that sizes the
// arrays come a larger one, which outgrows them, a smaller one of the
// same home (its states are the larger one's first levels, so a visited
// table left uncleared would call them seen), a search over a home
// whose transitions raise edge violations, a one-event search, which
// records nothing, and a search over a third home.
func TestArenasHandDown(t *testing.T) {
	CheckSplices(true)
	defer CheckSplices(false)
	catalog := followCatalog(t)
	follow := func(events int) func(*Arenas) *Model {
		return func(a *Arenas) *Model {
			return followModelOpts(t, Options{MaxEvents: events, Incremental: true, Invariants: catalog, Arenas: a})
		}
	}
	conflictApps := translate(t, "Brighten Dark Places", "Let There Be Dark!")
	conflict := func(a *Arenas) *Model {
		m, err := New(conflictSystem(), conflictApps, Options{MaxEvents: 3, Incremental: true, CheckConflicts: true, Arenas: a})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cascade := func(a *Arenas) *Model {
		return cascadeModelOpts(t, Options{MaxEvents: 5, Incremental: true, Arenas: a})
	}
	var (
		arenas Arenas
		tables checker.Tables
	)
	for _, set := range []struct {
		name  string
		model func(*Arenas) *Model
	}{
		{"follow-3", follow(3)},
		{"follow-6", follow(6)},
		{"follow-4", follow(4)},
		{"conflict-3", conflict},
		{"follow-1", follow(1)},
		{"cascade-5", cascade},
	} {
		want := runKit(t, set.model(nil), nil)
		slots := tables.Len()
		got := runKit(t, set.model(&arenas), &tables)
		if got != want {
			// Fatal: a kit that went wrong once can hang the next search.
			t.Fatalf("%s through the kit:\n %+v\nwithout:\n %+v", set.name, got, want)
		}
		if (set.name == "follow-1") != (want.entries == 0) || set.name == "conflict-3" && want.viols == 0 {
			t.Errorf("%s: the memo recorded %d entries, %d edge violations", set.name, want.entries, want.viols)
		}
		if set.name == "follow-6" && tables.Len() <= slots {
			t.Errorf("follow-6 ended with a %d-slot table from a %d-slot one: want a search that outgrows the kit's", tables.Len(), slots)
		}
		if cap(arenas.held.entries) == 0 {
			t.Fatalf("after %s the kit holds no memo arenas", set.name)
		}
		t.Logf("%s: %d states, %d memo entries, %d edge violations, %d splices, %d leaf lookups; the kit holds %d table slots",
			set.name, got.stored, got.entries, got.viols, got.splices, got.lookups, tables.Len())
	}
}

// arenaArrays returns the array of every slice in a.
func arenaArrays(a *memoArenas) []unsafe.Pointer {
	v := reflect.ValueOf(a).Elem()
	out := make([]unsafe.Pointer, v.NumField())
	for i := range out {
		out[i] = v.Field(i).UnsafePointer()
	}
	return out
}

// TestArenasAllocGate: through a warmed Arenas and Tables, a second
// search of a model of the same shape takes every array the first one
// left, and allocates no visited table and no memo arena: every array
// the kit holds afterwards is the one it held before, and the search
// allocates at most the budget (run without the kit it allocates more
// than twice as much).
func TestArenasAllocGate(t *testing.T) {
	catalog := followCatalog(t)
	var (
		arenas Arenas
		tables checker.Tables
	)
	search := func(a *Arenas, tb *checker.Tables) uint64 {
		m := followModelOpts(t, Options{MaxEvents: 6, Incremental: true, Invariants: catalog, Arenas: a})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := checker.Run(m.System(), checker.Options{MaxDepth: 100, Tables: tb})
		a.Reclaim()
		runtime.ReadMemStats(&after)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	search(&arenas, &tables)
	arrays := arenaArrays(&arenas.held)
	warm := search(&arenas, &tables)
	for i, p := range arenaArrays(&arenas.held) {
		if p != arrays[i] {
			t.Errorf("the second search allocated a new %s arena", reflect.TypeFor[memoArenas]().Field(i).Name)
		}
	}
	cold := search(nil, nil)
	t.Logf("a search allocates %d bytes through a warmed kit, %d without one", warm, cold)
	if raceEnabled {
		return // the state pool leaks under the race detector; see raceEnabled
	}
	const budget = 40_000
	if warm > budget {
		t.Errorf("a search through a warmed kit allocates %d bytes, want <= %d (%d without the kit)", warm, budget, cold)
	}
}

// TestNewScratchAllocs: NewScratch builds no state, since the first
// Step's full re-sync gives the working state its shape and contents,
// so it allocates its executor, the scratch, an empty working state and
// the touch mask, and nothing else.
func TestNewScratchAllocs(t *testing.T) {
	m := followModelOpts(t, Options{MaxEvents: 3, Incremental: true, Invariants: followCatalog(t)})
	var x *executor
	exec := testing.AllocsPerRun(50, func() { x = m.newExecutor() })
	got := testing.AllocsPerRun(50, func() { m.NewScratch() })
	_ = x
	if got != exec+3 {
		t.Errorf("NewScratch allocates %.0f times, its executor %.0f: want the executor's and 3 more", got, exec)
	}
	// The scratch still steps like one built from the initial state.
	sys := m.System()
	res := checker.Run(sys, checker.Options{MaxDepth: 100})
	want := checker.Run(noPredictor{sys, sys.(checker.Stepper)}, checker.Options{MaxDepth: 100})
	if res.Err != nil || fmt.Sprint(violationIDs(res)) != fmt.Sprint(violationIDs(want)) || res.StatesStored != want.StatesStored {
		t.Errorf("err %v, %d states, %q; without the memo %d states, %q", res.Err, res.StatesStored, violationIDs(res), want.StatesStored, violationIDs(want))
	}
}

// TestArenasDropLarge: Reclaim keeps no arenas grown past room for
// keptEntries entries or keptLeafSlots leaf slots, and keeps the rest
// emptied.
func TestArenasDropLarge(t *testing.T) {
	for _, c := range []struct {
		entries, leaves int
		kept            bool
	}{{keptEntries, keptLeafSlots, true}, {2 * keptEntries, 64, false}, {256, 2 * keptLeafSlots, false}} {
		var (
			a  Arenas
			mm memo
		)
		a.lend(&mm)
		mm.entries = make([]memoEntry, 1, c.entries)
		mm.leaves = make([]memoLeaf, c.leaves)
		a.Reclaim()
		if kept := cap(a.held.entries) > 0; kept != c.kept || len(a.held.entries) != 0 {
			t.Errorf("%d entries, %d leaf slots: kept %v with %d entries, want kept %v and emptied", c.entries, c.leaves, kept, len(a.held.entries), c.kept)
		}
	}
}
