package checker

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestLinkTableLayout pins what makes the table cheap: at most 12 bytes
// a slot (a key word and half a meta word) through every growth, in a
// backing array of integers only (a pointer-free array is never scanned
// by the collector — a parent link, string or slice per state is what
// the table dropped), and a shard that fills one cache line.
func TestLinkTableLayout(t *testing.T) {
	rt := reflect.TypeOf(linkShard{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch k := f.Type.Kind(); {
		case f.Name == "mu":
		case k == reflect.Slice && f.Type.Elem().Kind() == reflect.Uint64:
		case k == reflect.Uint64, k == reflect.Int32, k == reflect.Uint8, k == reflect.Bool,
			k == reflect.Array && f.Type.Elem().Kind() == reflect.Uint8:
		default:
			t.Errorf("linkShard.%s is a %s: a shard must hold integers only", f.Name, f.Type)
		}
	}
	if sz := unsafe.Sizeof(linkShard{}); sz != 64 {
		t.Errorf("linkShard is %d bytes, want one 64-byte cache line", sz)
	}

	var table linkTable
	sh := &table.shards[0x42]
	for i := uint64(1); i <= 10_000; i++ {
		slots := sh.slots()
		table.admit(0x42<<56|i, int32(i%100), false)
		if sh.slots() != slots && 8*cap(sh.words) > 12*sh.slots() {
			t.Fatalf("%d slots hold %d bytes, want <= 12 a slot", sh.slots(), 8*cap(sh.words))
		}
	}
	for i := uint64(1); i <= 10_000; i++ {
		if d, _ := table.claimExpansion(0x42<<56|i, 1000); d != int32(i%100) {
			t.Fatalf("key %d: depth %d after growing, want %d", i, d, i%100)
		}
	}
}

// TestLinkTableFootprint: Table 8's state count in random fingerprints
// leaves at most 24 table bytes a stored state (12 a slot at the load
// bound's worst), and a shard allocates once per growth, nothing more.
func TestLinkTableFootprint(t *testing.T) {
	const states = 141_372
	rng := rand.New(rand.NewSource(49))
	keys := make([]uint64, states)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	var table linkTable
	// Three runs, as AllocsPerRun floors the mean: a stray allocation of
	// the runtime's own (seen under the race detector) must not count.
	allocs := testing.AllocsPerRun(3, func() {
		table = linkTable{}
		for i, k := range keys {
			if fresh, _ := table.admit(k, int32(i%8), true); !fresh {
				t.Fatalf("key %#x refused on its first offer", k)
			}
		}
	})
	if got := table.size(); got != states {
		t.Fatalf("size %d, want %d", got, states)
	}
	bytes, growths := 0, 0
	for i := range table.shards {
		bytes += 8 * cap(table.shards[i].words)
		for n := table.shards[i].slots(); n >= digestSetMinSlots; n /= 2 {
			growths++
		}
	}
	perState := float64(bytes) / states
	t.Logf("%d table bytes for %d states: %.1f a state", bytes, states, perState)
	if perState > 24 {
		t.Errorf("%d table bytes for %d states: %.1f a state, want <= 24", bytes, states, perState)
	}
	if int(allocs) != growths {
		t.Errorf("%v allocations for %d shard growths, want one each", allocs, growths)
	}
}

// TestLinkTableConcurrentAdmit: eight goroutines offer the same key
// stream, each in its own order with its own depths. Every key is fresh
// for exactly one of them, ends at the minimum depth offered, and gives
// out its counted expansion once — the zero fingerprint and a shard
// grown from 8 slots to 8192 under the offers included.
func TestLinkTableConcurrentAdmit(t *testing.T) {
	const workers, bound = 8, 1 << 20
	rng := rand.New(rand.NewSource(24))
	keys := []uint64{0}
	for i := uint64(1); i <= 4000; i++ {
		keys = append(keys, rng.Uint64(), 0xab<<56|i) // spread over the shards; one shard's worth
	}
	offered := func(w, i int) int32 { return int32(1 + (i*7+w*13)%29) }

	var table linkTable
	fresh := make([]atomic.Int32, len(keys))
	claims := make([]atomic.Int32, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(w))).Perm(len(keys))
			for _, i := range order {
				f, improved := table.admit(keys[i], offered(w, i), true)
				if f {
					fresh[i].Add(1)
				}
				if f && improved {
					t.Errorf("key %d: an insert is not an improvement", i)
				}
			}
			for _, i := range order {
				if _, counted := table.claimExpansion(keys[i], bound); counted {
					claims[i].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := table.size(); got != len(keys) {
		t.Fatalf("size %d, want %d", got, len(keys))
	}
	if got := table.shards[0xab].slots(); got != 8192 {
		t.Errorf("the crowded shard has %d slots, want 8192 (4000 entries at <= 75%% load)", got)
	}
	var deepest int32
	for i, k := range keys {
		if f, c := fresh[i].Load(), claims[i].Load(); f != 1 || c != 1 {
			t.Fatalf("key %#x: fresh %d times, expansion claimed %d times, want 1 and 1", k, f, c)
		}
		least := offered(0, i)
		for w := 1; w < workers; w++ {
			least = min(least, offered(w, i))
		}
		deepest = max(deepest, least)
		sh, m, ok := table.find(k)
		if !ok {
			sh.mu.Unlock()
			t.Fatalf("key %#x lost", k)
		}
		v := m.get()
		sh.mu.Unlock()
		if depth := int32(v >> 1); depth != least || v&linkExpanded == 0 {
			t.Errorf("key %#x: depth %d (claimed %v), want minimum offered %d, claimed",
				k, depth, v&linkExpanded != 0, least)
		}
	}
	for _, k := range []uint64{0xab << 56, 0xab<<56 | 4001} {
		sh, _, ok := table.find(k)
		sh.mu.Unlock()
		if ok {
			t.Errorf("find reports %#x, which was never admitted", k)
		}
	}
	if _, improved := table.admit(keys[1], 0, false); improved {
		t.Error("admit lowered a depth with relax off")
	}
	if maxd, clipped := table.scan(deepest + 1); maxd != deepest || clipped {
		t.Errorf("scan(%d) = %d, %v; want the deepest minimum %d, unclipped", deepest+1, maxd, clipped, deepest)
	}
	if _, clipped := table.scan(deepest); !clipped {
		t.Errorf("scan(%d) reports nothing at the bound", deepest)
	}
}

// TestStealEntryPath: an entry's path is its parent's plus the step that
// pushed it, holding label and steps only for an edge that cannot be
// replayed; a violation's trail is that path, a fresh copy, plus the
// pending step, with the root as From on the first step. A pooled entry
// reuses its path buffer, so a push allocates nothing, beyond the
// inline array too.
func TestStealEntryPath(t *testing.T) {
	root, mid := intState(0), intState(3)
	trs := []Transition{
		{Label: "replayable", Key: 5},
		{Label: "keyless"},
		{Label: "eager", Key: 7, Steps: []string{"x"}},
	}
	last := &Transition{Label: "last", Key: 9}
	for _, lazy := range []bool{true, false} {
		r := &stealRun{lazy: lazy, pools: make([]wsEntryPool, 1)}
		ent := &stealEntry{state: root}
		if got := ent.trail(root, stepOf(root, last)); !reflect.DeepEqual(got, []TrailStep{stepOf(root, last)}) {
			t.Errorf("lazy=%v: the root entry's trail %+v, want the pending step alone", lazy, got)
		}
		for i := range trs {
			ent = r.getEntry(0, mid, digest{h1: uint64(i)}, ent, &trs[i])
		}
		first := ""
		if !lazy {
			first = "replayable"
		}
		want := []TrailStep{
			{Label: first, Key: 5, From: root},
			{Label: "keyless"},
			{Label: "eager", Key: 7, Steps: []string{"x"}},
			{Label: "last", Key: 9, From: mid},
		}
		got := ent.trail(root, stepOf(mid, last))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lazy=%v: trail %+v, want %+v", lazy, got, want)
		}
		if ent.path[0].From != nil {
			t.Errorf("lazy=%v: the trail wrote its From into the entry's path", lazy)
		}

		// A long path outgrows the inline array once; after that the
		// pooled entries push without allocating.
		long := &stealEntry{path: make([]TrailStep, 3*pathInline)}
		for range 2 {
			r.putEntry(0, r.getEntry(0, mid, digest{}, long, last))
		}
		if allocs := testing.AllocsPerRun(100, func() {
			r.putEntry(0, r.getEntry(0, mid, digest{}, long, last))
		}); allocs != 0 {
			t.Errorf("lazy=%v: a pooled push allocates %v times, want 0", lazy, allocs)
		}
	}
}

// violatingDiamond is the diamond of depth_test.go with a violation at
// the end of the chain hanging off X.
type violatingDiamond struct{ diamondSys }

func (d *violatingDiamond) Inspect(s State) []Violation {
	if int(s.(intState)) == 200+d.cLen {
		return []Violation{{Property: "chain-end", Detail: "reached"}}
	}
	return nil
}

// TestStealTrailLongerThanDepthBound: the trail is the path of the
// expansion that records the violation, whole from the root. One worker
// stores X at depth 9 through the long arm, expands it and stores C1 at
// the bound of 10, unexpanded; the B shortcut then relaxes X to depth 2
// and re-enqueues it with its shorter path, through which the chain's
// end is first reached. That path must be reported from the root, not
// cut off at any depth.
func TestStealTrailLongerThanDepthBound(t *testing.T) {
	res := Run(&violatingDiamond{diamondSys{aLen: 8, cLen: 4}},
		Options{MaxDepth: 10, Strategy: StrategySteal, Workers: 1})
	if len(res.Violations) != 1 || res.Truncated {
		t.Fatalf("violations %d truncated %v, want the one chain-end violation of a complete search",
			len(res.Violations), res.Truncated)
	}
	var got []string
	for _, s := range res.Violations[0].Trail {
		got = append(got, s.Label)
	}
	want := []string{"to-100", "to-200", "to-201", "to-202", "to-203", "to-204"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trail %v, want the relaxing expansion's path %v", got, want)
	}
}
