package checker

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestLinkTableLayout pins what makes the table cheap: a slot of at
// most 32 bytes made of integers only (a pointer-free backing array is
// never scanned by the collector — a string or slice per state is what
// the table replaced), and a shard that fills one cache line.
func TestLinkTableLayout(t *testing.T) {
	if sz := unsafe.Sizeof(link{}); sz > 32 {
		t.Errorf("link slot is %d bytes, want <= 32", sz)
	}
	rt := reflect.TypeOf(link{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Uint64, reflect.Uint32, reflect.Int32:
		default:
			t.Errorf("link.%s is a %s: slots must hold integers only", f.Name, f.Type)
		}
	}
	if sz := unsafe.Sizeof(linkShard{}); sz != 64 {
		t.Errorf("linkShard is %d bytes, want one 64-byte cache line", sz)
	}
}

// TestLinkTableConcurrentAdmit: eight goroutines offer the same key
// stream, each in its own order, each as its own parent with its own
// depths. Every key is fresh for exactly one of them, keeps that one
// writer's complete edge, ends at the minimum depth offered, and gives
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
	table.lazy = true
	fresh := make([]atomic.Int32, len(keys))
	claims := make([]atomic.Int32, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(w))).Perm(len(keys))
			for _, i := range order {
				tr := Transition{Key: uint64(w+1)<<32 | uint64(i)}
				f, improved := table.admit(keys[i], uint64(w+1), offered(w, i), &tr, true)
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
	if got := len(table.shards[0xab].slots); got != 8192 {
		t.Errorf("the crowded shard has %d slots, want 8192 (4000 entries at <= 75%% load)", got)
	}
	for i, k := range keys {
		if f, c := fresh[i].Load(), claims[i].Load(); f != 1 || c != 1 {
			t.Fatalf("key %#x: fresh %d times, expansion claimed %d times, want 1 and 1", k, f, c)
		}
		least := offered(0, i)
		for w := 1; w < workers; w++ {
			least = min(least, offered(w, i))
		}
		sh, s := table.find(k)
		if s == nil {
			t.Fatalf("key %#x lost", k)
		}
		l := *s
		sh.mu.Unlock()
		if l.depth != least {
			t.Errorf("key %#x: depth %d, minimum offered %d", k, l.depth, least)
		}
		if l.parent < 1 || l.parent > workers || l.key != l.parent<<32|uint64(i) {
			t.Errorf("key %#x: edge (parent %d, key %#x) is not one writer's", k, l.parent, l.key)
		}
		if l.meta>>linkTextShift != 0 {
			t.Errorf("key %#x: a replayable edge stored text", k)
		}
		if !table.peek(digest{h1: k}) {
			t.Errorf("peek(%#x) = false", k)
		}
	}
	if table.peek(digest{h1: 0xab << 56}) {
		t.Error("peek reports a key that was never admitted")
	}
	if _, improved := table.admit(keys[1], 99, 0, nil, false); improved {
		t.Error("admit lowered a depth with relax off")
	}
}

// TestLinkTableTrail: trailTo walks first-writer links back to the
// depth-0 entry and hands out text only for the edges that cannot be
// replayed; a link to a state that was never stored heads the trail
// with brokenTrail instead of passing for a trail from the root.
func TestLinkTableTrail(t *testing.T) {
	root := intState(0)
	for _, lazy := range []bool{true, false} {
		table := linkTable{lazy: lazy}
		if table.seen(digest{h1: 10}) {
			t.Fatal("root already stored")
		}
		table.admit(11, 10, 1, &Transition{Label: "replayable", Key: 5}, true)
		table.admit(12, 11, 2, &Transition{Label: "keyless"}, true)
		table.admit(13, 12, 3, &Transition{Label: "eager", Key: 7, Steps: []string{"x"}}, true)
		table.admit(13, 10, 1, &Transition{Label: "shortcut", Key: 9}, true) // lowers the depth, keeps the link
		first := ""
		if !lazy {
			first = "replayable"
		}
		want := []TrailStep{
			{Label: first, Key: 5, From: root},
			{Label: "keyless"},
			{Label: "eager", Key: 7, Steps: []string{"x"}},
		}
		if got := table.trailTo(13, root); !reflect.DeepEqual(got, want) {
			t.Errorf("lazy=%v: trail %+v, want %+v", lazy, got, want)
		}
		if got := table.trailTo(10, root); len(got) != 0 {
			t.Errorf("lazy=%v: the root's trail has %d steps", lazy, len(got))
		}
		if d, _ := table.claimExpansion(13, 100); d != 1 {
			t.Errorf("lazy=%v: depth %d after the shortcut, want 1", lazy, d)
		}

		table.admit(21, 20, 4, &Transition{Label: "orphan"}, true) // 20 was never stored
		got := table.trailTo(21, root)
		if len(got) != 2 || got[0].Label != brokenTrail || got[1].Label != "orphan" {
			t.Errorf("lazy=%v: trail through a missing link = %+v, want it headed by brokenTrail", lazy, got)
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

// TestStealTrailLongerThanDepthBound: depths are minimal, links are
// first-found. One worker stores X at depth 9 through the long arm and
// relaxes it to 2, so the chain's end sits at depth 6 under a bound of
// 10 while its first-found path has 13 steps — the trail must be that
// whole path from the root, not one cut off at the bound.
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
	want := []string{"to-1", "to-2", "to-3", "to-4", "to-5", "to-6", "to-7", "to-8",
		"to-200", "to-201", "to-202", "to-203", "to-204"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trail %v, want the first-found path %v", got, want)
	}
}
