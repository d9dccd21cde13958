package checker

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// chainState is a toy system: a counter that can be incremented or
// doubled up to a bound; states with value == bad violate. depth is
// part of the state vector because Expand's behavior depends on it —
// omitting it would alias states that expand differently, and the two
// strategies would then legitimately explore different state counts.
type chainState struct{ v, depth int }

func (s *chainState) Encode(buf []byte) []byte {
	return append(buf, byte(s.v), byte(s.v>>8), byte(s.depth))
}

type chainSys struct {
	bound int
	bad   int
}

func (c *chainSys) Initial() State { return &chainState{v: 1} }

func (c *chainSys) Expand(s State) []Transition {
	st := s.(*chainState)
	if st.depth >= c.bound {
		return nil
	}
	mk := func(nv int, label string) Transition {
		return Transition{Label: label, Next: &chainState{v: nv, depth: st.depth + 1}}
	}
	return []Transition{
		mk(st.v+1, fmt.Sprintf("inc->%d", st.v+1)),
		mk(st.v*2, fmt.Sprintf("dbl->%d", st.v*2)),
	}
}

func (c *chainSys) Inspect(s State) []Violation {
	if s.(*chainState).v == c.bad {
		return []Violation{{Property: "bad-value", Detail: fmt.Sprintf("reached %d", c.bad)}}
	}
	return nil
}

func TestFindsViolationWithTrail(t *testing.T) {
	res := Run(&chainSys{bound: 6, bad: 12}, Options{MaxDepth: 10})
	if !res.HasViolation("bad-value") {
		t.Fatalf("violation not found; explored=%d", res.StatesExplored)
	}
	f := res.Violations[0]
	if len(f.Trail) == 0 {
		t.Error("no trail")
	}
	if f.Depth != len(f.Trail) {
		t.Errorf("depth=%d trail=%d", f.Depth, len(f.Trail))
	}
}

func TestDedupPrunesRevisits(t *testing.T) {
	res := Run(&chainSys{bound: 10, bad: -1}, Options{MaxDepth: 16})
	if res.StatesMatched == 0 {
		t.Error("expected matched states (2*2=4 is reachable two ways)")
	}
}

// TestBitstateFindsSameViolations: a bit array sized generously for the
// state count has no false positives, so the DFS reports the exhaustive
// store's violation set and state count. (A false positive would skip
// that state's Inspect along with its expansion.)
func TestBitstateFindsSameViolations(t *testing.T) {
	systems := map[string]System{
		"chain":     &chainSys{bound: 8, bad: 24},
		"multiViol": &multiViolSys{width: 12},
	}
	for name, sys := range systems {
		ex := Run(sys, Options{MaxDepth: 32})
		bs := Run(sys, Options{MaxDepth: 32, Store: Bitstate, bitstateBits: 24})
		if got, want := violationKeys(bs), violationKeys(ex); len(want) == 0 || !equalStrings(got, want) {
			t.Errorf("%s: bitstate violations %q, exhaustive %q", name, got, want)
		}
		if bs.StatesExplored != ex.StatesExplored {
			t.Errorf("%s: bitstate explored %d, exhaustive %d", name, bs.StatesExplored, ex.StatesExplored)
		}
	}
}

func TestLimitsTruncate(t *testing.T) {
	res := Run(&chainSys{bound: 30, bad: -1}, Options{MaxDepth: 64, MaxStates: 50})
	if !res.Truncated {
		t.Error("expected truncation at MaxStates")
	}
	res = Run(&chainSys{bound: 30, bad: -1}, Options{MaxDepth: 3})
	if res.MaxDepthReached > 3 {
		t.Errorf("depth %d exceeds bound", res.MaxDepthReached)
	}
}

// TestBitstoreNeverFalseNegativeOnFirstInsert: a bitstate store never
// claims an unseen state was seen before any insertions collide
// (property: first insert of any hash returns false).
func TestBitstoreNeverFalseNegativeOnFirstInsert(t *testing.T) {
	f := func(h1, h2 uint64) bool {
		s := newBitStore(16)
		d := digest{h1, h2}
		return !s.seen(d) && s.seen(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHashStoreExact: the exhaustive stores, and the flat table both
// are built on, are exact over hashes — seen and size agree with a Go
// map after every operation, and seen ignores the second hash.
func TestHashStoreExact(t *testing.T) {
	type ops struct {
		seen func(h uint64) bool
		size func() int
	}
	n := 0
	fromStore := func(s store) ops {
		return ops{
			seen: func(h uint64) bool { n++; return s.seen(digest{h1: h, h2: h * uint64(n)}) },
			size: s.size,
		}
	}
	for name, mk := range map[string]func() ops{
		"digestSet": func() ops {
			t := &digestSet{}
			return ops{seen: t.add, size: func() int { return t.n }}
		},
		"hashStore": func() ops { return fromStore(&hashStore{}) },
		"linkTable": func() ops { return fromStore(&linkTable{}) },
	} {
		f := func(hs []uint64) bool {
			s := mk()
			seen := map[uint64]bool{}
			for _, h := range hs {
				if s.seen(h) != seen[h] || !s.seen(h) {
					return false
				}
				seen[h] = true
				if s.size() != len(seen) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFormatTrail(t *testing.T) {
	out := FormatTrail(Found{
		Violation: Violation{Property: "p", Detail: "d"},
		Trail: []TrailStep{
			{Label: "ev1", Steps: []string{"a", "b"}},
			{Label: "ev2"},
		},
	})
	for _, want := range []string{"violated: p (d)", "[ev1]", "a", "[ev2]"} {
		if !contains(out, want) {
			t.Errorf("trail missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestParseKindRoundTrip: every kind parses back from its String, ""
// selects the default, and only the documented spellings of each are
// accepted — "parallel", the deleted level-synchronous strategy, is not
// one of them.
func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []StrategyKind{StrategyDFS, StrategySteal} {
		if got, err := ParseStrategy(k.String()); err != nil || got != k {
			t.Errorf("ParseStrategy(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, k := range []StoreKind{Exhaustive, Bitstate, Tiered} {
		if got, err := ParseStore(k.String()); err != nil || got != k {
			t.Errorf("ParseStore(%q) = %v, %v", k.String(), got, err)
		}
	}
	if got, err := ParseStrategy(""); err != nil || got != StrategyDFS {
		t.Errorf(`ParseStrategy("") = %v, %v`, got, err)
	}
	if got, err := ParseStore(""); err != nil || got != Exhaustive {
		t.Errorf(`ParseStore("") = %v, %v`, got, err)
	}
	for _, name := range []string{"parallel", "sequential", "bfs", "frontier", "ws", "work-stealing"} {
		if _, err := ParseStrategy(name); err == nil || !strings.Contains(err.Error(), "want dfs or steal") {
			t.Errorf("ParseStrategy(%q) error = %v", name, err)
		}
	}
	for _, name := range []string{"hash", "hash-compact", "supertrace", "out-of-core", "ooc"} {
		if _, err := ParseStore(name); err == nil || !strings.Contains(err.Error(), "want exhaustive, bitstate, or tiered") {
			t.Errorf("ParseStore(%q) error = %v", name, err)
		}
	}
}
