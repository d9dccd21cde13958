package checker

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// gridSys is an n×n grid walked one coordinate at a time, in which
// most successors are duplicates. Without cols every transition and
// state raises Violation{}; with it, a transition into column b raises
// violation b%cols, so a worker meets each violation many times over.
type gridSys struct {
	n, cols int
}

func (g *gridSys) Initial() State { return intState(0) }

func (g *gridSys) Expand(s State) []Transition {
	a, b := int(s.(intState))/g.n, int(s.(intState))%g.n
	var trs []Transition
	if a+1 < g.n {
		trs = append(trs, Transition{Label: "a", Next: intState((a+1)*g.n + b), Violations: g.viols(b)})
	}
	if b+1 < g.n {
		trs = append(trs, Transition{Label: "b", Next: intState(a*g.n + b + 1), Violations: g.viols(b + 1)})
	}
	return trs
}

func (g *gridSys) viols(b int) []Violation {
	if g.cols == 0 {
		return []Violation{{}}
	}
	return []Violation{{Property: "col", Detail: fmt.Sprint(b % g.cols)}}
}

func (g *gridSys) Inspect(State) []Violation {
	if g.cols == 0 {
		return []Violation{{}}
	}
	return nil
}

// TestViolationCacheZeroViolation: an empty cache slot matches nothing,
// so a system whose one violation is Violation{} still has it recorded,
// exactly once, on every strategy.
func TestViolationCacheZeroViolation(t *testing.T) {
	for name, opts := range strategies() {
		t.Run(name, func(t *testing.T) {
			opts.MaxDepth = 64
			res := Run(&gridSys{n: 12}, opts)
			if len(res.Violations) != 1 || res.Violations[0].Violation != (Violation{}) {
				t.Fatalf("recorded %v, want Violation{} once", violationKeys(res))
			}
			if f := res.Violations[0]; f.Depth != len(f.Trail) {
				t.Errorf("depth %d, trail of %d steps", f.Depth, len(f.Trail))
			}
			// Each worker asks once, then hits its cache.
			workers := 1
			if opts.Strategy == StrategySteal {
				workers = opts.Workers
				if workers <= 0 {
					workers = runtime.GOMAXPROCS(0)
				}
			}
			if n := res.ReserveCalls(); n > workers {
				t.Errorf("%d reserve calls for one violation on %d workers", n, workers)
			}
		})
	}
}

// TestViolationCacheFull: a worker that meets more distinct violations
// than its cache holds still records each exactly once, and asks about
// the ones it could not cache every time.
func TestViolationCacheFull(t *testing.T) {
	const cols = violCacheMax + 12
	for name, opts := range strategies() {
		t.Run(name, func(t *testing.T) {
			opts.MaxDepth = 128
			res := Run(&gridSys{n: cols, cols: cols}, opts)
			keys := violationKeys(res)
			if len(keys) != cols || len(slices.Compact(keys)) != cols {
				t.Fatalf("recorded %d violations (%d distinct), want %d", len(keys), len(slices.Compact(keys)), cols)
			}
			if n := res.ReserveCalls(); n <= cols {
				t.Errorf("%d reserve calls: a full cache should leave repeats to reserve", n)
			}
		})
	}
}

// collidingPair returns two distinct violations with the same home
// slot in the cache.
func collidingPair(t *testing.T) (Violation, Violation) {
	t.Helper()
	a := Violation{Property: "p", Detail: "detail-0"}
	for i := 1; i < 100_000; i++ {
		b := Violation{Property: "p", Detail: fmt.Sprintf("detail-%d", i)}
		if violSlot(b) == violSlot(a) {
			return a, b
		}
	}
	t.Fatal("no colliding pair")
	return a, a
}

// altChainSys is a chain whose transitions raise two violations in
// turn: step i raises vs[i%2].
type altChainSys struct {
	width int
	vs    [2]Violation
}

func (c *altChainSys) Initial() State { return intState(0) }

func (c *altChainSys) Expand(s State) []Transition {
	v := int(s.(intState))
	if v >= c.width {
		return nil
	}
	return []Transition{{Label: fmt.Sprintf("step-%d", v+1), Next: intState(v + 1), Violations: []Violation{c.vs[v%2]}}}
}

func (c *altChainSys) Inspect(State) []Violation { return nil }

// TestViolationCacheCollision: two distinct violations that share a
// home slot in the cache, met in turn, are both recorded, each once and
// with its own trail.
func TestViolationCacheCollision(t *testing.T) {
	a, b := collidingPair(t)
	for name, opts := range strategies() {
		t.Run(name, func(t *testing.T) {
			opts.MaxDepth = 64
			res := Run(&altChainSys{width: 20, vs: [2]Violation{a, b}}, opts)
			if len(res.Violations) != 2 {
				t.Fatalf("recorded %v, want %v and %v", violationKeys(res), a, b)
			}
			for _, f := range res.Violations {
				want := 1 // a is raised first by step-1, b by step-2
				if f.Violation == b {
					want = 2
				}
				var labels []string
				for _, st := range f.Trail {
					labels = append(labels, st.Label)
				}
				if f.Depth != want || !slices.Equal(labels, []string{"step-1", "step-2"}[:want]) {
					t.Errorf("%v at depth %d with trail %q, want depth %d", f.Violation, f.Depth, labels, want)
				}
			}
		})
	}
}
