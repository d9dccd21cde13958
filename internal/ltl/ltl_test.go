package ltl

import (
	"strings"
	"testing"
	"testing/quick"
)

// MustParse parses a safety property or panics.
func MustParse(input string) *Formula {
	f, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return f
}

// evalProp evaluates a propositional formula under an atom assignment
// by walking the tree: the reference Bind's closures must agree with.
func evalProp(f *Formula, env func(atom string) bool) bool {
	switch f.Op {
	case OpAtom:
		return env(f.Atom)
	case OpTrue:
		return true
	case OpFalse:
		return false
	case OpNot:
		return !evalProp(f.L, env)
	case OpAnd:
		return evalProp(f.L, env) && evalProp(f.R, env)
	case OpOr:
		return evalProp(f.L, env) || evalProp(f.R, env)
	case OpImplies:
		return !evalProp(f.L, env) || evalProp(f.R, env)
	case OpIff:
		return evalProp(f.L, env) == evalProp(f.R, env)
	}
	panic("evalProp on unknown operator " + f.String())
}

func TestParseAndRender(t *testing.T) {
	tests := []struct{ in, want string }{
		{"G p", "p"},
		{"G (a -> b)", "a -> b"},
		{"G !(a && b)", "!(a && b)"},
		{"[] (a || b)", "a || b"},
		{"G true", "true"},
		{"G (a -> b -> c)", "a -> (b -> c)"}, // right-associative
		{"G (!a || b && c)", "!a || (b && c)"},
		{"G (anyone_home || main_door_locked)", "anyone_home || main_door_locked"},
	}
	for _, tt := range tests {
		f, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.in, err)
			continue
		}
		if got := f.String(); got != tt.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "G", "(a", "G (a &&", "G (p -> )", "G (a b)", "G U p", "G p)", "Gp"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestAtoms(t *testing.T) {
	f := MustParse("G (a -> (b && !a) || c)")
	got := f.Atoms()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("atoms = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("atoms = %v, want %v", got, want)
		}
	}
}

func TestEvalProp(t *testing.T) {
	f := MustParse("G ((a && !b) || (c -> d))")
	env := func(m map[string]bool) func(string) bool {
		return func(a string) bool { return m[a] }
	}
	if !evalProp(f, env(map[string]bool{"a": true, "b": false})) {
		t.Error("a&&!b should hold")
	}
	if !evalProp(f, env(map[string]bool{"c": false})) {
		t.Error("c->d with !c should hold")
	}
	if evalProp(f, env(map[string]bool{"a": true, "b": true, "c": true, "d": false})) {
		t.Error("should not hold")
	}
}

// Parse returns the body of G p, the invariant checked on every
// reached state.
func TestParseReturnsBody(t *testing.T) {
	body := MustParse("G !(away && unlocked)")
	if got := body.String(); got != "!(away && unlocked)" {
		t.Fatalf("body = %q", got)
	}
	if !evalProp(body, func(a string) bool { return a == "away" }) {
		t.Error("away && !unlocked should satisfy")
	}
	if evalProp(body, func(string) bool { return true }) {
		t.Error("away && unlocked should violate")
	}
}

// Only G p is a property: every formula here must be a parse error.
func assertParseRejects(t *testing.T, ins ...string) {
	t.Helper()
	for _, in := range ins {
		if f, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted it (body %s)", in, f)
		}
	}
}

// A formula not rooted in G, a nested G and a G conjoined with a bare
// atom are not invariants.
func TestParseRejectsNonInvariant(t *testing.T) {
	assertParseRejects(t, "p", "!p", "G G p", "G [] p", "G p && q")
}

// A one-step response would need a monitor stepped along an execution,
// and the checker runs none.
func TestParseRejectsNextResponse(t *testing.T) {
	assertParseRejects(t, "X p", "G (req -> X ack)")
}

// Liveness and until-style formulas are not safety invariants.
func TestParseRejectsLiveness(t *testing.T) {
	assertParseRejects(t, "F p", "<> p", "p U q", "p W q", "p R q",
		"G F p", "G (p -> F q)", "G (p U q)", "G (p -> <> q)")
}

// TestBindMatchesEvalProp: Bind's closed evaluator agrees with a walk of
// the formula tree on random propositional formulas under every
// assignment of their atoms (property-based).
func TestBindMatchesEvalProp(t *testing.T) {
	atoms := []string{"a", "b", "c"}
	var gen func(seed int64, depth int) *Formula
	gen = func(seed int64, depth int) *Formula {
		op := Op(abs(seed) % int64(OpIff+1))
		switch {
		case depth <= 0 || op == OpAtom:
			return &Formula{Op: OpAtom, Atom: atoms[abs(seed/9)%int64(len(atoms))]}
		case op == OpTrue || op == OpFalse:
			return &Formula{Op: op}
		case op == OpNot:
			return &Formula{Op: op, L: gen(seed/3, depth-1)}
		}
		return &Formula{Op: op, L: gen(seed/3, depth-1), R: gen(seed/5, depth-1)}
	}
	// An assignment is a bit per atom.
	holds := func(v uint) func(string) bool {
		return func(name string) bool { return v&(1<<strings.Index("abc", name)) != 0 }
	}
	prop := func(seed int64) bool {
		f := gen(seed, 4)
		bound, err := Bind(f, func(name string) func(uint) bool {
			return func(v uint) bool { return holds(v)(name) }
		})
		if err != nil {
			t.Logf("Bind(%s): %v", f, err)
			return false
		}
		for v := uint(0); v < 8; v++ {
			if got, want := bound(v), evalProp(f, holds(v)); got != want {
				t.Logf("%s under %03b: Bind %v, tree walk %v", f, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if _, err := Bind(MustParse("G (p && q)"), func(string) func(uint) bool { return nil }); err == nil {
		t.Error("Bind accepted an unbound atom")
	}
}

// TestRoundTripProperty: rendering a formula and reparsing it as the
// body of G yields an equivalent formula (property-based).
func TestRoundTripProperty(t *testing.T) {
	atoms := []string{"a", "b", "c", "p", "q"}
	// Generate random formulas from a seed sequence.
	var gen func(seed int64, depth int) *Formula
	gen = func(seed int64, depth int) *Formula {
		if depth <= 0 {
			return &Formula{Op: OpAtom, Atom: atoms[abs(seed)%int64(len(atoms))]}
		}
		switch abs(seed) % 6 {
		case 0:
			return &Formula{Op: OpAtom, Atom: atoms[abs(seed/8)%int64(len(atoms))]}
		case 1:
			return &Formula{Op: OpNot, L: gen(seed/3, depth-1)}
		case 2:
			return &Formula{Op: OpAnd, L: gen(seed/3, depth-1), R: gen(seed/5, depth-1)}
		case 3:
			return &Formula{Op: OpOr, L: gen(seed/3, depth-1), R: gen(seed/5, depth-1)}
		case 4:
			return &Formula{Op: OpImplies, L: gen(seed/3, depth-1), R: gen(seed/5, depth-1)}
		default:
			return &Formula{Op: OpIff, L: gen(seed/3, depth-1), R: gen(seed/5, depth-1)}
		}
	}
	prop := func(seed int64) bool {
		f := gen(seed, 4)
		g, err := Parse("G (" + f.String() + ")")
		if err != nil {
			t.Logf("reparse of %q failed: %v", f.String(), err)
			return false
		}
		return g.String() == f.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestEvalPropTotality: propositional evaluation never panics for
// propositional formulas (property-based).
func TestEvalPropTotality(t *testing.T) {
	prop := func(a, b, c bool) bool {
		f := MustParse("G (((x -> y) <-> (!x || y)) && (z || !z))")
		env := map[string]bool{"x": a, "y": b, "z": c}
		return evalProp(f, func(at string) bool { return env[at] })
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFormulaStringNoTrailingSpace(t *testing.T) {
	f := MustParse("G ( a && b )")
	if s := f.String(); strings.Contains(s, "  ") {
		t.Errorf("double space in %q", s)
	}
}
