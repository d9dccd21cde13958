// Package ltl implements the linear temporal logic used to express
// IotSan's safe-physical-state properties (§8: "These kinds of
// properties can be verified using linear temporal logic").
//
// A property is written G p (or [] p): an invariant, with p a
// propositional formula over named atoms (! && || -> <-> true false).
// That is the one form the model checker evaluates, on every reached
// state; bounded model checking of safety properties is what IotSan
// (like Spin used as a falsifier, §2.3) performs. Parse accepts exactly
// that form and returns p, and Bind compiles p into a closed evaluator.
// Any other temporal operator, liveness included, is a parse error.
package ltl

import (
	"fmt"
	"strings"
)

// Op is a formula node operator.
type Op int

// Operators.
const (
	OpAtom Op = iota
	OpTrue
	OpFalse
	OpNot
	OpAnd
	OpOr
	OpImplies
	OpIff
)

// Formula is the propositional body of a safety property.
type Formula struct {
	Op   Op
	Atom string
	L, R *Formula
}

// String renders the formula in the input syntax.
func (f *Formula) String() string {
	switch f.Op {
	case OpAtom:
		return f.Atom
	case OpTrue:
		return "true"
	case OpFalse:
		return "false"
	case OpNot:
		return "!" + f.L.paren()
	case OpAnd:
		return f.L.paren() + " && " + f.R.paren()
	case OpOr:
		return f.L.paren() + " || " + f.R.paren()
	case OpImplies:
		return f.L.paren() + " -> " + f.R.paren()
	case OpIff:
		return f.L.paren() + " <-> " + f.R.paren()
	}
	return "?"
}

func (f *Formula) paren() string {
	switch f.Op {
	case OpAtom, OpTrue, OpFalse, OpNot:
		return f.String()
	}
	return "(" + f.String() + ")"
}

// Atoms returns the distinct atom names in the formula, in first-use
// order.
func (f *Formula) Atoms() []string {
	seen := map[string]bool{}
	var out []string
	var walk func(*Formula)
	walk = func(n *Formula) {
		if n == nil {
			return
		}
		if n.Op == OpAtom && !seen[n.Atom] {
			seen[n.Atom] = true
			out = append(out, n.Atom)
		}
		walk(n.L)
		walk(n.R)
	}
	walk(f)
	return out
}

// ---- Parser ----

// A ParseError reports a syntax error in a formula.
type ParseError struct {
	Input string
	Pos   int
	Msg   string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ltl: %s at %d in %q", e.Msg, e.Pos, e.Input)
}

type fparser struct {
	in  string
	pos int
}

// Parse parses a safety property, G p or [] p, and returns its
// propositional body p.
func Parse(input string) (*Formula, error) {
	p := &fparser{in: input}
	if !p.acceptWord("G") && !p.accept("[]") {
		return nil, &ParseError{p.in, p.pos, "expected G or [] (a property is G p)"}
	}
	f, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if p.pos != len(p.in) {
		return nil, &ParseError{p.in, p.pos, "trailing input"}
	}
	return f, nil
}

func (p *fparser) skipWS() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t' || p.in[p.pos] == '\n') {
		p.pos++
	}
}

func (p *fparser) peekStr(s string) bool {
	p.skipWS()
	return strings.HasPrefix(p.in[p.pos:], s)
}

func (p *fparser) accept(s string) bool {
	if p.peekStr(s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *fparser) parseIff() (*Formula, error) {
	l, err := p.parseImplies()
	if err != nil {
		return nil, err
	}
	for p.accept("<->") {
		r, err := p.parseImplies()
		if err != nil {
			return nil, err
		}
		l = &Formula{Op: OpIff, L: l, R: r}
	}
	return l, nil
}

func (p *fparser) parseImplies() (*Formula, error) {
	l, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	// Right-associative.
	if p.accept("->") {
		r, err := p.parseImplies()
		if err != nil {
			return nil, err
		}
		return &Formula{Op: OpImplies, L: l, R: r}, nil
	}
	return l, nil
}

func (p *fparser) parseOr() (*Formula, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Formula{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *fparser) parseAnd() (*Formula, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Formula{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

// acceptWord matches a one-letter operator not glued to an atom.
func (p *fparser) acceptWord(w string) bool {
	p.skipWS()
	if !strings.HasPrefix(p.in[p.pos:], w) {
		return false
	}
	next := p.pos + len(w)
	if next < len(p.in) && isAtomChar(p.in[next]) {
		return false
	}
	p.pos = next
	return true
}

func isAtomChar(c byte) bool {
	return c == '_' || c == '.' || c == '-' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func (p *fparser) parseUnary() (*Formula, error) {
	p.skipWS()
	switch {
	case p.accept("!"):
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Formula{Op: OpNot, L: f}, nil
	case p.accept("("):
		f, err := p.parseIff()
		if err != nil {
			return nil, err
		}
		if !p.accept(")") {
			return nil, &ParseError{p.in, p.pos, "expected ')'"}
		}
		return f, nil
	}
	return p.parseAtom()
}

func (p *fparser) parseAtom() (*Formula, error) {
	p.skipWS()
	start := p.pos
	for p.pos < len(p.in) && isAtomChar(p.in[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, &ParseError{p.in, p.pos, "expected atom or '('"}
	}
	word := p.in[start:p.pos]
	switch word {
	case "true":
		return &Formula{Op: OpTrue}, nil
	case "false":
		return &Formula{Op: OpFalse}, nil
	case "G", "F", "X", "U", "W", "R":
		return nil, &ParseError{p.in, start, "temporal operator " + word + " inside a safety property"}
	}
	return &Formula{Op: OpAtom, Atom: word}, nil
}

// Bind compiles a propositional formula into a closed evaluator over a
// caller-supplied atom binding: atom resolution and the boolean
// structure are resolved once at bind time, so evaluating the formula
// on a state is plain closure calls — no per-evaluation environment
// closure, no per-atom map lookups. atom must return nil for unbound
// names (reported as an error).
func Bind[T any](f *Formula, atom func(name string) func(T) bool) (func(T) bool, error) {
	switch f.Op {
	case OpAtom:
		a := atom(f.Atom)
		if a == nil {
			return nil, fmt.Errorf("ltl: unbound atom %q", f.Atom)
		}
		return a, nil
	case OpTrue:
		return func(T) bool { return true }, nil
	case OpFalse:
		return func(T) bool { return false }, nil
	case OpNot:
		l, err := Bind(f.L, atom)
		if err != nil {
			return nil, err
		}
		return func(v T) bool { return !l(v) }, nil
	case OpAnd:
		l, err := Bind(f.L, atom)
		if err != nil {
			return nil, err
		}
		r, err := Bind(f.R, atom)
		if err != nil {
			return nil, err
		}
		return func(v T) bool { return l(v) && r(v) }, nil
	case OpOr:
		l, err := Bind(f.L, atom)
		if err != nil {
			return nil, err
		}
		r, err := Bind(f.R, atom)
		if err != nil {
			return nil, err
		}
		return func(v T) bool { return l(v) || r(v) }, nil
	case OpImplies:
		l, err := Bind(f.L, atom)
		if err != nil {
			return nil, err
		}
		r, err := Bind(f.R, atom)
		if err != nil {
			return nil, err
		}
		return func(v T) bool { return !l(v) || r(v) }, nil
	case OpIff:
		l, err := Bind(f.L, atom)
		if err != nil {
			return nil, err
		}
		r, err := Bind(f.R, atom)
		if err != nil {
			return nil, err
		}
		return func(v T) bool { return l(v) == r(v) }, nil
	}
	return nil, fmt.Errorf("ltl: Bind on unknown operator %d", f.Op)
}
