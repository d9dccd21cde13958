package groovy

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// A ParseError reports a syntax error with its source position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// parser consumes a token stream.
type parser struct {
	toks []Token
	i    int
	buf  *[]Token // tokenBufs entry toks lives in
}

// tokenBufs holds token buffers between parses. A parse tokenizes into
// one, and when it ends clears it (a token's strings point into its
// source) and puts it back: the AST keeps no token, so one buffer per
// concurrent parse serves every app. A GString interpolation is parsed
// while the outer parse holds its buffer, and takes another.
var tokenBufs = sync.Pool{New: func() any { return new([]Token) }}

// newParser tokenizes src into a pooled buffer, sized as Tokenize sizes
// one when the pool had none to give; release hands it back.
func newParser(src string) (*parser, error) {
	buf := tokenBufs.Get().(*[]Token)
	if cap(*buf) == 0 {
		*buf = make([]Token, 0, len(src)/bytesPerToken+1)
	}
	toks, err := appendTokens((*buf)[:0], src)
	p := &parser{toks: toks, buf: buf}
	if err != nil {
		p.release()
		return nil, err
	}
	return p, nil
}

// release clears the parser's tokens and returns their buffer to
// tokenBufs; the parser must not be used afterwards.
func (p *parser) release() {
	clear(p.toks)
	*p.buf = p.toks[:0]
	tokenBufs.Put(p.buf)
	p.toks, p.buf = nil, nil
}

// ParseScript parses a complete smart-app source file.
func ParseScript(src string) (*Script, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	defer p.release()
	s := &Script{}
	p.skipSemis()
	for p.tok().Kind != EOF {
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		if d != nil {
			s.Decls = append(s.Decls, d)
		}
		p.skipSemis()
	}
	return s, nil
}

// ParseExpression parses a single expression (used for GString
// interpolations and tests).
func ParseExpression(src string) (Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	defer p.release()
	p.skipSemis()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSemis()
	if p.tok().Kind != EOF {
		return nil, p.errorf("unexpected %s after expression", p.tok())
	}
	return e, nil
}

func (p *parser) tok() Token { return p.toks[p.i] }

func (p *parser) peek(n int) Token {
	if p.i+n >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.i+n]
}

func (p *parser) next() Token {
	t := p.toks[p.i]
	if t.Kind != EOF {
		p.i++
	}
	return t
}

func (p *parser) accept(k Kind) bool {
	if p.tok().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k Kind) (Token, error) {
	if p.tok().Kind != k {
		return Token{}, p.errorf("expected %s, found %s", k, p.tok())
	}
	return p.next(), nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Pos: p.tok().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSemis() {
	for p.tok().Kind == SEMI {
		p.next()
	}
}

// skipNewlineSemis skips SEMI tokens that were inserted at newlines; used
// where a construct may continue on the next line (after '{', 'else', ...).
func (p *parser) skipNewlineSemis() { p.skipSemis() }

// ---- Declarations ----

func (p *parser) parseDecl() (Decl, error) {
	// Annotations: @Field, @SuppressWarnings(...) — parsed and dropped.
	for p.tok().Kind == At {
		p.next()
		if _, err := p.expect(IDENT); err != nil {
			return nil, err
		}
		if p.tok().Kind == LParen {
			if err := p.skipBalanced(LParen, RParen); err != nil {
				return nil, err
			}
		}
		p.skipSemis()
	}
	if p.tok().Kind == KwImport {
		p.parseImport()
		return nil, nil
	}

	var mods []string
	for {
		k := p.tok().Kind
		if k == KwPrivate || k == KwPublic || k == KwProtected || k == KwStatic || k == KwFinal {
			mods = append(mods, p.next().Text)
			continue
		}
		break
	}

	if md, ok, err := p.tryParseMethodDecl(mods); err != nil {
		return nil, err
	} else if ok {
		return md, nil
	}
	if len(mods) > 0 {
		// `private foo = ...` script field.
		if p.tok().Kind == IDENT && p.peek(1).Kind == Assign {
			return p.parseStmt()
		}
		return nil, p.errorf("expected method declaration after modifiers")
	}
	return p.parseStmt()
}

func (p *parser) parseImport() {
	// Consume tokens to end of statement.
	for p.tok().Kind != SEMI && p.tok().Kind != EOF {
		p.next()
	}
}

func (p *parser) skipBalanced(open, close Kind) error {
	if _, err := p.expect(open); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		switch p.tok().Kind {
		case EOF:
			return p.errorf("unbalanced %s", open)
		case open:
			depth++
		case close:
			depth--
		}
		p.next()
	}
	return nil
}

// tryParseMethodDecl recognises:
//
//	def name(params) { ... }
//	void name(params) { ... }
//	private Type name(params) { ... }
//	private name(params) { ... }   (with modifiers)
func (p *parser) tryParseMethodDecl(mods []string) (*MethodDecl, bool, error) {
	start := p.i
	pos := p.tok().Pos
	retType := ""
	switch {
	case p.tok().Kind == KwDef || p.tok().Kind == KwVoid:
		isDef := p.tok().Kind == KwDef
		p.next()
		if p.tok().Kind != IDENT || p.peek(1).Kind != LParen {
			p.i = start
			if isDef {
				return nil, false, nil // `def x = ...` variable
			}
			return nil, false, p.errorf("expected method name after void")
		}
	case p.tok().Kind == IDENT:
		// Type name(  |  name(   — with at least one modifier, or at top
		// level when followed by a body brace.
		if p.peek(1).Kind == IDENT && p.peek(2).Kind == LParen {
			retType = p.next().Text
		} else if p.peek(1).Kind == LBrack && p.peek(2).Kind == RBrack &&
			p.peek(3).Kind == IDENT && p.peek(4).Kind == LParen {
			retType = p.next().Text + "[]"
			p.next()
			p.next()
		} else if len(mods) > 0 && p.peek(1).Kind == LParen {
			// private name(...)
		} else {
			return nil, false, nil
		}
	default:
		return nil, false, nil
	}

	nameTok, err := p.expect(IDENT)
	if err != nil {
		return nil, false, err
	}
	if p.tok().Kind != LParen {
		p.i = start
		return nil, false, nil
	}
	params, err := p.parseParamList()
	if err != nil {
		return nil, false, err
	}
	p.skipNewlineSemis()
	if p.tok().Kind != LBrace {
		// Not a declaration after all (e.g. command call `foo (x)`).
		p.i = start
		return nil, false, nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, false, err
	}
	return &MethodDecl{
		Pos: pos, Name: nameTok.Text, Params: params, Body: body,
		Modifiers: mods, Type: retType,
	}, true, nil
}

func (p *parser) parseParamList() ([]Param, error) {
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	var params []Param
	p.skipNewlineSemis()
	for p.tok().Kind != RParen {
		var prm Param
		prm.Pos = p.tok().Pos
		// Optional type: IDENT IDENT or def IDENT.
		if p.tok().Kind == KwDef {
			p.next()
		} else if p.tok().Kind == IDENT && p.peek(1).Kind == IDENT {
			prm.Type = p.next().Text
		}
		t, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		prm.Name = t.Text
		if p.accept(Assign) {
			d, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			prm.Default = d
		}
		params = append(params, prm)
		if !p.accept(Comma) {
			break
		}
		p.skipNewlineSemis()
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	return params, nil
}

// ---- Statements ----

func (p *parser) parseBlock() (*Block, error) {
	tok, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{Pos: tok.Pos}
	p.skipSemis()
	for p.tok().Kind != RBrace {
		if p.tok().Kind == EOF {
			return nil, p.errorf("unterminated block (opened at %s)", tok.Pos)
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		p.skipSemis()
	}
	p.next() // '}'
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	pos := p.tok().Pos
	switch p.tok().Kind {
	case KwDef:
		return p.parseVarDecl()
	case KwIf:
		return p.parseIf()
	case KwWhile:
		return p.parseWhile()
	case KwFor:
		return p.parseFor()
	case KwReturn:
		p.next()
		if k := p.tok().Kind; k == SEMI || k == RBrace || k == EOF {
			return &ReturnStmt{Pos: pos}, nil
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ReturnStmt{Pos: pos, X: x}, nil
	case KwBreak:
		p.next()
		return &BreakStmt{Pos: pos}, nil
	case KwContinue:
		p.next()
		return &ContinueStmt{Pos: pos}, nil
	case KwSwitch:
		return p.parseSwitch()
	case KwTry:
		return p.parseTry()
	case KwThrow:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ThrowStmt{Pos: pos, X: x}, nil
	case LBrace:
		return p.parseBlock()
	case IDENT:
		// Typed local declaration: `Type name = expr` / `Type[] name = expr`.
		if p.peek(1).Kind == IDENT && p.peek(2).Kind == Assign {
			typ := p.next().Text
			name := p.next().Text
			p.next() // '='
			init, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &VarDeclStmt{Pos: pos, Name: name, Type: typ, Init: init}, nil
		}
		if p.peek(1).Kind == LBrack && p.peek(2).Kind == RBrack &&
			p.peek(3).Kind == IDENT {
			typ := p.next().Text + "[]"
			p.next()
			p.next()
			name := p.next().Text
			var init Expr
			if p.accept(Assign) {
				var err error
				init, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			return &VarDeclStmt{Pos: pos, Name: name, Type: typ, Init: init}, nil
		}
	}
	return p.parseExprOrAssign()
}

func (p *parser) parseVarDecl() (Stmt, error) {
	pos := p.tok().Pos
	p.next() // def
	t, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	d := &VarDeclStmt{Pos: pos, Name: t.Text}
	if p.accept(Assign) {
		d.Init, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *parser) parseIf() (Stmt, error) {
	pos := p.tok().Pos
	p.next() // if
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	p.skipNewlineSemis()
	thenB, err := p.parseBranchBody()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Pos: pos, Cond: cond, Then: thenB}
	// `else` may be preceded by inserted SEMIs (newline after `}`).
	save := p.i
	p.skipSemis()
	if p.tok().Kind == KwElse {
		p.next()
		p.skipNewlineSemis()
		if p.tok().Kind == KwIf {
			elseIf, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = elseIf
		} else {
			elseB, err := p.parseBranchBody()
			if err != nil {
				return nil, err
			}
			st.Else = elseB
		}
	} else {
		p.i = save
	}
	return st, nil
}

// parseBranchBody parses either a block or a single statement, wrapping the
// latter in a Block.
func (p *parser) parseBranchBody() (*Block, error) {
	if p.tok().Kind == LBrace {
		return p.parseBlock()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &Block{Pos: s.NodePos(), Stmts: []Stmt{s}}, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	pos := p.tok().Pos
	p.next()
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	p.skipNewlineSemis()
	body, err := p.parseBranchBody()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Pos: pos, Cond: cond, Body: body}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	pos := p.tok().Pos
	p.next() // for
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	// for (x in e) | for (def x in e) | for (init; cond; post)
	save := p.i
	if p.tok().Kind == KwDef || p.tok().Kind == IDENT {
		varIdx := p.i
		if p.tok().Kind == KwDef {
			p.next()
		} else if p.peek(1).Kind == IDENT && p.peek(2).Kind == KwIn {
			p.next() // type name, discarded
		}
		if p.tok().Kind == IDENT && p.peek(1).Kind == KwIn {
			name := p.next().Text
			p.next() // in
			iter, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			p.skipNewlineSemis()
			body, err := p.parseBranchBody()
			if err != nil {
				return nil, err
			}
			return &ForInStmt{Pos: pos, Var: name, Iter: iter, Body: body}, nil
		}
		_ = varIdx
		p.i = save
	}
	// C-style.
	var init, post Stmt
	var cond Expr
	var err error
	if p.tok().Kind != SEMI {
		init, err = p.parseStmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	if p.tok().Kind != SEMI {
		cond, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	if p.tok().Kind != RParen {
		post, err = p.parseStmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	p.skipNewlineSemis()
	body, err := p.parseBranchBody()
	if err != nil {
		return nil, err
	}
	return &ForCStmt{Pos: pos, Init: init, Cond: cond, Post: post, Body: body}, nil
}

func (p *parser) parseSwitch() (Stmt, error) {
	pos := p.tok().Pos
	p.next() // switch
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	subj, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	p.skipNewlineSemis()
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	st := &SwitchStmt{Pos: pos, Subject: subj}
	p.skipSemis()
	for p.tok().Kind != RBrace {
		switch p.tok().Kind {
		case KwCase:
			c := SwitchCase{Pos: p.tok().Pos}
			// Stacked labels: case a: case b: body
			for p.tok().Kind == KwCase {
				p.next()
				v, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.Values = append(c.Values, v)
				if _, err := p.expect(Colon); err != nil {
					return nil, err
				}
				p.skipSemis()
			}
			body, err := p.parseCaseBody()
			if err != nil {
				return nil, err
			}
			c.Body = body
			st.Cases = append(st.Cases, c)
		case KwDefault:
			p.next()
			if _, err := p.expect(Colon); err != nil {
				return nil, err
			}
			p.skipSemis()
			body, err := p.parseCaseBody()
			if err != nil {
				return nil, err
			}
			st.Default = body
		default:
			return nil, p.errorf("expected case or default in switch, found %s", p.tok())
		}
		p.skipSemis()
	}
	p.next() // '}'
	return st, nil
}

func (p *parser) parseCaseBody() ([]Stmt, error) {
	var body []Stmt
	for {
		k := p.tok().Kind
		if k == KwCase || k == KwDefault || k == RBrace || k == EOF {
			return body, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
		p.skipSemis()
	}
}

func (p *parser) parseTry() (Stmt, error) {
	pos := p.tok().Pos
	p.next() // try
	p.skipNewlineSemis()
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &TryStmt{Pos: pos, Body: body}
	p.skipSemis()
	for p.tok().Kind == KwCatch {
		cpos := p.next().Pos
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		var cc CatchClause
		cc.Pos = cpos
		if p.tok().Kind == IDENT && p.peek(1).Kind == IDENT {
			cc.Type = p.next().Text
		}
		t, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		cc.Name = t.Text
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		p.skipNewlineSemis()
		cb, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		cc.Body = cb
		st.Catches = append(st.Catches, cc)
		p.skipSemis()
	}
	if p.tok().Kind == KwFinally {
		p.next()
		p.skipNewlineSemis()
		fb, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		st.Finally = fb
	}
	return st, nil
}

// parseExprOrAssign parses an expression statement, an assignment, or a
// command-syntax call (`input "x", "capability.switch", title: "T"`).
func (p *parser) parseExprOrAssign() (Stmt, error) {
	pos := p.tok().Pos
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch p.tok().Kind {
	case Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign:
		op := p.next().Kind
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !isLValue(x) {
			return nil, &ParseError{Pos: pos, Msg: "invalid assignment target"}
		}
		return &AssignStmt{Pos: pos, LHS: x, Op: op, RHS: rhs}, nil
	}
	// Command syntax: expression is a name (or property chain) followed by
	// the start of an argument on the same line.
	if callable, ok := asCommandTarget(x); ok {
		if p.startsCommandArg() {
			call, err := p.parseCommandArgs(callable)
			if err != nil {
				return nil, err
			}
			return &ExprStmt{Pos: pos, X: call}, nil
		}
		// Builder call with only a closure: `preferences { ... }`.
		if p.tok().Kind == LBrace {
			cl, err := p.parseClosure()
			if err != nil {
				return nil, err
			}
			callable.Closure = cl
			return &ExprStmt{Pos: pos, X: callable}, nil
		}
	}
	return &ExprStmt{Pos: pos, X: x}, nil
}

func isLValue(e Expr) bool {
	switch e.(type) {
	case *Ident, *PropertyExpr, *IndexExpr:
		return true
	}
	return false
}

// asCommandTarget reports whether e can be the target of a parenthesis-free
// call, returning the call skeleton.
func asCommandTarget(e Expr) (*CallExpr, bool) {
	switch t := e.(type) {
	case *Ident:
		return &CallExpr{Pos: t.Pos, Name: t.Name, NoParens: true}, true
	case *PropertyExpr:
		return &CallExpr{Pos: t.Pos, Recv: t.Recv, Name: t.Name, Safe: t.Safe,
			Spread: t.Spread, NoParens: true}, true
	}
	return nil, false
}

// startsCommandArg reports whether the current token can begin the first
// argument of a command-syntax call.
func (p *parser) startsCommandArg() bool {
	switch p.tok().Kind {
	case STRING, GSTRING, INT, NUMBER, KwTrue, KwFalse, KwNull, KwNew:
		return true
	case IDENT:
		// `foo bar` and named args `foo title: x`.
		return true
	case LBrack:
		// `foo [1, 2]` — requires separating space (otherwise indexing
		// would have consumed it during postfix parsing).
		return p.tok().SpaceBefore
	}
	return false
}

func (p *parser) parseCommandArgs(call *CallExpr) (Expr, error) {
	for {
		// Named argument: IDENT ':' expr or STRING ':' expr.
		if (p.tok().Kind == IDENT || p.tok().Kind == STRING) && p.peek(1).Kind == Colon {
			key := p.next()
			p.next() // ':'
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.NamedArgs = append(call.NamedArgs, MapEntry{Pos: key.Pos, Key: key.Text, Value: v})
		} else {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
		}
		if !p.accept(Comma) {
			break
		}
		p.skipNewlineSemis()
	}
	if p.tok().Kind == LBrace {
		cl, err := p.parseClosure()
		if err != nil {
			return nil, err
		}
		call.Closure = cl
	}
	return call, nil
}

// ---- Expressions (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) { return p.parseTernary() }

func (p *parser) parseTernary() (Expr, error) {
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	switch p.tok().Kind {
	case Question:
		pos := p.next().Pos
		p.skipNewlineSemis()
		thenX, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		p.skipNewlineSemis()
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		p.skipNewlineSemis()
		elseX, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		return &TernaryExpr{Pos: pos, Cond: cond, Then: thenX, Else: elseX}, nil
	case Elvis:
		pos := p.next().Pos
		p.skipNewlineSemis()
		y, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		return &ElvisExpr{Pos: pos, X: cond, Y: y}, nil
	}
	return cond, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok().Kind == OrOr {
		pos := p.next().Pos
		p.skipNewlineSemis()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos: pos, Op: OrOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.tok().Kind == AndAnd {
		pos := p.next().Pos
		p.skipNewlineSemis()
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos: pos, Op: AndAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	for {
		switch k := p.tok().Kind; k {
		case Eq, Neq, Lt, Gt, Le, Ge, Compare:
			pos := p.next().Pos
			p.skipNewlineSemis()
			r, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Pos: pos, Op: k, L: l, R: r}
		case KwIn:
			pos := p.next().Pos
			r, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Pos: pos, Op: KwIn, L: l, R: r}
		case KwInstanceof:
			pos := p.next().Pos
			t, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			l = &InstanceofExpr{Pos: pos, X: l, Type: t.Text}
		case KwAs:
			pos := p.next().Pos
			t, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			l = &CastExpr{Pos: pos, X: l, Type: t.Text}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseRange() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.tok().Kind == Range {
		pos := p.next().Pos
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &RangeLit{Pos: pos, Lo: l, Hi: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		k := p.tok().Kind
		if k != Plus && k != Minus {
			return l, nil
		}
		pos := p.next().Pos
		p.skipNewlineSemis()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos: pos, Op: k, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		k := p.tok().Kind
		if k != Star && k != Slash && k != Percent {
			return l, nil
		}
		pos := p.next().Pos
		p.skipNewlineSemis()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos: pos, Op: k, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch k := p.tok().Kind; k {
	case Not, Minus, Plus:
		pos := p.next().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if k == Plus {
			return x, nil
		}
		return &UnaryExpr{Pos: pos, Op: k, X: x}, nil
	case Inc, Dec:
		pos := p.next().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &IncDecExpr{Pos: pos, Op: k, X: x, Prefix: true}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.tok().Kind {
		case Dot, SafeDot, SpreadDot:
			k := p.next().Kind
			nameTok := p.tok()
			var name string
			switch nameTok.Kind {
			case IDENT:
				name = nameTok.Text
			case KwIn, KwDefault, KwNew, KwCase: // keywords usable as member names
				name = nameTok.Kind.String()
			default:
				return nil, p.errorf("expected member name after '.', found %s", nameTok)
			}
			p.next()
			safe := k == SafeDot
			spread := k == SpreadDot
			if p.tok().Kind == LParen && !p.tok().SpaceBefore {
				call := &CallExpr{Pos: nameTok.Pos, Recv: x, Name: name, Safe: safe, Spread: spread}
				if err := p.parseCallArgs(call); err != nil {
					return nil, err
				}
				x = p.maybeTrailingClosure(call)
			} else if p.tok().Kind == LBrace {
				// method with only a closure arg: list.each { ... }
				cl, err := p.parseClosure()
				if err != nil {
					return nil, err
				}
				x = &CallExpr{Pos: nameTok.Pos, Recv: x, Name: name, Safe: safe,
					Spread: spread, Closure: cl}
			} else {
				x = &PropertyExpr{Pos: nameTok.Pos, Recv: x, Name: name, Safe: safe, Spread: spread}
			}
		case LBrack:
			if p.tok().SpaceBefore {
				return x, nil // `foo [..]` is a command arg, not indexing
			}
			pos := p.next().Pos
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBrack); err != nil {
				return nil, err
			}
			x = &IndexExpr{Pos: pos, Recv: x, Index: idx}
		case Inc, Dec:
			k := p.next()
			x = &IncDecExpr{Pos: k.Pos, Op: k.Kind, X: x}
		default:
			return x, nil
		}
	}
}

// maybeTrailingClosure attaches `{ ... }` following a parenthesised call.
func (p *parser) maybeTrailingClosure(call *CallExpr) Expr {
	if p.tok().Kind == LBrace {
		cl, err := p.parseClosure()
		if err == nil {
			call.Closure = cl
		}
	}
	return call
}

func (p *parser) parsePrimary() (Expr, error) {
	tok := p.tok()
	switch tok.Kind {
	case INT:
		p.next()
		v, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", tok.Text)
		}
		return &IntLit{Pos: tok.Pos, V: v}, nil
	case NUMBER:
		p.next()
		v, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return nil, p.errorf("bad number literal %q", tok.Text)
		}
		return &NumLit{Pos: tok.Pos, V: v}, nil
	case STRING:
		p.next()
		return &StrLit{Pos: tok.Pos, V: tok.Text}, nil
	case GSTRING:
		p.next()
		g := &GStringLit{Pos: tok.Pos, Parts: tok.Parts}
		for _, part := range tok.Parts {
			if part.Expr == "" {
				continue
			}
			e, err := ParseExpression(part.Expr)
			if err != nil {
				return nil, &ParseError{Pos: part.Pos,
					Msg: fmt.Sprintf("in ${%s}: %v", part.Expr, err)}
			}
			g.Exprs = append(g.Exprs, e)
		}
		return g, nil
	case KwTrue, KwFalse:
		p.next()
		return &BoolLit{Pos: tok.Pos, V: tok.Kind == KwTrue}, nil
	case KwNull:
		p.next()
		return &NullLit{Pos: tok.Pos}, nil
	case IDENT:
		p.next()
		if p.tok().Kind == LParen && !p.tok().SpaceBefore {
			call := &CallExpr{Pos: tok.Pos, Name: tok.Text}
			if err := p.parseCallArgs(call); err != nil {
				return nil, err
			}
			return p.maybeTrailingClosure(call), nil
		}
		return &Ident{Pos: tok.Pos, Name: tok.Text}, nil
	case LParen:
		p.next()
		p.skipNewlineSemis()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.skipNewlineSemis()
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return x, nil
	case LBrack:
		return p.parseListOrMap()
	case LBrace:
		return p.parseClosure()
	case KwNew:
		p.next()
		t, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		typ := t.Text
		// Qualified type names: new java.util.Date()
		for p.tok().Kind == Dot {
			p.next()
			t2, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			typ += "." + t2.Text
		}
		ne := &NewExpr{Pos: tok.Pos, Type: typ}
		if p.tok().Kind == LParen {
			call := &CallExpr{}
			if err := p.parseCallArgs(call); err != nil {
				return nil, err
			}
			ne.Args = call.Args
		}
		return ne, nil
	}
	return nil, p.errorf("unexpected %s in expression", tok)
}

func (p *parser) parseCallArgs(call *CallExpr) error {
	if _, err := p.expect(LParen); err != nil {
		return err
	}
	p.skipNewlineSemis()
	for p.tok().Kind != RParen {
		if (p.tok().Kind == IDENT || p.tok().Kind == STRING) && p.peek(1).Kind == Colon {
			key := p.next()
			p.next() // ':'
			p.skipNewlineSemis()
			v, err := p.parseExpr()
			if err != nil {
				return err
			}
			call.NamedArgs = append(call.NamedArgs, MapEntry{Pos: key.Pos, Key: key.Text, Value: v})
		} else if p.tok().Kind == LParen && p.isParenKey() {
			// Dynamic named key: (expr): value
			p.next()
			kx, err := p.parseExpr()
			if err != nil {
				return err
			}
			if _, err := p.expect(RParen); err != nil {
				return err
			}
			if _, err := p.expect(Colon); err != nil {
				return err
			}
			v, err := p.parseExpr()
			if err != nil {
				return err
			}
			call.NamedArgs = append(call.NamedArgs, MapEntry{Pos: p.tok().Pos, KeyX: kx, Value: v})
		} else {
			a, err := p.parseExpr()
			if err != nil {
				return err
			}
			call.Args = append(call.Args, a)
		}
		p.skipNewlineSemis()
		if !p.accept(Comma) {
			break
		}
		p.skipNewlineSemis()
	}
	_, err := p.expect(RParen)
	return err
}

// isParenKey looks ahead for the `(expr):` named-argument form.
func (p *parser) isParenKey() bool {
	depth := 0
	for j := p.i; j < len(p.toks); j++ {
		switch p.toks[j].Kind {
		case LParen:
			depth++
		case RParen:
			depth--
			if depth == 0 {
				return j+1 < len(p.toks) && p.toks[j+1].Kind == Colon
			}
		case EOF:
			return false
		}
	}
	return false
}

func (p *parser) parseListOrMap() (Expr, error) {
	tok, err := p.expect(LBrack)
	if err != nil {
		return nil, err
	}
	p.skipNewlineSemis()
	// Empty map [:]
	if p.tok().Kind == Colon && p.peek(1).Kind == RBrack {
		p.next()
		p.next()
		return &MapLit{Pos: tok.Pos}, nil
	}
	// Empty list []
	if p.tok().Kind == RBrack {
		p.next()
		return &ListLit{Pos: tok.Pos}, nil
	}
	// Decide map vs list by peeking for `key:`.
	if (p.tok().Kind == IDENT || p.tok().Kind == STRING || p.tok().Kind == INT) &&
		p.peek(1).Kind == Colon {
		return p.parseMapRest(tok.Pos)
	}
	if p.tok().Kind == LParen && p.isParenKey() {
		return p.parseMapRest(tok.Pos)
	}
	l := &ListLit{Pos: tok.Pos}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		l.Elems = append(l.Elems, e)
		p.skipNewlineSemis()
		if !p.accept(Comma) {
			break
		}
		p.skipNewlineSemis()
		if p.tok().Kind == RBrack {
			break // trailing comma
		}
	}
	if _, err := p.expect(RBrack); err != nil {
		return nil, err
	}
	return l, nil
}

func (p *parser) parseMapRest(pos Pos) (Expr, error) {
	m := &MapLit{Pos: pos}
	for {
		var e MapEntry
		e.Pos = p.tok().Pos
		switch {
		case p.tok().Kind == LParen:
			p.next()
			kx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			e.KeyX = kx
		case p.tok().Kind == IDENT || p.tok().Kind == STRING || p.tok().Kind == INT:
			e.Key = p.next().Text
		default:
			return nil, p.errorf("expected map key, found %s", p.tok())
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		p.skipNewlineSemis()
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		e.Value = v
		m.Entries = append(m.Entries, e)
		p.skipNewlineSemis()
		if !p.accept(Comma) {
			break
		}
		p.skipNewlineSemis()
		if p.tok().Kind == RBrack {
			break
		}
	}
	if _, err := p.expect(RBrack); err != nil {
		return nil, err
	}
	return m, nil
}

func (p *parser) parseClosure() (*ClosureExpr, error) {
	tok, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	cl := &ClosureExpr{Pos: tok.Pos, Implicit: true}
	p.skipSemis()
	// Explicit parameter list: IDENT (, IDENT)* '->'   or bare '->'.
	if params, n := p.scanClosureParams(); n >= 0 {
		cl.Params = params
		cl.Implicit = false
		p.i += n
		p.skipSemis()
	}
	body := &Block{Pos: tok.Pos}
	for p.tok().Kind != RBrace {
		if p.tok().Kind == EOF {
			return nil, p.errorf("unterminated closure (opened at %s)", tok.Pos)
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body.Stmts = append(body.Stmts, s)
		p.skipSemis()
	}
	p.next() // '}'
	cl.Body = body
	return cl, nil
}

// scanClosureParams looks ahead for `p1, p2 ->` returning the parameters
// and the token count to consume, or n = -1 when the closure has no
// explicit parameter list.
func (p *parser) scanClosureParams() ([]Param, int) {
	j := p.i
	if p.toks[j].Kind == Arrow {
		return nil, 1
	}
	var params []Param
	for {
		// optional type
		if p.toks[j].Kind == KwDef {
			j++
		} else if p.toks[j].Kind == IDENT && j+1 < len(p.toks) && p.toks[j+1].Kind == IDENT {
			j++
		}
		if p.toks[j].Kind != IDENT {
			return nil, -1
		}
		params = append(params, Param{Pos: p.toks[j].Pos, Name: p.toks[j].Text})
		j++
		switch p.toks[j].Kind {
		case Comma:
			j++
		case Arrow:
			return params, j + 1 - p.i
		default:
			return nil, -1
		}
	}
}

// Fields returns the names of script-level variables declared by top-level
// statements (rarely used by market apps but supported).
func (s *Script) Fields() []string {
	var out []string
	for _, d := range s.Decls {
		if v, ok := d.(*VarDeclStmt); ok {
			out = append(out, v.Name)
		}
	}
	return out
}

// Methods returns the method declarations of the script keyed by name.
func (s *Script) Methods() map[string]*MethodDecl {
	m := make(map[string]*MethodDecl)
	for _, d := range s.Decls {
		if md, ok := d.(*MethodDecl); ok {
			m[md.Name] = md
		}
	}
	return m
}

// TopLevelCalls returns top-level expression statements that are calls
// (definition, preferences, mappings, ...).
func (s *Script) TopLevelCalls() []*CallExpr {
	var out []*CallExpr
	for _, d := range s.Decls {
		if es, ok := d.(*ExprStmt); ok {
			if c, ok := es.X.(*CallExpr); ok {
				out = append(out, c)
			}
		}
	}
	return out
}

// String renders a compact single-line description of an expression,
// used in diagnostics and violation traces.
func ExprString(e Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e)
	return sb.String()
}

func writeExpr(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case nil:
		sb.WriteString("<nil>")
	case *Ident:
		sb.WriteString(x.Name)
	case *IntLit:
		fmt.Fprintf(sb, "%d", x.V)
	case *NumLit:
		fmt.Fprintf(sb, "%g", x.V)
	case *StrLit:
		fmt.Fprintf(sb, "%q", x.V)
	case *GStringLit:
		sb.WriteString(`"`)
		i := 0
		for _, p := range x.Parts {
			if p.Expr != "" {
				fmt.Fprintf(sb, "${%s}", p.Expr)
				i++
			} else {
				sb.WriteString(p.Lit)
			}
		}
		sb.WriteString(`"`)
	case *BoolLit:
		fmt.Fprintf(sb, "%t", x.V)
	case *NullLit:
		sb.WriteString("null")
	case *ListLit:
		sb.WriteString("[")
		for i, el := range x.Elems {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, el)
		}
		sb.WriteString("]")
	case *MapLit:
		sb.WriteString("[")
		if len(x.Entries) == 0 {
			sb.WriteString(":")
		}
		for i, en := range x.Entries {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(en.Key)
			sb.WriteString(": ")
			writeExpr(sb, en.Value)
		}
		sb.WriteString("]")
	case *RangeLit:
		writeExpr(sb, x.Lo)
		sb.WriteString("..")
		writeExpr(sb, x.Hi)
	case *PropertyExpr:
		writeExpr(sb, x.Recv)
		if x.Safe {
			sb.WriteString("?.")
		} else if x.Spread {
			sb.WriteString("*.")
		} else {
			sb.WriteString(".")
		}
		sb.WriteString(x.Name)
	case *IndexExpr:
		writeExpr(sb, x.Recv)
		sb.WriteString("[")
		writeExpr(sb, x.Index)
		sb.WriteString("]")
	case *CallExpr:
		if x.Recv != nil {
			writeExpr(sb, x.Recv)
			if x.Safe {
				sb.WriteString("?.")
			} else if x.Spread {
				sb.WriteString("*.")
			} else {
				sb.WriteString(".")
			}
		}
		sb.WriteString(x.Name)
		sb.WriteString("(")
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a)
		}
		for i, na := range x.NamedArgs {
			if i > 0 || len(x.Args) > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(na.Key)
			sb.WriteString(": ")
			writeExpr(sb, na.Value)
		}
		sb.WriteString(")")
		if x.Closure != nil {
			sb.WriteString(" { ... }")
		}
	case *ClosureExpr:
		sb.WriteString("{ ... }")
	case *BinaryExpr:
		writeExpr(sb, x.L)
		fmt.Fprintf(sb, " %s ", x.Op)
		writeExpr(sb, x.R)
	case *UnaryExpr:
		sb.WriteString(x.Op.String())
		writeExpr(sb, x.X)
	case *IncDecExpr:
		writeExpr(sb, x.X)
		sb.WriteString(x.Op.String())
	case *TernaryExpr:
		writeExpr(sb, x.Cond)
		sb.WriteString(" ? ")
		writeExpr(sb, x.Then)
		sb.WriteString(" : ")
		writeExpr(sb, x.Else)
	case *ElvisExpr:
		writeExpr(sb, x.X)
		sb.WriteString(" ?: ")
		writeExpr(sb, x.Y)
	case *CastExpr:
		writeExpr(sb, x.X)
		sb.WriteString(" as ")
		sb.WriteString(x.Type)
	case *InstanceofExpr:
		writeExpr(sb, x.X)
		sb.WriteString(" instanceof ")
		sb.WriteString(x.Type)
	case *NewExpr:
		sb.WriteString("new ")
		sb.WriteString(x.Type)
		sb.WriteString("(")
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a)
		}
		sb.WriteString(")")
	default:
		fmt.Fprintf(sb, "<%T>", e)
	}
}
