package groovy

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// A LexError reports a lexical error with its source position.
type LexError struct {
	Pos Pos
	Msg string
}

func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans Groovy source into tokens. Like Groovy (and Go), statement
// separators are inserted at newlines when the previous token could end a
// statement and the lexer is not inside parentheses or brackets.
type Lexer struct {
	src      string
	off      int // byte offset of next rune
	line     int
	col      int
	depth    int  // ( and [ nesting; newlines inside are insignificant
	last     Kind // previous significant token kind, for SEMI insertion
	sawSpace bool // whitespace/comment was skipped before the current token
}

// NewLexer returns a Lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// bytesPerToken sizes Tokenize's result: no corpus app averages fewer
// source bytes per token (they range from about 4.5 to 7.4), so the
// stream of a typical app fits without regrowing.
const bytesPerToken = 4

// Tokenize scans all of src, returning the token stream terminated by EOF.
func Tokenize(src string) ([]Token, error) {
	toks, err := appendTokens(make([]Token, 0, len(src)/bytesPerToken+1), src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// appendTokens appends the token stream of src, terminated by EOF, to
// toks. On a lexical error it returns what it appended so far, so that
// a caller who lent toks gets its storage back either way.
func appendTokens(toks []Token, src string) ([]Token, error) {
	lx := NewLexer(src)
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) peekRune() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.off:])
	return r
}

func (lx *Lexer) peekAt(n int) byte {
	if lx.off+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+n]
}

func (lx *Lexer) nextRune() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	r, w := utf8.DecodeRuneInString(lx.src[lx.off:])
	lx.off += w
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

// canEndStatement reports whether a token kind may terminate a statement,
// enabling newline→SEMI insertion.
func canEndStatement(k Kind) bool {
	switch k {
	case IDENT, INT, NUMBER, STRING, GSTRING, RParen, RBrack, RBrace,
		KwTrue, KwFalse, KwNull, KwBreak, KwContinue, KwReturn, Inc, Dec:
		return true
	}
	return false
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	lx.sawSpace = false
	t, err := lx.scan()
	if err != nil {
		return Token{}, err
	}
	t.SpaceBefore = lx.sawSpace
	return t, nil
}

func (lx *Lexer) scan() (Token, error) {
	for {
		// Skip horizontal whitespace; handle newlines for SEMI insertion.
		for {
			r := lx.peekRune()
			if r == ' ' || r == '\t' || r == '\r' {
				lx.sawSpace = true
				lx.nextRune()
				continue
			}
			if r == '\\' && lx.peekAt(1) == '\n' { // line continuation
				lx.sawSpace = true
				lx.nextRune()
				lx.nextRune()
				continue
			}
			if r == '\n' {
				lx.sawSpace = true
				pos := lx.pos()
				lx.nextRune()
				if lx.depth == 0 && canEndStatement(lx.last) {
					lx.last = SEMI
					return Token{Kind: SEMI, Pos: pos}, nil
				}
				continue
			}
			break
		}

		pos := lx.pos()
		r := lx.peekRune()
		if r < 0 {
			return Token{Kind: EOF, Pos: pos}, nil
		}

		// Comments.
		if r == '/' && lx.peekAt(1) == '/' {
			lx.sawSpace = true
			for lx.peekRune() >= 0 && lx.peekRune() != '\n' {
				lx.nextRune()
			}
			continue
		}
		if r == '/' && lx.peekAt(1) == '*' {
			lx.sawSpace = true
			lx.nextRune()
			lx.nextRune()
			for {
				c := lx.nextRune()
				if c < 0 {
					return Token{}, &LexError{pos, "unterminated block comment"}
				}
				if c == '*' && lx.peekRune() == '/' {
					lx.nextRune()
					break
				}
			}
			continue
		}

		switch {
		case isIdentStart(r):
			return lx.lexIdent(pos), nil
		case unicode.IsDigit(r):
			return lx.lexNumber(pos)
		case r == '\'':
			return lx.lexSingleQuoted(pos)
		case r == '"':
			return lx.lexDoubleQuoted(pos)
		}
		return lx.lexOperator(pos)
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (lx *Lexer) lexIdent(pos Pos) Token {
	start := lx.off
	for isIdentPart(lx.peekRune()) {
		lx.nextRune()
	}
	text := lx.src[start:lx.off]
	if k, ok := keywords[text]; ok {
		lx.last = k
		return Token{Kind: k, Pos: pos, Text: text}
	}
	lx.last = IDENT
	return Token{Kind: IDENT, Pos: pos, Text: text}
}

func (lx *Lexer) lexNumber(pos Pos) (Token, error) {
	start := lx.off
	kind := INT
	for unicode.IsDigit(lx.peekRune()) {
		lx.nextRune()
	}
	// Fractional part — but not the range operator `1..5`.
	if lx.peekRune() == '.' && lx.peekAt(1) != '.' && unicode.IsDigit(rune(lx.peekAt(1))) {
		kind = NUMBER
		lx.nextRune()
		for unicode.IsDigit(lx.peekRune()) {
			lx.nextRune()
		}
	}
	// Groovy numeric suffixes (G, L, I, D, F) — accepted and ignored.
	if r := lx.peekRune(); r == 'G' || r == 'L' || r == 'I' || r == 'D' || r == 'F' ||
		r == 'g' || r == 'l' || r == 'i' || r == 'd' || r == 'f' {
		if r == 'D' || r == 'F' || r == 'd' || r == 'f' {
			kind = NUMBER
		}
		lx.nextRune()
		lx.last = kind
		return Token{Kind: kind, Pos: pos, Text: strings.TrimRight(lx.src[start:lx.off], "GLIDFglidf")}, nil
	}
	lx.last = kind
	return Token{Kind: kind, Pos: pos, Text: lx.src[start:lx.off]}, nil
}

func (lx *Lexer) lexEscape() (rune, error) {
	c := lx.nextRune()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	case '$':
		return '$', nil
	case '0':
		return 0, nil
	default:
		if c < 0 {
			return 0, &LexError{lx.pos(), "unterminated escape"}
		}
		return c, nil
	}
}

// litRun accumulates the text of one literal part of a string. A part
// without escapes is a slice of the source. Only a part that an escape
// (or an invalid UTF-8 byte, which decodes to U+FFFD) breaks up is
// copied: the source runs between the breaks go into sb with the
// decoded runes.
type litRun struct {
	start int             // source offset of the run not yet in sb
	sb    strings.Builder // the part's text before start; empty without a break
}

// decoded ends the run at end, appends r in its place, and starts the
// next run at next.
func (l *litRun) decoded(src string, end int, r rune, next int) {
	l.sb.WriteString(src[l.start:end])
	l.sb.WriteRune(r)
	l.start = next
}

// take returns the part's text up to end and empties the builder.
func (l *litRun) take(src string, end int) string {
	s := src[l.start:end]
	if l.sb.Len() > 0 { // a break wrote at least one byte
		l.sb.WriteString(s)
		s = l.sb.String()
		l.sb.Reset()
	}
	return s
}

// nextLitRune consumes the next rune of a string literal, decoding an
// escape into lit, and returns the raw rune — a backslash for an escape,
// which no caller takes for a delimiter — with its source offset.
func (lx *Lexer) nextLitRune(lit *litRun) (c rune, at int, err error) {
	at = lx.off
	c = lx.nextRune()
	switch {
	case c == '\\':
		e, err := lx.lexEscape()
		if err != nil {
			return 0, at, err
		}
		lit.decoded(lx.src, at, e, lx.off)
	case c == utf8.RuneError && lx.off-at == 1:
		lit.decoded(lx.src, at, c, lx.off)
	}
	return c, at, nil
}

func (lx *Lexer) lexSingleQuoted(pos Pos) (Token, error) {
	lx.nextRune() // opening quote
	lit := litRun{start: lx.off}
	for {
		c, at, err := lx.nextLitRune(&lit)
		switch {
		case err != nil:
			return Token{}, err
		case c < 0 || c == '\n':
			return Token{}, &LexError{pos, "unterminated string literal"}
		case c == '\'':
			lx.last = STRING
			return Token{Kind: STRING, Pos: pos, Text: lit.take(lx.src, at)}, nil
		}
	}
}

// lexDoubleQuoted scans a double-quoted string. If it contains no
// interpolation it is returned as a plain STRING; otherwise as a GSTRING
// whose parts alternate literal text and embedded expression source.
func (lx *Lexer) lexDoubleQuoted(pos Pos) (Token, error) {
	lx.nextRune() // opening quote
	var parts []StringPart
	lit := litRun{start: lx.off}
	flush := func(end int) {
		if s := lit.take(lx.src, end); s != "" {
			parts = append(parts, StringPart{Lit: s, Pos: pos})
		}
	}
	for {
		c, at, err := lx.nextLitRune(&lit)
		switch {
		case err != nil:
			return Token{}, err
		case c < 0 || c == '\n':
			return Token{}, &LexError{pos, "unterminated string literal"}
		case c == '"':
			if len(parts) == 0 {
				lx.last = STRING
				return Token{Kind: STRING, Pos: pos, Text: lit.take(lx.src, at)}, nil
			}
			flush(at)
			lx.last = GSTRING
			return Token{Kind: GSTRING, Pos: pos, Parts: parts}, nil
		case c == '$' && lx.peekRune() == '{':
			flush(at)
			epos := lx.pos()
			lx.nextRune() // '{'
			depth := 1
			start := lx.off
			for depth > 0 {
				e := lx.nextRune()
				if e < 0 {
					return Token{}, &LexError{pos, "unterminated ${...} interpolation"}
				}
				switch e {
				case '{':
					depth++
				case '}':
					depth--
				}
			}
			parts = append(parts, StringPart{Expr: lx.src[start : lx.off-1], Pos: epos})
			lit.start = lx.off
		case c == '$' && isIdentStart(lx.peekRune()):
			flush(at)
			epos := lx.pos()
			start := lx.off
			for isIdentPart(lx.peekRune()) {
				lx.nextRune()
			}
			// Allow dotted references: $evt.value
			for lx.peekRune() == '.' && isIdentStart(rune(lx.peekAt(1))) {
				lx.nextRune()
				for isIdentPart(lx.peekRune()) {
					lx.nextRune()
				}
			}
			parts = append(parts, StringPart{Expr: lx.src[start:lx.off], Pos: epos})
			lit.start = lx.off
		}
	}
}

func (lx *Lexer) lexOperator(pos Pos) (Token, error) {
	emit := func(k Kind, n int) (Token, error) {
		for i := 0; i < n; i++ {
			lx.nextRune()
		}
		switch k {
		case LParen, LBrack:
			lx.depth++
		case RParen, RBrack:
			if lx.depth > 0 {
				lx.depth--
			}
		}
		lx.last = k
		return Token{Kind: k, Pos: pos}, nil
	}
	c := lx.peekRune()
	c1 := rune(lx.peekAt(1))
	c2 := rune(lx.peekAt(2))
	switch c {
	case '(':
		return emit(LParen, 1)
	case ')':
		return emit(RParen, 1)
	case '[':
		return emit(LBrack, 1)
	case ']':
		return emit(RBrack, 1)
	case '{':
		return emit(LBrace, 1)
	case '}':
		return emit(RBrace, 1)
	case ',':
		return emit(Comma, 1)
	case ';':
		return emit(SEMI, 1)
	case ':':
		return emit(Colon, 1)
	case '@':
		return emit(At, 1)
	case '.':
		if c1 == '.' {
			return emit(Range, 2)
		}
		return emit(Dot, 1)
	case '?':
		switch c1 {
		case '.':
			return emit(SafeDot, 2)
		case ':':
			return emit(Elvis, 2)
		}
		return emit(Question, 1)
	case '-':
		switch c1 {
		case '>':
			return emit(Arrow, 2)
		case '=':
			return emit(MinusAssign, 2)
		case '-':
			return emit(Dec, 2)
		}
		return emit(Minus, 1)
	case '+':
		switch c1 {
		case '=':
			return emit(PlusAssign, 2)
		case '+':
			return emit(Inc, 2)
		}
		return emit(Plus, 1)
	case '*':
		switch c1 {
		case '.':
			return emit(SpreadDot, 2)
		case '=':
			return emit(StarAssign, 2)
		case '*':
			return emit(StarStar, 2)
		}
		return emit(Star, 1)
	case '/':
		if c1 == '=' {
			return emit(SlashAssign, 2)
		}
		return emit(Slash, 1)
	case '%':
		return emit(Percent, 1)
	case '=':
		if c1 == '=' {
			return emit(Eq, 2)
		}
		return emit(Assign, 1)
	case '!':
		if c1 == '=' {
			return emit(Neq, 2)
		}
		return emit(Not, 1)
	case '<':
		if c1 == '=' && c2 == '>' {
			return emit(Compare, 3)
		}
		if c1 == '=' {
			return emit(Le, 2)
		}
		return emit(Lt, 1)
	case '>':
		if c1 == '=' {
			return emit(Ge, 2)
		}
		return emit(Gt, 1)
	case '&':
		if c1 == '&' {
			return emit(AndAnd, 2)
		}
	case '|':
		if c1 == '|' {
			return emit(OrOr, 2)
		}
	}
	return Token{}, &LexError{pos, fmt.Sprintf("unexpected character %q", c)}
}
