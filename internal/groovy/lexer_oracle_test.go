package groovy

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"iotsan/internal/corpus"
)

// stringEdges reads testdata/string_edges.txt: string literals that stop
// the copy-free decoder at each of its breaks — an escape first, in the
// middle or last, next to an interpolation, an escaped dollar, multibyte
// and invalid UTF-8, empty and escape-only literals, and literals that
// never close — one Go-quoted literal per line.
func stringEdges(t testing.TB) []string {
	t.Helper()
	data, err := os.ReadFile("testdata/string_edges.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("string_edges.txt: %q: %v", line, err)
		}
		out = append(out, s)
	}
	return out
}

// TestLexStringOracle: the string-literal decoders give the same token —
// kind, text, parts and their positions — the same error, and stop at the
// same place as the strings.Builder decoders they replaced (refSingle,
// refDouble below), on every literal of every corpus app and on the edge
// table (stringEdges); and Tokenize's stream carries those tokens.
func TestLexStringOracle(t *testing.T) {
	srcs := stringEdges(t)
	for _, app := range corpus.Apps() {
		srcs = append(srcs, app.Groovy)
	}
	literals := 0
	for _, src := range srcs {
		toks, err := Tokenize(src)
		if err != nil {
			// An unterminated edge: decode it from the start.
			checkLiteral(t, src, Token{Kind: -1, Pos: Pos{1, 1}}, 0)
			literals++
			continue
		}
		line, col, off := 1, 1, 0
		for _, tok := range toks {
			if tok.Kind != STRING && tok.Kind != GSTRING {
				continue
			}
			// Walk to the token's position, counting as the lexer does.
			for line != tok.Pos.Line || col != tok.Pos.Col {
				r, w := utf8.DecodeRuneInString(src[off:])
				off += w
				if r == '\n' {
					line, col = line+1, 1
				} else {
					col++
				}
			}
			checkLiteral(t, src, tok, off)
			literals++
		}
	}
	if literals < 1000 {
		t.Fatalf("checked %d literals; the corpus alone has thousands", literals)
	}
}

// checkLiteral decodes the literal at offset off of src with both
// decoders, from fresh lexers, and compares them with each other and,
// when it is a token of the stream (Kind >= 0), with tok.
func checkLiteral(t *testing.T, src string, tok Token, off int) {
	t.Helper()
	if src[off] != '\'' && src[off] != '"' {
		return // a triple-quoted or otherwise unsupported start
	}
	at := func() *Lexer { return &Lexer{src: src, off: off, line: tok.Pos.Line, col: tok.Pos.Col} }
	got, want := at(), at()
	var gotTok, wantTok Token
	var gotErr, wantErr error
	if src[off] == '\'' {
		gotTok, gotErr = got.lexSingleQuoted(tok.Pos)
		wantTok, wantErr = refSingle(want, tok.Pos)
	} else {
		gotTok, gotErr = got.lexDoubleQuoted(tok.Pos)
		wantTok, wantErr = refDouble(want, tok.Pos)
	}
	name := src[off:min(len(src), off+40)]
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Errorf("%q: error %v, want %v", name, gotErr, wantErr)
		return
	}
	if !reflect.DeepEqual(gotTok, wantTok) {
		t.Errorf("%q: token %#v, want %#v", name, gotTok, wantTok)
	}
	if got.off != want.off || got.line != want.line || got.col != want.col || got.last != want.last {
		t.Errorf("%q: stopped at %d (%d:%d, last %v), want %d (%d:%d, last %v)", name,
			got.off, got.line, got.col, got.last, want.off, want.line, want.col, want.last)
	}
	wantTok.SpaceBefore = tok.SpaceBefore // Next's, not the decoder's
	if tok.Kind >= 0 && !reflect.DeepEqual(tok, wantTok) {
		t.Errorf("%q: Tokenize gave %#v, want %#v", name, tok, wantTok)
	}
}

// refSingle and refDouble are the decoders that copied every literal rune
// through a strings.Builder.

func refSingle(lx *Lexer, pos Pos) (Token, error) {
	lx.nextRune()
	var sb strings.Builder
	for {
		c := lx.nextRune()
		switch {
		case c < 0 || c == '\n':
			return Token{}, &LexError{pos, "unterminated string literal"}
		case c == '\\':
			e, err := lx.lexEscape()
			if err != nil {
				return Token{}, err
			}
			sb.WriteRune(e)
		case c == '\'':
			lx.last = STRING
			return Token{Kind: STRING, Pos: pos, Text: sb.String()}, nil
		default:
			sb.WriteRune(c)
		}
	}
}

func refDouble(lx *Lexer, pos Pos) (Token, error) {
	lx.nextRune()
	var parts []StringPart
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			parts = append(parts, StringPart{Lit: sb.String(), Pos: pos})
			sb.Reset()
		}
	}
	for {
		c := lx.nextRune()
		switch {
		case c < 0 || c == '\n':
			return Token{}, &LexError{pos, "unterminated string literal"}
		case c == '\\':
			e, err := lx.lexEscape()
			if err != nil {
				return Token{}, err
			}
			sb.WriteRune(e)
		case c == '"':
			flush()
			if len(parts) == 0 {
				lx.last = STRING
				return Token{Kind: STRING, Pos: pos, Text: ""}, nil
			}
			if len(parts) == 1 && parts[0].Expr == "" {
				lx.last = STRING
				return Token{Kind: STRING, Pos: pos, Text: parts[0].Lit}, nil
			}
			lx.last = GSTRING
			return Token{Kind: GSTRING, Pos: pos, Parts: parts}, nil
		case c == '$' && lx.peekRune() == '{':
			flush()
			epos := lx.pos()
			lx.nextRune()
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
		case c == '$' && isIdentStart(lx.peekRune()):
			flush()
			epos := lx.pos()
			start := lx.off
			for isIdentPart(lx.peekRune()) {
				lx.nextRune()
			}
			for lx.peekRune() == '.' && isIdentStart(rune(lx.peekAt(1))) {
				lx.nextRune()
				for isIdentPart(lx.peekRune()) {
					lx.nextRune()
				}
			}
			parts = append(parts, StringPart{Expr: lx.src[start:lx.off], Pos: epos})
		default:
			sb.WriteRune(c)
		}
	}
}
