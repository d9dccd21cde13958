package groovy_test

import (
	"testing"

	"iotsan/internal/corpus"
	"iotsan/internal/groovy"
)

// FuzzParseScript: ParseScript returns an error or a script, and never
// panics. The seeds are every corpus app plus inline fragments that stop
// the lexer and the parser in the middle of a construct.
func FuzzParseScript(f *testing.F) {
	for _, seed := range []string{
		``,
		`def x = `,
		`def f(a, b) { a ? b : }`,
		`"${`,
		`"""unterminated`,
		`/slashy/`,
		`foo { it -> it.bar?.baz*.qux }`,
		`switch (x) { case 1: break; default: }`,
		`try { } catch (e) { } finally { }`,
		`for (int i = 0; i < 3; i++) { }`,
		`[a: 1, (b): 2, "c": [3, 4]]`,
		`x as Integer instanceof Number`,
	} {
		f.Add(seed)
	}
	for _, app := range corpus.Apps() {
		f.Add(app.Groovy)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := groovy.ParseScript(src)
		if (s == nil) == (err == nil) {
			t.Fatalf("ParseScript returned script %v and error %v; want exactly one", s != nil, err)
		}
	})
}
