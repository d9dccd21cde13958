package smartapp_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"iotsan/internal/corpus"
	"iotsan/internal/smartapp"
)

// FuzzTranslate: Translate returns an app or an error, exactly one, and
// never panics. The seeds are every corpus app and the lexer's
// string-literal edge table, each literal both alone and as the name and
// a logged message of a minimal app.
func FuzzTranslate(f *testing.F) {
	for _, app := range corpus.Apps() {
		f.Add(app.Groovy)
	}
	data, err := os.ReadFile("../groovy/testdata/string_edges.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lit, err := strconv.Unquote(line)
		if err != nil {
			f.Fatalf("string_edges.txt: %q: %v", line, err)
		}
		f.Add(lit)
		f.Add("definition(name: " + lit + ")\ndef installed() { log.debug " + lit + " }\n")
	}
	f.Fuzz(func(t *testing.T, src string) {
		app, err := smartapp.Translate(src)
		if (app == nil) == (err == nil) {
			t.Fatalf("Translate returned app %v and error %v; want exactly one", app != nil, err)
		}
	})
}
