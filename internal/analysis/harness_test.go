package analysis

// An analysistest-style golden-fixture harness: each analyzer is run
// over a fixture package under testdata/src/<name>/, and the resulting
// diagnostics are matched line-by-line against `want` expectations
// embedded in the fixture's comments. A want expectation is the word
// `want` followed by one or more quoted regular expressions:
//
//	s.Mode = 3 // want `write to header-block state`
//
// Every diagnostic must match an expectation on its line and every
// expectation must be matched, so fixtures fail both on missed
// violations (the analyzer lost a check) and on spurious ones.

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var fixtureLoader = struct {
	once sync.Once
	l    *Loader
}{}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	fixtureLoader.once.Do(func() { fixtureLoader.l = NewSourceLoader() })
	pkg, err := fixtureLoader.l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

var (
	wantRe   = regexp.MustCompile("//.*?\\bwant\\b((?:\\s+(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"))+)")
	quotedRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

type wantKey struct {
	file string
	line int
}

// parseWants extracts the expectations from every fixture file.
func parseWants(t *testing.T, pkg *Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(filename)
		if err != nil {
			t.Fatalf("reading %s: %v", filename, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := wantKey{file: filename, line: i + 1}
			for _, q := range quotedRe.FindAllString(m[1], -1) {
				var pat string
				if q[0] == '`' {
					pat = q[1 : len(q)-1]
				} else {
					pat, err = strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", filename, i+1, q, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", filename, i+1, pat, err)
				}
				wants[key] = append(wants[key], re)
			}
		}
	}
	return wants
}

// runFixture runs one analyzer over its fixture package and matches
// diagnostics against the embedded expectations.
func runFixture(t *testing.T, name string, a *Analyzer) {
	t.Helper()
	pkg := loadFixture(t, name)
	wants := parseWants(t, pkg)
	diags, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	matched := make(map[wantKey][]bool)
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		key := wantKey{file: d.Pos.Filename, line: d.Pos.Line}
		res := wants[key]
		found := false
		for i, re := range res {
			if matched[key][i] {
				continue
			}
			if re.MatchString(d.Message) {
				matched[key][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for key, res := range wants {
		for i, re := range res {
			if !matched[key][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none",
					relPath(key.file), key.line, re)
			}
		}
	}
}

func relPath(p string) string {
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, p); err == nil {
			return r
		}
	}
	return p
}

func TestDirtyMarkFixture(t *testing.T)    { runFixture(t, "dirtymark", DirtyMarkAnalyzer) }
func TestReadMarkFixture(t *testing.T)     { runFixture(t, "readmark", ReadMarkAnalyzer) }
func TestRecycleLiveFixture(t *testing.T)  { runFixture(t, "recyclelive", RecycleLiveAnalyzer) }
func TestDigestFunnelFixture(t *testing.T) { runFixture(t, "digestfunnel", DigestFunnelAnalyzer) }
func TestAtomicPadFixture(t *testing.T)    { runFixture(t, "atomicpad", AtomicPadAnalyzer) }

// TestSuiteOrder pins the diagnostic ordering contract of Run: findings
// come out sorted by file, line, column regardless of analyzer order.
func TestSuiteOrder(t *testing.T) {
	pkg := loadFixture(t, "dirtymark")
	diags, err := Run(pkg, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", a, b)
		}
	}
}
