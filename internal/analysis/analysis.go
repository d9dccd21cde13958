// Package analysis implements a small, dependency-free static-analysis
// framework and the five iotsan analyzers (dirtymark, readmark,
// recyclelive, digestfunnel, atomicpad) that enforce the checker's unwritten
// contracts at compile time. The framework mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — but is
// built entirely on the standard library so the suite works in
// environments without the x/tools module.
//
// Analyzers communicate with the source through `//iotsan:` directive
// comments (see INVARIANTS.md for the full vocabulary):
//
//	//iotsan:marks <block>         on a dirty-mask mark helper
//	//iotsan:block <block>         on a State storage field or type
//	//iotsan:reads <block>         on a read helper (the read half of the mark contract)
//	//iotsan:transition            on transition code: a function, or a type whose methods all are
//	//iotsan:retires <param>       on a recycle/retire sink
//	//iotsan:hash-sink             on a raw hash primitive
//	//iotsan:digest-funnel         on a sanctioned digest implementation
//	//iotsan:state-encode          on a state-encoding method
//	//iotsan:padded                on a cacheline-quantized struct
//	//iotsan:allow <analyzer> -- <justification>   suppression
//
// A suppression without the mandatory `-- justification` text is
// itself reported by the analyzer it names and does not suppress.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //iotsan:allow suppression comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to a single type-checked package.
	Run func(*Pass) error
}

// A Diagnostic is a single finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass holds one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Sizes    types.Sizes

	allows *allowIndex
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos unless a justified
// //iotsan:allow comment for this analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allows.allowed(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportBareAllows emits a diagnostic for every //iotsan:allow naming
// this analyzer that lacks the mandatory justification text. Bare
// allows are inert: they never suppress, so these diagnostics cannot
// be self-suppressed.
func (p *Pass) reportBareAllows() {
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok || d.kind != "allow" {
					continue
				}
				if d.allowName() == p.Analyzer.Name && !d.allowJustified() {
					p.report(Diagnostic{
						Pos:      p.Fset.Position(c.Pos()),
						Analyzer: p.Analyzer.Name,
						Message: fmt.Sprintf("iotsan:allow %s requires a justification: //iotsan:allow %s -- <why this is safe>",
							p.Analyzer.Name, p.Analyzer.Name),
					})
				}
			}
		}
	}
}

// Analyzers returns the full iotsan suite in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DirtyMarkAnalyzer,
		ReadMarkAnalyzer,
		RecycleLiveAnalyzer,
		DigestFunnelAnalyzer,
		AtomicPadAnalyzer,
	}
}

// Run applies each analyzer to pkg and returns the findings sorted by
// position. It is the single entry point used by both the iotsan-vet
// driver and the fixture test harness.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows := buildAllowIndex(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Sizes:    pkg.Sizes,
			allows:   allows,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		pass.reportBareAllows()
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// --- directive parsing ---

// A directive is one parsed //iotsan: comment.
type directive struct {
	pos  token.Pos
	kind string // "marks", "block", "retires", "hash-sink", ...
	args string // remainder after the kind, trimmed
}

// parseDirective parses a single comment; ok is false when the comment
// is not an iotsan directive.
func parseDirective(c *ast.Comment) (directive, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	if !strings.HasPrefix(text, "iotsan:") {
		return directive{}, false
	}
	body := strings.TrimPrefix(text, "iotsan:")
	kind, args, _ := strings.Cut(body, " ")
	return directive{pos: c.Pos(), kind: strings.TrimSpace(kind), args: strings.TrimSpace(args)}, true
}

// parseDirectives parses every iotsan directive in a comment group.
func parseDirectives(cg *ast.CommentGroup) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		if d, ok := parseDirective(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// nodeDirectives gathers the directives attached to a declaration
// site: its doc comment plus an optional trailing line comment.
func nodeDirectives(groups ...*ast.CommentGroup) []directive {
	var out []directive
	for _, cg := range groups {
		out = append(out, parseDirectives(cg)...)
	}
	return out
}

// allowName returns the analyzer name an allow directive targets.
func (d directive) allowName() string {
	name, _, _ := strings.Cut(d.args, " ")
	return strings.TrimSpace(name)
}

// allowJustified reports whether the allow carries the mandatory
// "-- justification" text with a non-empty justification.
func (d directive) allowJustified() bool {
	_, just, found := strings.Cut(d.args, "--")
	return found && strings.TrimSpace(just) != ""
}

// --- suppression index ---

// allowIndex records, per file and line, which analyzers carry a
// justified suppression. An allow comment on line L covers findings on
// L (trailing comment) and L+1 (comment on its own line above the
// statement). A function-doc allow covers the whole function through
// the range index, so diagnostics inside its body are covered too.
type allowIndex struct {
	// lines maps filename -> line -> set of analyzer names allowed.
	lines map[string]map[int]map[string]bool
	// funcRanges maps filename -> list of [startLine, endLine, name].
	funcRanges map[string][]allowRange
}

type allowRange struct {
	start, end int
	name       string
}

func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	ix := &allowIndex{
		lines:      make(map[string]map[int]map[string]bool),
		funcRanges: make(map[string][]allowRange),
	}
	add := func(filename string, line int, name string) {
		m := ix.lines[filename]
		if m == nil {
			m = make(map[int]map[string]bool)
			ix.lines[filename] = m
		}
		for _, l := range [2]int{line, line + 1} {
			if m[l] == nil {
				m[l] = make(map[string]bool)
			}
			m[l][name] = true
		}
	}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok || d.kind != "allow" || !d.allowJustified() {
					continue
				}
				pos := fset.Position(c.Pos())
				add(pos.Filename, pos.Line, d.allowName())
			}
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, d := range parseDirectives(fn.Doc) {
				if d.kind != "allow" || !d.allowJustified() {
					continue
				}
				start := fset.Position(fn.Pos())
				end := fset.Position(fn.End())
				ix.funcRanges[start.Filename] = append(ix.funcRanges[start.Filename],
					allowRange{start: start.Line, end: end.Line, name: d.allowName()})
			}
		}
	}
	return ix
}

func (ix *allowIndex) allowed(analyzer string, pos token.Position) bool {
	if m := ix.lines[pos.Filename]; m != nil && m[pos.Line][analyzer] {
		return true
	}
	for _, r := range ix.funcRanges[pos.Filename] {
		if r.name == analyzer && pos.Line >= r.start && pos.Line <= r.end {
			return true
		}
	}
	return false
}
