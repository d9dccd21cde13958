package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DirtyMarkAnalyzer enforces the PR 6 dirty-mask mark contract: inside
// a package that declares mark helpers (functions annotated
// `//iotsan:marks <block>`), every write to block-backed state storage
// (fields or types annotated `//iotsan:block <block>`) must be paired
// in the same function with a call to the matching mark helper, or to
// a helper annotated `//iotsan:marks all`.
//
// A helper that mutates annotated storage on behalf of its callers can
// be annotated `//iotsan:writes <block>`: its own body is exempt for
// that block, and every call to it counts as a write of that block at
// the call site, moving the mark obligation to the caller.
//
// The check is syntactic within one function body: a mark call
// anywhere in the function (including conditionally) satisfies the
// pairing, which matches how the runtime walk oracle exercises the
// contract. Packages with no `//iotsan:marks` helpers are ignored.
var DirtyMarkAnalyzer = &Analyzer{
	Name: "dirtymark",
	Doc:  "state mutations must be paired with the matching dirty-mask mark call",
	Run:  runDirtyMark,
}

func runDirtyMark(pass *Pass) error {
	// Learn the mutation→mark map from annotations.
	markFns := make(map[*types.Func]string)  // mark helper -> block ("all" wildcard)
	writeFns := make(map[*types.Func]string) // caller-marked writer -> block
	helperName := make(map[string]string)    // block -> helper name, for messages
	for _, fn := range funcDecls(pass) {
		obj := pass.Info.Defs[fn.Name].(*types.Func)
		for _, dir := range parseDirectives(fn.Doc) {
			switch dir.kind {
			case "marks":
				markFns[obj] = dir.args
				if dir.args != "all" {
					helperName[dir.args] = fn.Name.Name
				}
			case "writes":
				writeFns[obj] = dir.args
			}
		}
	}
	if len(markFns) == 0 {
		return nil // package does not participate in the mark contract
	}
	blocks := newBlockIndex(pass)

	for _, fn := range funcDecls(pass) {
		if fn.Body == nil {
			continue
		}
		fnObj := pass.Info.Defs[fn.Name].(*types.Func)
		if _, isMark := markFns[fnObj]; isMark {
			continue
		}
		exempt := map[string]bool{}
		if b, ok := writeFns[fnObj]; ok {
			exempt[b] = true
		}

		required := make(map[string]token.Pos) // block -> first write pos
		marked := make(map[string]bool)
		need := func(block string, pos token.Pos) {
			if block == "" || exempt[block] {
				return
			}
			if _, ok := required[block]; !ok {
				required[block] = pos
			}
		}

		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
						continue
					}
					need(blocks.of(lhs, false), lhs.Pos())
				}
			case *ast.IncDecStmt:
				need(blocks.of(s.X, false), s.X.Pos())
			case *ast.CallExpr:
				callee := calleeFunc(pass.Info, s)
				if callee == nil {
					return true
				}
				if b, ok := markFns[callee]; ok {
					marked[b] = true
				}
				if b, ok := writeFns[callee]; ok {
					need(b, s.Pos())
				}
			}
			return true
		})

		for _, b := range sortedKeys(required) {
			if marked[b] || marked["all"] {
				continue
			}
			helper := helperName[b]
			if helper == "" {
				helper = "the " + b + " mark helper"
			}
			pass.Reportf(required[b],
				"write to %s-block state is not paired with %s (or a marks-all helper) in this function", b, helper)
		}
	}
	return nil
}

// funcDecls returns the package's declared functions and methods.
func funcDecls(pass *Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if _, ok := pass.Info.Defs[fn.Name].(*types.Func); ok {
					out = append(out, fn)
				}
			}
		}
	}
	return out
}

func sortedKeys(m map[string]token.Pos) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// blockIndex is a package's block annotations — `//iotsan:block
// <block>` on a struct field, or on a type declaration to put every
// field of that struct in the block — shared by the dirtymark and
// readmark analyzers.
type blockIndex struct {
	info  *types.Info
	field map[types.Object]string
	named map[*types.TypeName]string
}

func newBlockIndex(pass *Pass) *blockIndex {
	bi := &blockIndex{info: pass.Info, field: map[types.Object]string{}, named: map[*types.TypeName]string{}}
	recordFieldBlocks := func(st *ast.StructType, block string) {
		for _, f := range st.Fields.List {
			for _, name := range f.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					bi.field[obj] = block
				}
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, isStruct := ts.Type.(*ast.StructType)
				for _, dir := range nodeDirectives(d.Doc, ts.Doc, ts.Comment) {
					if dir.kind != "block" {
						continue
					}
					if tn, _ := pass.Info.Defs[ts.Name].(*types.TypeName); tn != nil {
						bi.named[tn] = dir.args
					}
					if isStruct {
						recordFieldBlocks(st, dir.args)
					}
				}
				// Per-field annotations inside any struct type.
				if !isStruct {
					continue
				}
				for _, f := range st.Fields.List {
					for _, dir := range nodeDirectives(f.Doc, f.Comment) {
						if dir.kind != "block" {
							continue
						}
						for _, name := range f.Names {
							if obj := pass.Info.Defs[name]; obj != nil {
								bi.field[obj] = dir.args
							}
						}
					}
				}
			}
		}
	}
	return bi
}

// of resolves an access path to its annotated block, or "". derefed
// tracks whether the walk has passed through an index, dereference, or
// field step: a bare identifier assignment rebinds a variable and is
// never a state write, but writing through one (d.Online = ...,
// arr[i] = ...) mutates the pointed-to object. Unannotated field
// selections descend into their base, so as.Timers[i].Delay resolves
// through the annotated Timers field.
func (bi *blockIndex) of(expr ast.Expr, derefed bool) string {
	switch e := expr.(type) {
	case *ast.IndexExpr:
		return bi.of(e.X, true)
	case *ast.StarExpr:
		return bi.of(e.X, true)
	case *ast.ParenExpr:
		return bi.of(e.X, derefed)
	case *ast.SelectorExpr:
		if sel := bi.info.Selections[e]; sel != nil {
			if b, ok := bi.field[sel.Obj()]; ok {
				return b
			}
		}
		return bi.of(e.X, true)
	case *ast.Ident:
		if !derefed {
			return ""
		}
		obj := bi.info.Uses[e]
		if obj == nil {
			return ""
		}
		t := obj.Type()
		for {
			switch tt := t.(type) {
			case *types.Pointer:
				t = tt.Elem()
				continue
			case *types.Slice:
				t = tt.Elem()
				continue
			case *types.Array:
				t = tt.Elem()
				continue
			}
			break
		}
		if named, ok := t.(*types.Named); ok {
			if b, ok := bi.named[named.Obj()]; ok {
				return b
			}
		}
	}
	return ""
}

// calleeFunc resolves the static callee of a call, or nil for builtins,
// function values, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// pathString renders an expression as a canonical access-path string
// for taint keys, e.g. "ent.state" or "trs[i].Next". It returns "" for
// expressions that are not rooted at a plain identifier.
func pathString(e ast.Expr) string {
	var b strings.Builder
	if !writePath(&b, e) {
		return ""
	}
	return b.String()
}

func writePath(b *strings.Builder, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
		return true
	case *ast.SelectorExpr:
		if !writePath(b, e.X) {
			return false
		}
		b.WriteByte('.')
		b.WriteString(e.Sel.Name)
		return true
	case *ast.IndexExpr:
		if !writePath(b, e.X) {
			return false
		}
		b.WriteByte('[')
		if id, ok := ast.Unparen(e.Index).(*ast.Ident); ok {
			b.WriteString(id.Name)
		} else {
			b.WriteByte('*')
		}
		b.WriteByte(']')
		return true
	case *ast.StarExpr:
		return writePath(b, e.X)
	case *ast.ParenExpr:
		return writePath(b, e.X)
	}
	return false
}
