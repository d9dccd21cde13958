package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ReadMarkAnalyzer enforces the read half of the mark contract: inside a
// package that declares read helpers (functions annotated
// `//iotsan:reads <block>`), every read of block-backed state storage
// (fields or types annotated `//iotsan:block <block>`) in transition
// code must be paired in the same function with a call to the matching
// read helper. Transition code is every function annotated
// `//iotsan:transition` and every method of a type so annotated.
//
// A read is any use of block storage other than as the target of a
// plain assignment: an operand, a range expression, an address taken,
// an increment, a method receiver. Index expressions inside an
// assignment target are reads too. Writes are the dirtymark analyzer's
// business; a block a function writes but never reads needs no read
// helper. The read helpers themselves are exempt.
//
// The check is syntactic within one function body, like dirtymark's: a
// helper call anywhere in the function satisfies the pairing.
// Packages with no `//iotsan:reads` helpers are ignored.
var ReadMarkAnalyzer = &Analyzer{
	Name: "readmark",
	Doc:  "reads of state in transition code must be paired with the matching read helper call",
	Run:  runReadMark,
}

func runReadMark(pass *Pass) error {
	readFns := make(map[*types.Func]string) // read helper -> block
	helperName := make(map[string]string)   // block -> helper name, for messages
	transition := make(map[*types.Func]bool)
	transitionTypes := make(map[*types.TypeName]bool)
	for _, fn := range funcDecls(pass) {
		obj := pass.Info.Defs[fn.Name].(*types.Func)
		for _, dir := range parseDirectives(fn.Doc) {
			switch dir.kind {
			case "reads":
				readFns[obj] = dir.args
				if h := helperName[dir.args]; h != "" {
					helperName[dir.args] = h + " or " + fn.Name.Name
				} else {
					helperName[dir.args] = fn.Name.Name
				}
			case "transition":
				transition[obj] = true
			}
		}
	}
	if len(readFns) == 0 {
		return nil // package does not participate in the read contract
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
				for _, dir := range nodeDirectives(d.Doc, ts.Doc, ts.Comment) {
					if tn, _ := pass.Info.Defs[ts.Name].(*types.TypeName); dir.kind == "transition" && tn != nil {
						transitionTypes[tn] = true
					}
				}
			}
		}
	}
	inTransition := func(fn *types.Func) bool {
		if transition[fn] {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && transitionTypes[named.Obj()]
	}
	blocks := newBlockIndex(pass)

	for _, fn := range funcDecls(pass) {
		fnObj := pass.Info.Defs[fn.Name].(*types.Func)
		if _, isHelper := readFns[fnObj]; isHelper || fn.Body == nil || !inTransition(fnObj) {
			continue
		}
		required := make(map[string]token.Pos) // block -> first read pos
		helped := make(map[string]bool)

		// visit walks statements; reads walks an expression evaluated
		// for its value, where every access path that resolves to a
		// block is a read; target walks an assignment target, whose path
		// is written, not read, but whose indexes are evaluated.
		var visit func(ast.Node) bool
		var reads, target func(ast.Expr)
		reads = func(e ast.Expr) {
			ast.Inspect(e, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					ast.Inspect(n.Body, visit)
					return false
				case *ast.CallExpr:
					if b, ok := readFns[calleeFunc(pass.Info, n)]; ok {
						helped[b] = true
					}
				}
				if e, ok := n.(ast.Expr); ok {
					if b := blocks.of(e, false); b != "" {
						if _, ok := required[b]; !ok {
							required[b] = e.Pos()
						}
					}
				}
				return true
			})
		}
		target = func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.IndexExpr:
				reads(e.Index)
				target(e.X)
			case *ast.SelectorExpr:
				target(e.X)
			case *ast.StarExpr:
				target(e.X)
			case *ast.ParenExpr:
				target(e.X)
			}
		}
		visit = func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
						target(lhs)
					} else {
						reads(lhs) // x op= y reads x
					}
				}
				for _, rhs := range s.Rhs {
					reads(rhs)
				}
				return false
			case *ast.RangeStmt:
				for _, kv := range []ast.Expr{s.Key, s.Value} {
					if kv != nil {
						target(kv)
					}
				}
				reads(s.X)
				ast.Inspect(s.Body, visit)
				return false
			case ast.Expr:
				reads(s)
				return false
			}
			return true
		}
		ast.Inspect(fn.Body, visit)

		for _, b := range sortedKeys(required) {
			if helped[b] {
				continue
			}
			helper := helperName[b]
			if helper == "" {
				helper = "the " + b + " read helper"
			}
			pass.Reportf(required[b], "read of %s-block state is not paired with %s in this transition function", b, helper)
		}
	}
	return nil
}
