package eval

import (
	"fmt"

	"iotsan/internal/groovy"
	"iotsan/internal/ir"
)

// scopedClosure is the interpreter's closure handle for the shared
// builtins: the AST closure plus the scope it is invoked against
// (Groovy's closures see the call-site scope).
type scopedClosure struct {
	cl *groovy.ClosureExpr
	sc *scope
}

// evalRT adapts an (Evaluator, scope) pair to the rt interface the
// shared builtins run against.
type evalRT struct {
	ev *Evaluator
	sc *scope
}

func (r evalRT) rtHost() Host      { return r.ev.Host }
func (r evalRT) rtAppName() string { return r.ev.App.Name }
func (r evalRT) rtCall(cl any, args []ir.Value) (ir.Value, error) {
	s := cl.(scopedClosure)
	return r.ev.callClosure(s.cl, args, s.sc)
}

// closureHandle boxes a trailing closure for the shared builtins; nil
// when the call has none.
func closureHandle(cl *groovy.ClosureExpr, sc *scope) any {
	if cl == nil {
		return nil
	}
	return scopedClosure{cl: cl, sc: sc}
}

func (ev *Evaluator) evalCall(x *groovy.CallExpr, sc *scope) (ir.Value, error) {
	// log.debug / log.info / ... — cheap and extremely common.
	if id, ok := x.Recv.(*groovy.Ident); ok && id.Name == "log" {
		if len(x.Args) > 0 {
			if _, err := ev.evalExpr(x.Args[0], sc); err != nil {
				return ir.NullV(), err
			}
		}
		ev.Host.Log(x.Name)
		return ir.NullV(), nil
	}
	if id, ok := x.Recv.(*groovy.Ident); ok && id.Name == "Math" {
		return ev.mathCall(x, sc)
	}

	// Evaluate positional and named arguments.
	args := make([]ir.Value, 0, len(x.Args))
	for _, a := range x.Args {
		v, err := ev.evalExpr(a, sc)
		if err != nil {
			return ir.NullV(), err
		}
		args = append(args, v)
	}
	named := map[string]ir.Value{}
	for _, na := range x.NamedArgs {
		v, err := ev.evalExpr(na.Value, sc)
		if err != nil {
			return ir.NullV(), err
		}
		named[na.Key] = v
	}

	if x.Recv == nil {
		return ev.bareCall(x, args, named, sc)
	}

	// Method call on a receiver.
	recv, err := ev.evalExpr(x.Recv, sc)
	if err != nil {
		return ir.NullV(), err
	}
	if recv.Kind == ir.VNull {
		return ir.NullV(), nil // safe-nav / guarded optional inputs
	}
	if x.Spread {
		var out []ir.Value
		for _, item := range iterate(recv) {
			v, err := ev.methodCall(item, x, args, sc)
			if err != nil {
				return ir.NullV(), err
			}
			out = append(out, v)
		}
		return ir.ListV(out), nil
	}
	return ev.methodCall(recv, x, args, sc)
}

// bareCall dispatches calls with no receiver: platform APIs and user
// methods.
func (ev *Evaluator) bareCall(x *groovy.CallExpr, args []ir.Value, named map[string]ir.Value, sc *scope) (ir.Value, error) {
	if v, ok := bareBuiltin(evalRT{ev, sc}, x, args, named); ok {
		return v, nil
	}

	// User-defined method.
	if m := ev.App.Methods[x.Name]; m != nil {
		return ev.callMethod(m, args)
	}
	// Closure-valued variable: def f = {...}; f(x).
	if owner, ok := sc.lookup(x.Name); ok {
		if cv := owner.vars[x.Name]; cv.Kind == ir.VClosure {
			return ev.callClosure(cv.Closure(), args, sc)
		}
	}
	return ir.NullV(), &ExecError{App: ev.App.Name, Pos: x.Pos,
		Msg: fmt.Sprintf("unknown function %q", x.Name)}
}

func (ev *Evaluator) mathCall(x *groovy.CallExpr, sc *scope) (ir.Value, error) {
	args := make([]float64, 0, len(x.Args))
	for _, a := range x.Args {
		v, err := ev.evalExpr(a, sc)
		if err != nil {
			return ir.NullV(), err
		}
		args = append(args, v.AsFloat())
	}
	return mathMethod(ev.App.Name, x.Name, args, x.Pos)
}

// methodCall dispatches a call on a receiver value: device commands,
// collection utilities, string methods.
func (ev *Evaluator) methodCall(recv ir.Value, x *groovy.CallExpr, args []ir.Value, sc *scope) (ir.Value, error) {
	v, handled, err := methodOnValue(evalRT{ev, sc}, recv, x, args, closureHandle(x.Closure, sc))
	if handled {
		return v, err
	}
	// location.setMode("Away") etc.
	if id, ok := x.Recv.(*groovy.Ident); ok && id.Name == "location" {
		switch x.Name {
		case "setMode":
			ev.Host.SetLocationMode(argStr(args, 0))
			return ir.NullV(), nil
		case "getMode":
			return ir.StrV(ev.Host.LocationMode()), nil
		}
	}
	return ir.NullV(), &ExecError{App: ev.App.Name, Pos: x.Pos,
		Msg: fmt.Sprintf("unsupported method %s on %v value", x.Name, recv.Kind)}
}

// callClosure invokes a closure with the given arguments; closures see
// the enclosing scope (Groovy lexical scoping).
func (ev *Evaluator) callClosure(cl *groovy.ClosureExpr, args []ir.Value, sc *scope) (ir.Value, error) {
	ev.depth++
	defer func() { ev.depth-- }()
	if ev.depth > ev.limits().MaxDepth {
		return ir.NullV(), &ExecError{App: ev.App.Name, Pos: cl.Pos, Msg: "closure depth exceeded"}
	}
	vars := map[string]ir.Value{}
	if cl.Implicit {
		if len(args) > 0 {
			vars["it"] = args[0]
		}
	} else {
		for i, p := range cl.Params {
			if i < len(args) {
				vars[p.Name] = args[i]
			} else {
				vars[p.Name] = ir.NullV()
			}
		}
	}
	inner := &scope{vars: vars, parent: sc}
	v, _, err := ev.execBlock(cl.Body, inner)
	return v, err
}
