package eval

import (
	"fmt"

	"iotsan/internal/groovy"
	"iotsan/internal/ir"
)

// call compiles a method or function call, mirroring evalCall: the
// log/Math fast paths, argument-then-receiver evaluation order, bare
// platform builtins before user methods, and per-kind receiver
// dispatch through the shared builtins.
func (c *compiler) call(x *groovy.CallExpr) exprFn {
	pos := x.Pos

	// log.debug / log.info / ... — only the first argument is evaluated,
	// with no shadowing check (interpreter quirk, mirrored).
	if id, ok := x.Recv.(*groovy.Ident); ok && id.Name == "log" {
		var arg exprFn
		if len(x.Args) > 0 {
			arg = c.unread(x.Args[0])
		}
		level := x.Name
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			if arg != nil {
				if _, err := arg(env); err != nil {
					return ir.NullV(), err
				}
			}
			env.Host.Log(level)
			return ir.NullV(), nil
		}
	}
	if id, ok := x.Recv.(*groovy.Ident); ok && id.Name == "Math" {
		args := make([]exprFn, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.expr(a)
		}
		name := x.Name
		appName := c.appName
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			fargs := make([]float64, 0, len(args))
			for _, f := range args {
				v, err := f(env)
				if err != nil {
					return ir.NullV(), err
				}
				fargs = append(fargs, v.AsFloat())
			}
			return mathMethod(appName, name, fargs, pos)
		}
	}

	// The host discards the arguments of a notification builtin from the
	// message on (Host takes no text), so those compile through unread.
	unreadFrom := unreadArgsFrom(x)
	compileArg := c.expr
	argFns := make([]exprFn, len(x.Args))
	for i, a := range x.Args {
		if i == unreadFrom {
			compileArg = c.unread
		}
		argFns[i] = compileArg(a)
	}
	if unreadFrom >= 0 {
		compileArg = c.unread
	}
	type cnamed struct {
		key string
		fn  exprFn
	}
	namedFns := make([]cnamed, len(x.NamedArgs))
	for i, na := range x.NamedArgs {
		namedFns[i] = cnamed{key: na.Key, fn: compileArg(na.Value)}
	}
	// evalArgs evaluates positional args onto the env arg stack and the
	// named args into a map (only allocated when present), preserving
	// the interpreter's evaluation order.
	evalArgs := func(env *Env, mark int) ([]ir.Value, map[string]ir.Value, error) {
		for _, f := range argFns {
			v, err := f(env)
			if err != nil {
				return nil, nil, err
			}
			env.appendArg(v)
		}
		var named map[string]ir.Value
		if len(namedFns) > 0 {
			named = make(map[string]ir.Value, len(namedFns))
			for _, nf := range namedFns {
				v, err := nf.fn(env)
				if err != nil {
					return nil, nil, err
				}
				named[nf.key] = v
			}
		}
		return env.argsFrom(mark), named, nil
	}

	if x.Recv == nil {
		return c.bareCall(x, evalArgs)
	}

	recvFn := c.expr(x.Recv)
	var clAny any
	if x.Closure != nil {
		clAny = any(c.closure(x.Closure))
	}
	isLocationRecv := false
	if id, ok := x.Recv.(*groovy.Ident); ok && id.Name == "location" {
		isLocationRecv = true
	}
	name := x.Name
	appName := c.appName
	spread := x.Spread
	return func(env *Env) (ir.Value, error) {
		if err := env.step(pos); err != nil {
			return ir.NullV(), err
		}
		mark := env.argMark()
		args, _, err := evalArgs(env, mark)
		if err != nil {
			env.popArgs(mark)
			return ir.NullV(), err
		}
		defer env.popArgs(mark)

		recv, err := recvFn(env)
		if err != nil {
			return ir.NullV(), err
		}
		if recv.Kind == ir.VNull {
			return ir.NullV(), nil // safe-nav / guarded optional inputs
		}
		dispatch := func(recv ir.Value) (ir.Value, error) {
			v, handled, err := methodOnValue(env, recv, x, args, clAny)
			if handled {
				return v, err
			}
			if isLocationRecv {
				switch name {
				case "setMode":
					env.Host.SetLocationMode(argStr(args, 0))
					return ir.NullV(), nil
				case "getMode":
					return ir.StrV(env.Host.LocationMode()), nil
				}
			}
			return ir.NullV(), &ExecError{App: appName, Pos: pos,
				Msg: fmt.Sprintf("unsupported method %s on %v value", name, recv.Kind)}
		}
		if spread {
			var out []ir.Value
			for _, item := range iterate(recv) {
				v, err := dispatch(item)
				if err != nil {
					return ir.NullV(), err
				}
				out = append(out, v)
			}
			return ir.ListV(out), nil
		}
		return dispatch(recv)
	}
}

// bareCall compiles a receiverless call: platform builtins first, then
// user methods, then the unknown-function error (closure-valued
// variables cannot occur — closure values abort compilation).
func (c *compiler) bareCall(x *groovy.CallExpr, evalArgs func(*Env, int) ([]ir.Value, map[string]ir.Value, error)) exprFn {
	pos := x.Pos
	appName := c.appName
	if isBareBuiltin(x.Name) {
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			mark := env.argMark()
			args, named, err := evalArgs(env, mark)
			if err != nil {
				env.popArgs(mark)
				return ir.NullV(), err
			}
			v, _ := bareBuiltin(env, x, args, named)
			env.popArgs(mark)
			return v, nil
		}
	}
	if c.capp.App.Methods[x.Name] != nil {
		name := x.Name
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			mark := env.argMark()
			args, _, err := evalArgs(env, mark)
			if err != nil {
				env.popArgs(mark)
				return ir.NullV(), err
			}
			v, err := env.call(env.capp.Methods[name], args)
			env.popArgs(mark)
			return v, err
		}
	}
	// Not a builtin, not a method: mirror the interpreter's unknown-
	// function error (a scope variable could only satisfy the call if it
	// held a closure, and closure values abort compilation).
	return func(env *Env) (ir.Value, error) {
		if err := env.step(pos); err != nil {
			return ir.NullV(), err
		}
		mark := env.argMark()
		_, _, err := evalArgs(env, mark)
		env.popArgs(mark)
		if err != nil {
			return ir.NullV(), err
		}
		return ir.NullV(), &ExecError{App: appName, Pos: pos,
			Msg: fmt.Sprintf("unknown function %q", x.Name)}
	}
}

// closure compiles a trailing closure into a closFn sharing the current
// frame (lexical slots). Each invocation clears the slots the closure
// subtree allocated, mirroring the interpreter's fresh closure scope.
func (c *compiler) closure(cl *groovy.ClosureExpr) closFn {
	c.pushScope()
	lo := c.nslots
	var paramSlots []int
	itSlot := -1
	if cl.Implicit {
		itSlot = c.declare("it")
	} else {
		for _, p := range cl.Params {
			paramSlots = append(paramSlots, c.declare(p.Name))
		}
	}
	body := c.stmts(cl.Body)
	hi := c.nslots
	c.popScope()
	appName := c.appName
	clPos := cl.Pos
	return func(env *Env, args []ir.Value) (ir.Value, error) {
		env.depth++
		defer func() { env.depth-- }()
		if env.depth > env.maxDepth {
			return ir.NullV(), &ExecError{App: appName, Pos: clPos, Msg: "closure depth exceeded"}
		}
		env.clearSlots(lo, hi)
		if itSlot >= 0 {
			if len(args) > 0 {
				env.setSlot(itSlot, args[0])
			}
		} else {
			for i, slot := range paramSlots {
				if i < len(args) {
					env.setSlot(slot, args[i])
				}
			}
		}
		v, _, err := body(env)
		return v, err
	}
}
