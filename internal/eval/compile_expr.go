package eval

import (
	"fmt"
	"strings"

	"iotsan/internal/groovy"
	"iotsan/internal/ir"
)

// expr compiles one expression node into an exprFn. Every node counts
// one interpreter step at entry, exactly like evalExpr, so step-budget
// exhaustion fires at the same point in both execution modes.
func (c *compiler) expr(e groovy.Expr) exprFn {
	pos := e.NodePos()
	switch x := e.(type) {
	case *groovy.IntLit:
		return c.constExpr(pos, ir.IntV(x.V))
	case *groovy.NumLit:
		return c.constExpr(pos, ir.NumV(x.V))
	case *groovy.StrLit:
		return c.constExpr(pos, ir.StrV(x.V))
	case *groovy.BoolLit:
		return c.constExpr(pos, ir.BoolV(x.V))
	case *groovy.NullLit:
		return c.constExpr(pos, ir.NullV())
	case *groovy.GStringLit:
		return c.gstring(x)
	case *groovy.Ident:
		return c.ident(x)
	case *groovy.ListLit:
		elems := make([]exprFn, len(x.Elems))
		for i, el := range x.Elems {
			elems[i] = c.expr(el)
		}
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			out := make([]ir.Value, 0, len(elems))
			for _, f := range elems {
				v, err := f(env)
				if err != nil {
					return ir.NullV(), err
				}
				out = append(out, v)
			}
			return ir.ListV(out), nil
		}
	case *groovy.MapLit:
		type centry struct {
			key  string
			keyX exprFn
			val  exprFn
		}
		entries := make([]centry, len(x.Entries))
		for i, en := range x.Entries {
			ce := centry{key: en.Key, val: c.expr(en.Value)}
			if en.KeyX != nil {
				ce.keyX = c.expr(en.KeyX)
			}
			entries[i] = ce
		}
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			m := map[string]ir.Value{}
			for _, en := range entries {
				key := en.key
				if en.keyX != nil {
					kv, err := en.keyX(env)
					if err != nil {
						return ir.NullV(), err
					}
					key = kv.String()
				}
				v, err := en.val(env)
				if err != nil {
					return ir.NullV(), err
				}
				m[key] = v
			}
			return ir.MapV(m), nil
		}
	case *groovy.RangeLit:
		lo := c.expr(x.Lo)
		hi := c.expr(x.Hi)
		appName := c.appName
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			lv, err := lo(env)
			if err != nil {
				return ir.NullV(), err
			}
			hv, err := hi(env)
			if err != nil {
				return ir.NullV(), err
			}
			a, b := lv.AsInt(), hv.AsInt()
			if b-a > 1000 {
				return ir.NullV(), &ExecError{App: appName, Pos: x.Pos, Msg: "range too large"}
			}
			var out []ir.Value
			for i := a; i <= b; i++ {
				out = append(out, ir.IntV(i))
			}
			return ir.ListV(out), nil
		}
	case *groovy.BinaryExpr:
		return c.binary(x)
	case *groovy.UnaryExpr:
		sub := c.expr(x.X)
		op := x.Op
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			v, err := sub(env)
			if err != nil {
				return ir.NullV(), err
			}
			switch op {
			case groovy.Not:
				return ir.BoolV(!v.Truthy()), nil
			case groovy.Minus:
				if v.Kind == ir.VNum {
					return ir.NumV(-v.F()), nil
				}
				return ir.IntV(-v.AsInt()), nil
			}
			return v, nil
		}
	case *groovy.IncDecExpr:
		return c.incDec(x)
	case *groovy.TernaryExpr:
		cond := c.expr(x.Cond)
		then := c.expr(x.Then)
		els := c.expr(x.Else)
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			cv, err := cond(env)
			if err != nil {
				return ir.NullV(), err
			}
			if cv.Truthy() {
				return then(env)
			}
			return els(env)
		}
	case *groovy.ElvisExpr:
		l := c.expr(x.X)
		r := c.expr(x.Y)
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			v, err := l(env)
			if err != nil {
				return ir.NullV(), err
			}
			if v.Truthy() {
				return v, nil
			}
			return r(env)
		}
	case *groovy.CastExpr:
		sub := c.expr(x.X)
		typ := x.Type
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			v, err := sub(env)
			if err != nil {
				return ir.NullV(), err
			}
			return castValue(v, typ), nil
		}
	case *groovy.InstanceofExpr:
		sub := c.expr(x.X)
		typ := x.Type
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			v, err := sub(env)
			if err != nil {
				return ir.NullV(), err
			}
			return ir.BoolV(instanceOf(v, typ)), nil
		}
	case *groovy.NewExpr:
		if x.Type == "Date" || strings.HasSuffix(x.Type, ".Date") {
			if len(x.Args) == 1 {
				arg := c.expr(x.Args[0])
				return func(env *Env) (ir.Value, error) {
					if err := env.step(pos); err != nil {
						return ir.NullV(), err
					}
					return arg(env)
				}
			}
			return func(env *Env) (ir.Value, error) {
				if err := env.step(pos); err != nil {
					return ir.NullV(), err
				}
				return ir.IntV(env.Host.Now()), nil
			}
		}
		return c.constExpr(pos, ir.NullV())
	case *groovy.IndexExpr:
		return c.index(x)
	case *groovy.PropertyExpr:
		return c.property(x)
	case *groovy.CallExpr:
		return c.call(x)
	case *groovy.ClosureExpr:
		// Closure values (def f = {...}) would need the interpreter's
		// dynamic call-site scoping; the whole app falls back to the
		// tree-walker instead.
		c.failf("closure value at %s not supported by the compiler", x.Pos)
		return c.constExpr(pos, ir.NullV())
	}
	appName := c.appName
	msg := fmt.Sprintf("unsupported expression %T", e)
	return func(env *Env) (ir.Value, error) {
		if err := env.step(pos); err != nil {
			return ir.NullV(), err
		}
		return ir.NullV(), &ExecError{App: appName, Pos: pos, Msg: msg}
	}
}

func (c *compiler) constExpr(pos groovy.Pos, v ir.Value) exprFn {
	return func(env *Env) (ir.Value, error) {
		if err := env.step(pos); err != nil {
			return ir.NullV(), err
		}
		return v, nil
	}
}

// unread compiles an argument nobody reads: the message of a log
// statement or of a notification builtin (unreadArgsFrom), which Host
// does not accept. A total, effect-free expression evaluates nothing and
// builds no string: it charges the steps evaluation would have counted,
// one per node, so a livelocking handler still exhausts its budget at the
// same node. Anything else compiles as usual and the caller drops the
// value, so a call or an increment inside a message still runs. The
// interpreter evaluates every message in full — it is the oracle.
func (c *compiler) unread(e groovy.Expr) exprFn {
	var nodes []groovy.Pos
	if !c.total(e, &nodes) {
		return c.expr(e)
	}
	n := len(nodes)
	return func(env *Env) (ir.Value, error) {
		if env.steps+n <= env.maxSteps {
			env.steps += n
			return ir.NullV(), nil
		}
		for _, pos := range nodes {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
		}
		return ir.NullV(), nil
	}
}

// total reports whether evaluating e can neither fail nor change
// anything, appending the position of every node evaluation steps
// through, in order. The total forms are those whose compiled closures
// return a nil error unconditionally: literals, identifiers (a slot read
// or a constant), platform-object and direct-event properties, property
// reads over a total receiver (propertyOfValue has no error of its own)
// and GStrings of those. A state read counts as effect-free: at most the
// host marks the app block dirty, which re-hashes equal content. Calls,
// indexing, operators, ++/--, ternary/elvis and everything else are not.
func (c *compiler) total(e groovy.Expr, nodes *[]groovy.Pos) bool {
	*nodes = append(*nodes, e.NodePos())
	switch x := e.(type) {
	case *groovy.IntLit, *groovy.NumLit, *groovy.StrLit, *groovy.BoolLit, *groovy.NullLit:
		return true
	case *groovy.Ident:
		if _, ok := c.resolve(x.Name); ok {
			return true
		}
		if _, ok := c.bindings[x.Name]; ok {
			return true
		}
		// The bare state map is handed out live (or fails compilation).
		return x.Name != "state" && x.Name != "atomicState"
	case *groovy.GStringLit:
		for _, ge := range x.Exprs {
			if !c.total(ge, nodes) {
				return false
			}
		}
		return true
	case *groovy.PropertyExpr:
		if id, ok := x.Recv.(*groovy.Ident); ok {
			if _, shadowed := c.resolve(id.Name); !shadowed {
				switch id.Name {
				case "state", "atomicState":
					_, laidOut := c.stateIdx[x.Name]
					return c.stateIdx == nil || laidOut
				case "settings", "location", "app", "Math":
					return true
				}
			}
		}
		return c.total(x.Recv, nodes)
	}
	return false
}

func (c *compiler) gstring(g *groovy.GStringLit) exprFn {
	pos := g.Pos
	type gpart struct {
		lit string
		fn  exprFn // nil for literal parts
	}
	var parts []gpart
	i := 0
	for _, p := range g.Parts {
		if p.Expr == "" {
			parts = append(parts, gpart{lit: p.Lit})
			continue
		}
		parts = append(parts, gpart{fn: c.expr(g.Exprs[i])})
		i++
	}
	return func(env *Env) (ir.Value, error) {
		if err := env.step(pos); err != nil {
			return ir.NullV(), err
		}
		var sb strings.Builder
		for _, p := range parts {
			if p.fn == nil {
				sb.WriteString(p.lit)
				continue
			}
			v, err := p.fn(env)
			if err != nil {
				return ir.NullV(), err
			}
			if v.Kind == ir.VDevice {
				sb.WriteString(env.Host.DeviceLabel(v.Dev()))
			} else {
				sb.WriteString(v.String())
			}
		}
		return ir.StrV(sb.String()), nil
	}
}

// ident compiles a bare identifier, resolving it at compile time in the
// interpreter's runtime order: scope → bindings → platform specials →
// null.
func (c *compiler) ident(x *groovy.Ident) exprFn {
	pos := x.Pos
	if slot, ok := c.resolve(x.Name); ok {
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			return env.getSlot(slot), nil
		}
	}
	if v, ok := c.bindings[x.Name]; ok {
		return c.constExpr(pos, v)
	}
	switch x.Name {
	case "it":
		return c.constExpr(pos, ir.NullV())
	case "state", "atomicState":
		if c.stateIdx != nil {
			// The layout pass guarantees slotted apps never use state as
			// a bare value; reaching this means the inputs disagree.
			c.failf("bare %s value in a slotted-state app", x.Name)
			return c.constExpr(pos, ir.NullV())
		}
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			return ir.MapV(env.Host.AppState()), nil
		}
	case "settings":
		return c.constExpr(pos, ir.MapV(c.bindings))
	case "location", "app", "log":
		// Marker objects: handled at property/call sites; as bare values
		// they act as truthy placeholders.
		return c.constExpr(pos, ir.StrV("<"+x.Name+">"))
	}
	// Unbound optional input or unknown name: null (apps guard with if).
	return c.constExpr(pos, ir.NullV())
}

func (c *compiler) incDec(x *groovy.IncDecExpr) exprFn {
	pos := x.Pos
	id, ok := x.X.(*groovy.Ident)
	if !ok {
		appName := c.appName
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			return ir.NullV(), &ExecError{App: appName, Pos: pos, Msg: "++/-- requires a variable"}
		}
	}
	slot, resolved := c.resolve(id.Name)
	if !resolved {
		slot = c.declare(id.Name)
	}
	delta := int64(1)
	if x.Op == groovy.Dec {
		delta = -1
	}
	prefix := x.Prefix
	create := !resolved
	return func(env *Env) (ir.Value, error) {
		if err := env.step(pos); err != nil {
			return ir.NullV(), err
		}
		old := env.getSlot(slot)
		if create && old.Kind == ir.VNull {
			// The interpreter initializes unknown variables to 0 before
			// applying ++/--; a fresh (null) slot is that same case.
			old = ir.IntV(0)
		}
		var nv ir.Value
		if old.Kind == ir.VNum {
			nv = ir.NumV(old.F() + float64(delta))
		} else {
			nv = ir.IntV(old.AsInt() + delta)
		}
		env.setSlot(slot, nv)
		if prefix {
			return nv, nil
		}
		return old, nil
	}
}

func (c *compiler) binary(x *groovy.BinaryExpr) exprFn {
	pos := x.Pos
	l := c.expr(x.L)
	r := c.expr(x.R)
	switch x.Op {
	case groovy.AndAnd:
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			lv, err := l(env)
			if err != nil {
				return ir.NullV(), err
			}
			if !lv.Truthy() {
				return ir.BoolV(false), nil
			}
			rv, err := r(env)
			if err != nil {
				return ir.NullV(), err
			}
			return ir.BoolV(rv.Truthy()), nil
		}
	case groovy.OrOr:
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			lv, err := l(env)
			if err != nil {
				return ir.NullV(), err
			}
			if lv.Truthy() {
				return ir.BoolV(true), nil
			}
			rv, err := r(env)
			if err != nil {
				return ir.NullV(), err
			}
			return ir.BoolV(rv.Truthy()), nil
		}
	}
	op := x.Op
	appName := c.appName
	return func(env *Env) (ir.Value, error) {
		if err := env.step(pos); err != nil {
			return ir.NullV(), err
		}
		lv, err := l(env)
		if err != nil {
			return ir.NullV(), err
		}
		rv, err := r(env)
		if err != nil {
			return ir.NullV(), err
		}
		return binaryOp(op, lv, rv, pos, appName)
	}
}

func (c *compiler) index(x *groovy.IndexExpr) exprFn {
	pos := x.Pos
	recv := c.expr(x.Recv)
	idx := c.expr(x.Index)
	appName := c.appName
	return func(env *Env) (ir.Value, error) {
		if err := env.step(pos); err != nil {
			return ir.NullV(), err
		}
		rv, err := recv(env)
		if err != nil {
			return ir.NullV(), err
		}
		iv, err := idx(env)
		if err != nil {
			return ir.NullV(), err
		}
		switch rv.Kind {
		case ir.VList, ir.VDevices:
			i := int(iv.AsInt())
			if i < 0 {
				i += len(rv.L())
			}
			if i < 0 || i >= len(rv.L()) {
				return ir.NullV(), nil // Groovy returns null out of range
			}
			return rv.L()[i], nil
		case ir.VMap:
			return rv.M()[iv.String()], nil
		case ir.VStr:
			i := int(iv.AsInt())
			if i < 0 || i >= len(rv.S) {
				return ir.NullV(), nil
			}
			return ir.StrV(string(rv.S[i])), nil
		case ir.VNull:
			return ir.NullV(), nil
		}
		return ir.NullV(), &ExecError{App: appName, Pos: pos, Msg: "indexing non-collection"}
	}
}

func (c *compiler) property(x *groovy.PropertyExpr) exprFn {
	pos := x.Pos
	// Platform objects first — only when the receiver name is not
	// shadowed by a local, mirroring evalProperty's scope check (which
	// is statically decidable here).
	if id, ok := x.Recv.(*groovy.Ident); ok {
		if slot, shadowed := c.resolve(id.Name); !shadowed {
			switch id.Name {
			case "state", "atomicState":
				return c.stateRead(x.Name, pos)
			case "settings":
				return c.constExpr(pos, c.bindings[x.Name])
			case "location":
				name := x.Name
				return func(env *Env) (ir.Value, error) {
					if err := env.step(pos); err != nil {
						return ir.NullV(), err
					}
					return locationPropertyOf(env.Host, name)
				}
			case "app":
				switch x.Name {
				case "label", "name":
					return c.constExpr(pos, ir.StrV(c.appName))
				}
				return c.constExpr(pos, ir.NullV())
			case "Math":
				return c.constExpr(pos, ir.NullV())
			}
		} else if slot == c.evtSlot && c.evtSlot >= 0 && !x.Spread {
			// Direct event access: the handler's event parameter never
			// escapes, so its properties are served straight from the
			// live event without materializing the evt map.
			name := x.Name
			return func(env *Env) (ir.Value, error) {
				if err := env.step(pos); err != nil {
					return ir.NullV(), err
				}
				if err := env.step(id.Pos); err != nil { // the receiver, which the interpreter evaluates
					return ir.NullV(), err
				}
				return eventProp(env.Host, env.event, name), nil
			}
		}
	}

	recv := c.expr(x.Recv)
	name := x.Name
	spread := x.Spread
	return func(env *Env) (ir.Value, error) {
		if err := env.step(pos); err != nil {
			return ir.NullV(), err
		}
		rv, err := recv(env)
		if err != nil {
			return ir.NullV(), err
		}
		if rv.Kind == ir.VNull {
			return ir.NullV(), nil // forgiving, Safe or not (mirrors the interpreter)
		}
		if spread {
			var out []ir.Value
			for _, item := range iterate(rv) {
				v, err := propertyOfValue(env.Host, item, name, pos)
				if err != nil {
					return ir.NullV(), err
				}
				out = append(out, v)
			}
			return ir.ListV(out), nil
		}
		return propertyOfValue(env.Host, rv, name, pos)
	}
}

// stateRead compiles a read of one persistent state key.
func (c *compiler) stateRead(key string, pos groovy.Pos) exprFn {
	if c.stateIdx != nil {
		idx, ok := c.stateIdx[key]
		if !ok {
			c.failf("state key %q missing from layout", key)
			idx = 0
		}
		return func(env *Env) (ir.Value, error) {
			if err := env.step(pos); err != nil {
				return ir.NullV(), err
			}
			return env.Host.StateSlot(idx), nil
		}
	}
	return func(env *Env) (ir.Value, error) {
		if err := env.step(pos); err != nil {
			return ir.NullV(), err
		}
		return env.Host.AppState()[key], nil
	}
}
