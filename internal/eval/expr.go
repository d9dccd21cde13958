package eval

import (
	"fmt"
	"sort"
	"strings"

	"iotsan/internal/groovy"
	"iotsan/internal/ir"
)

func (ev *Evaluator) evalExpr(e groovy.Expr, sc *scope) (ir.Value, error) {
	if err := ev.step(e.NodePos()); err != nil {
		return ir.NullV(), err
	}
	switch x := e.(type) {
	case *groovy.IntLit:
		return ir.IntV(x.V), nil
	case *groovy.NumLit:
		return ir.NumV(x.V), nil
	case *groovy.StrLit:
		return ir.StrV(x.V), nil
	case *groovy.BoolLit:
		return ir.BoolV(x.V), nil
	case *groovy.NullLit:
		return ir.NullV(), nil
	case *groovy.GStringLit:
		return ev.evalGString(x, sc)
	case *groovy.Ident:
		return ev.evalIdent(x, sc)
	case *groovy.ListLit:
		out := make([]ir.Value, 0, len(x.Elems))
		for _, el := range x.Elems {
			v, err := ev.evalExpr(el, sc)
			if err != nil {
				return ir.NullV(), err
			}
			out = append(out, v)
		}
		return ir.ListV(out), nil
	case *groovy.MapLit:
		m := map[string]ir.Value{}
		for _, en := range x.Entries {
			key := en.Key
			if en.KeyX != nil {
				kv, err := ev.evalExpr(en.KeyX, sc)
				if err != nil {
					return ir.NullV(), err
				}
				key = kv.String()
			}
			v, err := ev.evalExpr(en.Value, sc)
			if err != nil {
				return ir.NullV(), err
			}
			m[key] = v
		}
		return ir.MapV(m), nil
	case *groovy.RangeLit:
		lo, err := ev.evalExpr(x.Lo, sc)
		if err != nil {
			return ir.NullV(), err
		}
		hi, err := ev.evalExpr(x.Hi, sc)
		if err != nil {
			return ir.NullV(), err
		}
		a, b := lo.AsInt(), hi.AsInt()
		if b-a > 1000 {
			return ir.NullV(), &ExecError{App: ev.App.Name, Pos: x.Pos, Msg: "range too large"}
		}
		var out []ir.Value
		for i := a; i <= b; i++ {
			out = append(out, ir.IntV(i))
		}
		return ir.ListV(out), nil
	case *groovy.BinaryExpr:
		return ev.evalBinary(x, sc)
	case *groovy.UnaryExpr:
		v, err := ev.evalExpr(x.X, sc)
		if err != nil {
			return ir.NullV(), err
		}
		switch x.Op {
		case groovy.Not:
			return ir.BoolV(!v.Truthy()), nil
		case groovy.Minus:
			if v.Kind == ir.VNum {
				return ir.NumV(-v.F()), nil
			}
			return ir.IntV(-v.AsInt()), nil
		}
		return v, nil
	case *groovy.IncDecExpr:
		return ev.evalIncDec(x, sc)
	case *groovy.TernaryExpr:
		cond, err := ev.evalExpr(x.Cond, sc)
		if err != nil {
			return ir.NullV(), err
		}
		if cond.Truthy() {
			return ev.evalExpr(x.Then, sc)
		}
		return ev.evalExpr(x.Else, sc)
	case *groovy.ElvisExpr:
		v, err := ev.evalExpr(x.X, sc)
		if err != nil {
			return ir.NullV(), err
		}
		if v.Truthy() {
			return v, nil
		}
		return ev.evalExpr(x.Y, sc)
	case *groovy.CastExpr:
		v, err := ev.evalExpr(x.X, sc)
		if err != nil {
			return ir.NullV(), err
		}
		return castValue(v, x.Type), nil
	case *groovy.InstanceofExpr:
		v, err := ev.evalExpr(x.X, sc)
		if err != nil {
			return ir.NullV(), err
		}
		return ir.BoolV(instanceOf(v, x.Type)), nil
	case *groovy.NewExpr:
		if x.Type == "Date" || strings.HasSuffix(x.Type, ".Date") {
			if len(x.Args) == 1 {
				return ev.evalExpr(x.Args[0], sc)
			}
			return ir.IntV(ev.Host.Now()), nil
		}
		return ir.NullV(), nil
	case *groovy.IndexExpr:
		return ev.evalIndex(x, sc)
	case *groovy.PropertyExpr:
		return ev.evalProperty(x, sc)
	case *groovy.CallExpr:
		return ev.evalCall(x, sc)
	case *groovy.ClosureExpr:
		return ir.ClosureV(x), nil
	}
	return ir.NullV(), &ExecError{App: ev.App.Name, Pos: e.NodePos(),
		Msg: fmt.Sprintf("unsupported expression %T", e)}
}

func (ev *Evaluator) evalGString(g *groovy.GStringLit, sc *scope) (ir.Value, error) {
	var sb strings.Builder
	i := 0
	for _, p := range g.Parts {
		if p.Expr == "" {
			sb.WriteString(p.Lit)
			continue
		}
		v, err := ev.evalExpr(g.Exprs[i], sc)
		i++
		if err != nil {
			return ir.NullV(), err
		}
		if v.Kind == ir.VDevice {
			sb.WriteString(ev.Host.DeviceLabel(v.Dev()))
		} else {
			sb.WriteString(v.String())
		}
	}
	return ir.StrV(sb.String()), nil
}

func (ev *Evaluator) evalIdent(x *groovy.Ident, sc *scope) (ir.Value, error) {
	if owner, ok := sc.lookup(x.Name); ok {
		return owner.vars[x.Name], nil
	}
	if v, ok := ev.Bindings[x.Name]; ok {
		return v, nil
	}
	switch x.Name {
	case "it":
		return ir.NullV(), nil
	case "state", "atomicState":
		return ir.MapV(ev.Host.AppState()), nil
	case "settings":
		return ir.MapV(ev.Bindings), nil
	case "location", "app", "log":
		// Marker objects: handled at property/call sites; as bare values
		// they act as truthy placeholders.
		return ir.StrV("<" + x.Name + ">"), nil
	}
	// Unbound optional input referenced bare: null (apps guard with if).
	if ev.App.Input(x.Name) != nil {
		return ir.NullV(), nil
	}
	return ir.NullV(), nil
}

func (ev *Evaluator) evalIncDec(x *groovy.IncDecExpr, sc *scope) (ir.Value, error) {
	id, ok := x.X.(*groovy.Ident)
	if !ok {
		return ir.NullV(), &ExecError{App: ev.App.Name, Pos: x.Pos, Msg: "++/-- requires a variable"}
	}
	owner, found := sc.lookup(id.Name)
	if !found {
		sc.vars[id.Name] = ir.IntV(0)
		owner = sc
	}
	old := owner.vars[id.Name]
	delta := int64(1)
	if x.Op == groovy.Dec {
		delta = -1
	}
	var nv ir.Value
	if old.Kind == ir.VNum {
		nv = ir.NumV(old.F() + float64(delta))
	} else {
		nv = ir.IntV(old.AsInt() + delta)
	}
	owner.vars[id.Name] = nv
	if x.Prefix {
		return nv, nil
	}
	return old, nil
}

func (ev *Evaluator) evalBinary(x *groovy.BinaryExpr, sc *scope) (ir.Value, error) {
	// Short-circuit logicals.
	switch x.Op {
	case groovy.AndAnd:
		l, err := ev.evalExpr(x.L, sc)
		if err != nil {
			return ir.NullV(), err
		}
		if !l.Truthy() {
			return ir.BoolV(false), nil
		}
		r, err := ev.evalExpr(x.R, sc)
		if err != nil {
			return ir.NullV(), err
		}
		return ir.BoolV(r.Truthy()), nil
	case groovy.OrOr:
		l, err := ev.evalExpr(x.L, sc)
		if err != nil {
			return ir.NullV(), err
		}
		if l.Truthy() {
			return ir.BoolV(true), nil
		}
		r, err := ev.evalExpr(x.R, sc)
		if err != nil {
			return ir.NullV(), err
		}
		return ir.BoolV(r.Truthy()), nil
	}
	l, err := ev.evalExpr(x.L, sc)
	if err != nil {
		return ir.NullV(), err
	}
	r, err := ev.evalExpr(x.R, sc)
	if err != nil {
		return ir.NullV(), err
	}
	return binaryOp(x.Op, l, r, x.Pos, ev.App.Name)
}

func binaryOp(op groovy.Kind, l, r ir.Value, pos groovy.Pos, appName string) (ir.Value, error) {
	switch op {
	case groovy.Eq:
		return ir.BoolV(looseEqual(l, r)), nil
	case groovy.Neq:
		return ir.BoolV(!looseEqual(l, r)), nil
	case groovy.Lt, groovy.Gt, groovy.Le, groovy.Ge, groovy.Compare:
		c, ok := compareValues(l, r)
		if !ok {
			// Comparing against null: Groovy treats null < anything.
			c = 0
			if l.Kind == ir.VNull && r.Kind != ir.VNull {
				c = -1
			} else if r.Kind == ir.VNull && l.Kind != ir.VNull {
				c = 1
			}
		}
		switch op {
		case groovy.Lt:
			return ir.BoolV(c < 0), nil
		case groovy.Gt:
			return ir.BoolV(c > 0), nil
		case groovy.Le:
			return ir.BoolV(c <= 0), nil
		case groovy.Ge:
			return ir.BoolV(c >= 0), nil
		default:
			return ir.IntV(int64(c)), nil
		}
	case groovy.KwIn:
		for _, item := range iterate(r) {
			if looseEqual(l, item) {
				return ir.BoolV(true), nil
			}
		}
		return ir.BoolV(false), nil
	case groovy.Plus:
		switch {
		case l.Kind == ir.VStr || r.Kind == ir.VStr:
			return ir.StrV(l.String() + r.String()), nil
		case l.Kind == ir.VList || l.Kind == ir.VDevices:
			out := append(append([]ir.Value{}, l.L()...), iterate(r)...)
			if l.Kind == ir.VDevices {
				return ir.DevicesV(out), nil
			}
			return ir.ListV(out), nil
		case l.Kind == ir.VNum || r.Kind == ir.VNum:
			return ir.NumV(l.AsFloat() + r.AsFloat()), nil
		default:
			return ir.IntV(l.AsInt() + r.AsInt()), nil
		}
	case groovy.Minus:
		if l.Kind == ir.VList {
			var out []ir.Value
			for _, item := range l.L() {
				remove := false
				for _, o := range iterate(r) {
					if looseEqual(item, o) {
						remove = true
					}
				}
				if !remove {
					out = append(out, item)
				}
			}
			return ir.ListV(out), nil
		}
		if l.Kind == ir.VNum || r.Kind == ir.VNum {
			return ir.NumV(l.AsFloat() - r.AsFloat()), nil
		}
		return ir.IntV(l.AsInt() - r.AsInt()), nil
	case groovy.Star:
		if l.Kind == ir.VNum || r.Kind == ir.VNum {
			return ir.NumV(l.AsFloat() * r.AsFloat()), nil
		}
		return ir.IntV(l.AsInt() * r.AsInt()), nil
	case groovy.Slash:
		if r.AsFloat() == 0 {
			return ir.NullV(), &ExecError{App: appName, Pos: pos, Msg: "division by zero"}
		}
		return ir.NumV(l.AsFloat() / r.AsFloat()), nil
	case groovy.Percent:
		if r.AsInt() == 0 {
			return ir.NullV(), &ExecError{App: appName, Pos: pos, Msg: "division by zero"}
		}
		return ir.IntV(l.AsInt() % r.AsInt()), nil
	case groovy.StarStar:
		res := 1.0
		for i := int64(0); i < r.AsInt(); i++ {
			res *= l.AsFloat()
		}
		return ir.NumV(res), nil
	}
	return ir.NullV(), &ExecError{App: appName, Pos: pos,
		Msg: fmt.Sprintf("unsupported operator %s", op)}
}

// looseEqual implements Groovy ==, which coerces numerics and compares
// numeric strings to numbers (SmartThings attribute values are strings).
func looseEqual(l, r ir.Value) bool {
	if l.Equal(r) {
		return true
	}
	if l.Kind == ir.VStr && r.IsNumeric() {
		if n, ok := parseNumeric(l.S); ok {
			return n.AsFloat() == r.AsFloat()
		}
	}
	if r.Kind == ir.VStr && l.IsNumeric() {
		if n, ok := parseNumeric(r.S); ok {
			return n.AsFloat() == l.AsFloat()
		}
	}
	return false
}

// compareValues orders two values; numeric strings compare numerically.
func compareValues(l, r ir.Value) (int, bool) {
	lf, lok := numericOf(l)
	rf, rok := numericOf(r)
	if lok && rok {
		switch {
		case lf < rf:
			return -1, true
		case lf > rf:
			return 1, true
		default:
			return 0, true
		}
	}
	if l.Kind == ir.VStr && r.Kind == ir.VStr {
		return strings.Compare(l.S, r.S), true
	}
	return 0, false
}

func numericOf(v ir.Value) (float64, bool) {
	if v.IsNumeric() {
		return v.AsFloat(), true
	}
	if v.Kind == ir.VStr {
		if n, ok := parseNumeric(v.S); ok {
			return n.AsFloat(), true
		}
	}
	return 0, false
}

func castValue(v ir.Value, typ string) ir.Value {
	switch typ {
	case "int", "Integer", "long", "Long":
		if v.Kind == ir.VStr {
			if n, ok := parseNumeric(v.S); ok {
				return ir.IntV(n.AsInt())
			}
			return ir.IntV(0)
		}
		return ir.IntV(v.AsInt())
	case "float", "Float", "double", "Double", "BigDecimal":
		if v.Kind == ir.VStr {
			if n, ok := parseNumeric(v.S); ok {
				return ir.NumV(n.AsFloat())
			}
			return ir.NumV(0)
		}
		return ir.NumV(v.AsFloat())
	case "String", "GString":
		return ir.StrV(v.String())
	case "boolean", "Boolean":
		return ir.BoolV(v.Truthy())
	}
	return v
}

func instanceOf(v ir.Value, typ string) bool {
	switch typ {
	case "String", "GString", "CharSequence":
		return v.Kind == ir.VStr
	case "Integer", "Long", "int", "long":
		return v.Kind == ir.VInt
	case "BigDecimal", "Float", "Double", "Number":
		return v.IsNumeric()
	case "Boolean", "boolean":
		return v.Kind == ir.VBool
	case "List", "ArrayList", "Collection":
		return v.Kind == ir.VList || v.Kind == ir.VDevices
	case "Map", "HashMap":
		return v.Kind == ir.VMap
	}
	return false
}

func (ev *Evaluator) evalIndex(x *groovy.IndexExpr, sc *scope) (ir.Value, error) {
	recv, err := ev.evalExpr(x.Recv, sc)
	if err != nil {
		return ir.NullV(), err
	}
	idx, err := ev.evalExpr(x.Index, sc)
	if err != nil {
		return ir.NullV(), err
	}
	switch recv.Kind {
	case ir.VList, ir.VDevices:
		i := int(idx.AsInt())
		if i < 0 {
			i += len(recv.L())
		}
		if i < 0 || i >= len(recv.L()) {
			return ir.NullV(), nil // Groovy returns null out of range
		}
		return recv.L()[i], nil
	case ir.VMap:
		return recv.M()[idx.String()], nil
	case ir.VStr:
		i := int(idx.AsInt())
		if i < 0 || i >= len(recv.S) {
			return ir.NullV(), nil
		}
		return ir.StrV(string(recv.S[i])), nil
	case ir.VNull:
		return ir.NullV(), nil
	}
	return ir.NullV(), &ExecError{App: ev.App.Name, Pos: x.Pos, Msg: "indexing non-collection"}
}

func (ev *Evaluator) evalProperty(x *groovy.PropertyExpr, sc *scope) (ir.Value, error) {
	// Platform objects first.
	if id, ok := x.Recv.(*groovy.Ident); ok {
		if _, shadowed := sc.lookup(id.Name); !shadowed {
			switch id.Name {
			case "state", "atomicState":
				return ev.stateGet(x.Name), nil
			case "settings":
				return ev.Bindings[x.Name], nil
			case "location":
				return locationPropertyOf(ev.Host, x.Name)
			case "app":
				switch x.Name {
				case "label", "name":
					return ir.StrV(ev.App.Name), nil
				}
				return ir.NullV(), nil
			case "Math":
				return ir.NullV(), nil
			}
		}
	}

	recv, err := ev.evalExpr(x.Recv, sc)
	if err != nil {
		return ir.NullV(), err
	}
	if recv.Kind == ir.VNull {
		if x.Safe {
			return ir.NullV(), nil
		}
		return ir.NullV(), nil // forgiving: apps often skip null guards
	}
	if x.Spread {
		var out []ir.Value
		for _, item := range iterate(recv) {
			v, err := propertyOfValue(ev.Host, item, x.Name, x.Pos)
			if err != nil {
				return ir.NullV(), err
			}
			out = append(out, v)
		}
		return ir.ListV(out), nil
	}
	return propertyOfValue(ev.Host, recv, x.Name, x.Pos)
}

// stateGet reads one key of the app's persistent state: a slot when the
// model laid the app's state out statically, the KV map otherwise.
func (ev *Evaluator) stateGet(key string) ir.Value {
	if ev.StateIdx != nil {
		if i, ok := ev.StateIdx[key]; ok {
			return ev.Host.StateSlot(i)
		}
		return ir.NullV()
	}
	return ev.Host.AppState()[key]
}

// stateSet writes one key of the app's persistent state.
func (ev *Evaluator) stateSet(key string, v ir.Value) {
	if ev.StateIdx != nil {
		if i, ok := ev.StateIdx[key]; ok {
			ev.Host.SetStateSlot(i, v)
		}
		return
	}
	ev.Host.AppState()[key] = v
}

// sortedKeys is used by map iteration helpers for determinism.
func sortedKeys(m map[string]ir.Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
