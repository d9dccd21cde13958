// Package typeinfer implements the static type inference the IotSan
// translator performs on dynamically typed Groovy (§6 "Type inference").
//
// Groovy checks types at run time; a model amenable to checking (the
// paper's is Promela) needs static types. Inference starts from anchor
// points — preference inputs with declared capabilities, literal
// assignments, returns of known APIs, and known platform objects — and
// propagates types through assignments, method arguments, and return
// values iteratively until no new variable types can be inferred.
//
// smartapp.Translate does not run it: nothing on the verification path
// reads inferred types. cmd/iotsan-translate prints the signatures.
package typeinfer

import (
	"strings"

	"iotsan/internal/device"
	"iotsan/internal/groovy"
	"iotsan/internal/ir"
)

// Infer computes the signature of every method of the app.
func Infer(app *ir.App) map[string]*Signature {
	inf := &inferencer{
		app:  app,
		sigs: map[string]*Signature{},
	}
	inf.globals = inf.globalEnv()
	// Fixpoint: method signature changes feed back into call sites.
	for range [8]struct{}{} {
		inf.changed = false
		for name, m := range app.Methods {
			inf.inferMethod(name, m)
		}
		if !inf.changed {
			break
		}
	}
	return inf.sigs
}

// Signature is the inferred signature of a method.
type Signature struct {
	Params []ir.Type
	Return ir.Type
}

type inferencer struct {
	app     *ir.App
	globals map[string]ir.Type
	sigs    map[string]*Signature
	changed bool
}

// globalEnv builds the anchor-point environment: inputs declared in
// preferences plus the SmartThings platform objects.
func (inf *inferencer) globalEnv() map[string]ir.Type {
	env := map[string]ir.Type{
		"state":    {Kind: ir.KindMap},
		"settings": {Kind: ir.KindMap},
		"location": {Kind: ir.KindLocation},
		"app":      ir.Dynamic,
	}
	for _, in := range inf.app.Inputs {
		env[in.Name] = inputType(in)
	}
	return env
}

func inputType(in ir.Input) ir.Type {
	switch in.Kind {
	case ir.InputDevice:
		t := ir.DeviceType(in.Capability)
		if in.Multiple {
			return ir.ListOf(t)
		}
		return t
	case ir.InputNumber:
		return ir.Num
	case ir.InputBool:
		return ir.Bool
	case ir.InputEnum, ir.InputText, ir.InputTime, ir.InputPhone,
		ir.InputContact, ir.InputMode:
		return ir.String
	}
	return ir.Dynamic
}

func (inf *inferencer) sig(name string, nparams int) *Signature {
	s := inf.sigs[name]
	if s == nil {
		s = &Signature{Params: make([]ir.Type, nparams), Return: ir.Dynamic}
		inf.sigs[name] = s
	}
	for len(s.Params) < nparams {
		s.Params = append(s.Params, ir.Dynamic)
	}
	return s
}

// merge combines two type facts; conflicting facts widen to Dynamic,
// numeric facts widen to Num.
func merge(a, b ir.Type) ir.Type {
	if a.Kind == ir.KindDynamic || a.Kind == ir.KindNull {
		return b
	}
	if b.Kind == ir.KindDynamic || b.Kind == ir.KindNull {
		return a
	}
	if a.Kind == b.Kind {
		if a.Kind == ir.KindList && a.Elem != nil && b.Elem != nil {
			e := merge(*a.Elem, *b.Elem)
			return ir.ListOf(e)
		}
		return a
	}
	if (a.Kind == ir.KindInt && b.Kind == ir.KindNum) ||
		(a.Kind == ir.KindNum && b.Kind == ir.KindInt) {
		return ir.Num
	}
	return ir.Dynamic
}

func (inf *inferencer) setSigParam(s *Signature, i int, t ir.Type) {
	if i >= len(s.Params) {
		return
	}
	n := merge(s.Params[i], t)
	if n != s.Params[i] {
		s.Params[i] = n
		inf.changed = true
	}
}

func (inf *inferencer) setSigReturn(s *Signature, t ir.Type) {
	n := merge(s.Return, t)
	if n != s.Return {
		s.Return = n
		inf.changed = true
	}
}

func (inf *inferencer) inferMethod(name string, m *groovy.MethodDecl) {
	sig := inf.sig(name, len(m.Params))
	env := map[string]ir.Type{}
	for i, p := range m.Params {
		t := sig.Params[i]
		if p.Type != "" {
			t = namedType(p.Type)
		}
		if p.Name == "evt" || p.Name == "event" {
			t = ir.Event
		}
		env[p.Name] = t
	}
	if m.Type != "" {
		inf.setSigReturn(sig, namedType(m.Type))
	}
	rt := inf.inferBlock(m.Body, env, sig)
	// Groovy implicitly returns the value of the final expression.
	if rt.Kind != ir.KindDynamic {
		inf.setSigReturn(sig, rt)
	}
}

// inferBlock types all statements; the returned type is the implicit
// value of the block (its final expression statement).
func (inf *inferencer) inferBlock(b *groovy.Block, env map[string]ir.Type, sig *Signature) ir.Type {
	last := ir.Dynamic
	if b == nil {
		return last
	}
	for i, st := range b.Stmts {
		t := inf.inferStmt(st, env, sig)
		if i == len(b.Stmts)-1 {
			last = t
		}
	}
	return last
}

func (inf *inferencer) inferStmt(st groovy.Stmt, env map[string]ir.Type, sig *Signature) ir.Type {
	switch s := st.(type) {
	case *groovy.VarDeclStmt:
		t := ir.Dynamic
		if s.Type != "" {
			t = namedType(s.Type)
		}
		if s.Init != nil {
			t = merge(t, inf.inferExpr(s.Init, env, sig))
		}
		env[s.Name] = t
	case *groovy.AssignStmt:
		rt := inf.inferExpr(s.RHS, env, sig)
		if id, ok := s.LHS.(*groovy.Ident); ok {
			prev, exists := env[id.Name]
			if exists {
				env[id.Name] = merge(prev, rt)
			} else {
				env[id.Name] = rt
			}
		} else {
			inf.inferExpr(s.LHS, env, sig)
		}
	case *groovy.ExprStmt:
		return inf.inferExpr(s.X, env, sig)
	case *groovy.IfStmt:
		inf.inferExpr(s.Cond, env, sig)
		inf.inferBlock(s.Then, env, sig)
		if s.Else != nil {
			inf.inferStmt(s.Else, env, sig)
		}
	case *groovy.Block:
		inf.inferBlock(s, env, sig)
	case *groovy.WhileStmt:
		inf.inferExpr(s.Cond, env, sig)
		inf.inferBlock(s.Body, env, sig)
	case *groovy.ForInStmt:
		it := inf.inferExpr(s.Iter, env, sig)
		ev := ir.Dynamic
		if it.Kind == ir.KindList && it.Elem != nil {
			ev = *it.Elem
		}
		env[s.Var] = ev
		inf.inferBlock(s.Body, env, sig)
	case *groovy.ForCStmt:
		if s.Init != nil {
			inf.inferStmt(s.Init, env, sig)
		}
		if s.Cond != nil {
			inf.inferExpr(s.Cond, env, sig)
		}
		if s.Post != nil {
			inf.inferStmt(s.Post, env, sig)
		}
		inf.inferBlock(s.Body, env, sig)
	case *groovy.ReturnStmt:
		if s.X != nil {
			inf.setSigReturn(sig, inf.inferExpr(s.X, env, sig))
		}
	case *groovy.SwitchStmt:
		inf.inferExpr(s.Subject, env, sig)
		for _, c := range s.Cases {
			for _, v := range c.Values {
				inf.inferExpr(v, env, sig)
			}
			for _, b := range c.Body {
				inf.inferStmt(b, env, sig)
			}
		}
		for _, b := range s.Default {
			inf.inferStmt(b, env, sig)
		}
	case *groovy.TryStmt:
		inf.inferBlock(s.Body, env, sig)
		for _, c := range s.Catches {
			inf.inferBlock(c.Body, env, sig)
		}
		if s.Finally != nil {
			inf.inferBlock(s.Finally, env, sig)
		}
	}
	return ir.Dynamic
}

func (inf *inferencer) inferExpr(e groovy.Expr, env map[string]ir.Type, sig *Signature) ir.Type {
	switch x := e.(type) {
	case *groovy.IntLit:
		return ir.Int
	case *groovy.NumLit:
		return ir.Num
	case *groovy.StrLit, *groovy.GStringLit:
		if g, ok := e.(*groovy.GStringLit); ok {
			for _, ge := range g.Exprs {
				inf.inferExpr(ge, env, sig)
			}
		}
		return ir.String
	case *groovy.BoolLit:
		return ir.Bool
	case *groovy.NullLit:
		return ir.Null
	case *groovy.Ident:
		if t, ok := env[x.Name]; ok {
			return t
		}
		if t, ok := inf.globals[x.Name]; ok {
			return t
		}
		return ir.Dynamic
	case *groovy.ListLit:
		elem := ir.Dynamic
		for _, el := range x.Elems {
			elem = merge(elem, inf.inferExpr(el, env, sig))
		}
		return ir.ListOf(elem)
	case *groovy.MapLit:
		for _, en := range x.Entries {
			inf.inferExpr(en.Value, env, sig)
		}
		return ir.Type{Kind: ir.KindMap}
	case *groovy.RangeLit:
		inf.inferExpr(x.Lo, env, sig)
		inf.inferExpr(x.Hi, env, sig)
		return ir.ListOf(ir.Int)
	case *groovy.BinaryExpr:
		lt := inf.inferExpr(x.L, env, sig)
		rt := inf.inferExpr(x.R, env, sig)
		switch x.Op {
		case groovy.Eq, groovy.Neq, groovy.Lt, groovy.Gt, groovy.Le,
			groovy.Ge, groovy.AndAnd, groovy.OrOr, groovy.KwIn:
			return ir.Bool
		case groovy.Compare:
			return ir.Int
		case groovy.Plus:
			if lt.Kind == ir.KindString || rt.Kind == ir.KindString {
				return ir.String
			}
			if lt.Kind == ir.KindList {
				return merge(lt, rt) // Fig. 6: List + List
			}
			return arith(lt, rt)
		default:
			return arith(lt, rt)
		}
	case *groovy.UnaryExpr:
		t := inf.inferExpr(x.X, env, sig)
		if x.Op == groovy.Not {
			return ir.Bool
		}
		return t
	case *groovy.IncDecExpr:
		return inf.inferExpr(x.X, env, sig)
	case *groovy.TernaryExpr:
		inf.inferExpr(x.Cond, env, sig)
		return merge(inf.inferExpr(x.Then, env, sig), inf.inferExpr(x.Else, env, sig))
	case *groovy.ElvisExpr:
		return merge(inf.inferExpr(x.X, env, sig), inf.inferExpr(x.Y, env, sig))
	case *groovy.CastExpr:
		inf.inferExpr(x.X, env, sig)
		return namedType(x.Type)
	case *groovy.InstanceofExpr:
		inf.inferExpr(x.X, env, sig)
		return ir.Bool
	case *groovy.NewExpr:
		for _, a := range x.Args {
			inf.inferExpr(a, env, sig)
		}
		if x.Type == "Date" {
			return ir.Int
		}
		return ir.Dynamic
	case *groovy.IndexExpr:
		rt := inf.inferExpr(x.Recv, env, sig)
		inf.inferExpr(x.Index, env, sig)
		if rt.Kind == ir.KindList && rt.Elem != nil {
			return *rt.Elem
		}
		return ir.Dynamic
	case *groovy.PropertyExpr:
		return inf.inferProperty(x, env, sig)
	case *groovy.CallExpr:
		return inf.inferCall(x, env, sig)
	case *groovy.ClosureExpr:
		inf.inferBlock(x.Body, env, sig)
		return ir.Dynamic
	}
	return ir.Dynamic
}

func arith(a, b ir.Type) ir.Type {
	if a.Kind == ir.KindInt && b.Kind == ir.KindInt {
		return ir.Int
	}
	if a.IsNumericKind() || b.IsNumericKind() {
		return ir.Num
	}
	return ir.Dynamic
}

func (inf *inferencer) inferProperty(x *groovy.PropertyExpr, env map[string]ir.Type, sig *Signature) ir.Type {
	rt := inf.inferExpr(x.Recv, env, sig)
	switch rt.Kind {
	case ir.KindEvent:
		switch x.Name {
		case "value", "name", "displayName", "descriptionText", "deviceId", "stringValue":
			return ir.String
		case "numericValue", "doubleValue", "floatValue":
			return ir.Num
		case "integerValue":
			return ir.Int
		case "isStateChange", "physical", "digital":
			return ir.Bool
		case "device":
			return ir.DeviceType("")
		case "date":
			return ir.Int
		}
	case ir.KindLocation:
		switch x.Name {
		case "mode", "name", "currentMode":
			return ir.String
		case "modes":
			return ir.ListOf(ir.String)
		}
	case ir.KindDevice:
		if attr, ok := currentAttr(x.Name); ok {
			return attrType(rt.Capability, attr)
		}
		switch x.Name {
		case "displayName", "label", "name", "id":
			return ir.String
		}
	case ir.KindList:
		if rt.Elem != nil && rt.Elem.Kind == ir.KindDevice {
			if attr, ok := currentAttr(x.Name); ok {
				return ir.ListOf(attrType(rt.Elem.Capability, attr))
			}
		}
		if x.Name == "size" {
			return ir.Int
		}
	case ir.KindMap:
		return ir.Dynamic // state.foo — refined at assignment sites
	}
	return ir.Dynamic
}

func currentAttr(prop string) (string, bool) {
	if strings.HasPrefix(prop, "current") && len(prop) > len("current") {
		rest := prop[len("current"):]
		return strings.ToLower(rest[:1]) + rest[1:], true
	}
	return "", false
}

func attrType(capability, attr string) ir.Type {
	if c := device.CapabilityByName(capability); c != nil {
		if a := c.Attribute(attr); a != nil {
			if a.Numeric {
				return ir.Num
			}
			return ir.String
		}
	}
	// Attribute of a sibling capability on the same physical device.
	for _, cn := range device.Capabilities() {
		if a := device.CapabilityByName(cn).Attribute(attr); a != nil {
			if a.Numeric {
				return ir.Num
			}
			return ir.String
		}
	}
	return ir.Dynamic
}

func (inf *inferencer) inferCall(x *groovy.CallExpr, env map[string]ir.Type, sig *Signature) ir.Type {
	var argTypes []ir.Type
	for _, a := range x.Args {
		argTypes = append(argTypes, inf.inferExpr(a, env, sig))
	}
	for _, na := range x.NamedArgs {
		inf.inferExpr(na.Value, env, sig)
	}

	var recvType ir.Type
	if x.Recv != nil {
		recvType = inf.inferExpr(x.Recv, env, sig)
	}

	if x.Closure != nil {
		cenv := env
		if recvType.Kind == ir.KindList && recvType.Elem != nil {
			cenv = copyEnv(env)
			name := "it"
			if !x.Closure.Implicit && len(x.Closure.Params) > 0 {
				name = x.Closure.Params[0].Name
			}
			cenv[name] = *recvType.Elem
		}
		inf.inferBlock(x.Closure.Body, cenv, sig)
	}

	// Known platform and utility APIs (anchor points).
	switch x.Name {
	case "now":
		return ir.Int
	case "size", "count", "toInteger", "intValue":
		return ir.Int
	case "toFloat", "toDouble", "toBigDecimal", "sum":
		return ir.Num
	case "contains", "any", "every", "isEmpty", "equals", "startsWith",
		"endsWith", "canSchedule", "timeOfDayIsBetween":
		return ir.Bool
	case "toString", "toLowerCase", "toUpperCase", "trim", "join":
		return ir.String
	case "first", "last", "min", "max", "find":
		if recvType.Kind == ir.KindList && recvType.Elem != nil {
			return *recvType.Elem
		}
		return ir.Dynamic
	case "findAll", "collect", "sort", "unique", "reverse", "plus":
		if recvType.Kind == ir.KindList {
			return recvType
		}
		return ir.Dynamic
	case "currentValue", "latestValue":
		if recvType.Kind == ir.KindDevice && len(x.Args) > 0 {
			if s, ok := x.Args[0].(*groovy.StrLit); ok {
				return attrType(recvType.Capability, s.V)
			}
		}
		return ir.Dynamic
	case "currentState", "latestState":
		return ir.Dynamic
	case "getSunriseAndSunset":
		return ir.Type{Kind: ir.KindMap}
	}

	// Spread command on a device collection returns a list.
	if x.Spread {
		return ir.ListOf(ir.Dynamic)
	}

	// User-defined method: propagate argument types in, return type out.
	if x.Recv == nil {
		if m := inf.app.Methods[x.Name]; m != nil {
			ms := inf.sig(x.Name, len(m.Params))
			for i, at := range argTypes {
				inf.setSigParam(ms, i, at)
			}
			return ms.Return
		}
	}
	return ir.Dynamic
}

func copyEnv(in map[string]ir.Type) map[string]ir.Type {
	out := make(map[string]ir.Type, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// namedType maps explicit Groovy/Java type names to IR types.
func namedType(name string) ir.Type {
	if strings.HasSuffix(name, "[]") {
		e := namedType(strings.TrimSuffix(name, "[]"))
		return ir.ListOf(e)
	}
	switch name {
	case "int", "Integer", "long", "Long", "short":
		return ir.Int
	case "float", "Float", "double", "Double", "BigDecimal", "Number":
		return ir.Num
	case "String", "GString", "CharSequence":
		return ir.String
	case "boolean", "Boolean":
		return ir.Bool
	case "List", "ArrayList", "Collection", "Set", "HashSet":
		return ir.ListOf(ir.Dynamic)
	case "Map", "HashMap", "LinkedHashMap":
		return ir.Type{Kind: ir.KindMap}
	case "Date":
		return ir.Int
	case "def", "Object", "":
		return ir.Dynamic
	}
	if strings.HasPrefix(name, "ST") { // STSwitch etc. — device stand-ins
		return ir.DeviceType("")
	}
	return ir.Dynamic
}
