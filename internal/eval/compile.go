package eval

import (
	"fmt"
	"sort"
	"strings"

	"iotsan/internal/device"
	"iotsan/internal/groovy"
	"iotsan/internal/ir"
)

// Compile lowers every method of an app into a closure-compiled Program
// against a fixed bindings table and state layout. Compilation mirrors
// the tree-walking interpreter node for node — including its step
// accounting and error messages — so the two execution modes are
// observationally identical; the interpreter is retained as the
// differential-testing oracle.
//
// On the first unsupported construct (currently: closure values stored
// in variables) compilation stops and CompiledApp.Err is set; the model
// then runs the whole app under the interpreter instead — there is no
// mixed-mode execution within one app.
func Compile(app *ir.App, bindings map[string]ir.Value, stateIdx map[string]int) *CompiledApp {
	ca := &CompiledApp{
		App:      app,
		Bindings: bindings,
		StateIdx: stateIdx,
		Methods:  make(map[string]*Program, len(app.Methods)),
	}
	// Effects are extracted before lowering so even apps that fall back
	// to the interpreter (ca.Err set) carry their footprints.
	ca.Effects = AppEffects(app)
	direct := evtDirectMethods(app)
	for name, m := range app.Methods {
		p, err := compileMethod(ca, m, direct[name])
		if err != nil {
			ca.Err = fmt.Errorf("compile %s.%s: %w", app.Name, name, err)
			return ca
		}
		ca.Methods[name] = p
	}
	return ca
}

// compiler is the per-method compile state: the lexical scope chain
// mapping names to frame slots, and the slot counter.
type compiler struct {
	capp     *CompiledApp
	appName  string
	bindings map[string]ir.Value
	stateIdx map[string]int

	scope   *cscope
	nslots  int
	evtSlot int // slot of the direct-access event param, -1 when none
	err     error
}

type cscope struct {
	parent *cscope
	names  map[string]int
}

func (c *compiler) pushScope() { c.scope = &cscope{parent: c.scope, names: map[string]int{}} }
func (c *compiler) popScope()  { c.scope = c.scope.parent }

// resolve finds the slot a name is bound to at this point of the
// program, mirroring the interpreter's runtime scope walk.
func (c *compiler) resolve(name string) (int, bool) {
	for s := c.scope; s != nil; s = s.parent {
		if i, ok := s.names[name]; ok {
			return i, true
		}
	}
	return -1, false
}

// declare binds a name in the current scope, allocating a new slot
// unless the scope already has one for it (re-declaration reuses the
// storage, like the interpreter's map overwrite).
func (c *compiler) declare(name string) int {
	if i, ok := c.scope.names[name]; ok {
		return i
	}
	i := c.nslots
	c.nslots++
	c.scope.names[name] = i
	return i
}

func (c *compiler) failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func compileMethod(ca *CompiledApp, m *groovy.MethodDecl, evtDirect bool) (*Program, error) {
	c := &compiler{
		capp:     ca,
		appName:  ca.App.Name,
		bindings: ca.Bindings,
		stateIdx: ca.StateIdx,
		evtSlot:  -1,
	}
	p := &Program{decl: m, name: m.Name}
	c.pushScope()
	for i, prm := range m.Params {
		var def exprFn
		if prm.Default != nil {
			def = c.expr(prm.Default)
		}
		slot := c.declare(prm.Name)
		if i == 0 && evtDirect {
			c.evtSlot = slot
			p.evtDirect = true
		}
		p.params = append(p.params, cparam{slot: slot, def: def})
	}
	// The method body's statements share the parameter scope, like the
	// interpreter's single callMethod scope.
	p.body = c.stmts(m.Body)
	p.nslots = c.nslots
	if c.err != nil {
		return nil, c.err
	}
	return p, nil
}

var nullStmt stmtFn = func(*Env) (ir.Value, control, error) { return ir.NullV(), ctlNormal, nil }

// stmts compiles a statement list in the current scope, mirroring
// execBlock (implicit return of the last value, control propagation).
func (c *compiler) stmts(b *groovy.Block) stmtFn {
	if b == nil || len(b.Stmts) == 0 {
		return nullStmt
	}
	fns := make([]stmtFn, len(b.Stmts))
	for i, st := range b.Stmts {
		fns[i] = c.stmt(st)
	}
	if len(fns) == 1 {
		return fns[0]
	}
	return func(e *Env) (ir.Value, control, error) {
		var last ir.Value
		for _, f := range fns {
			v, ctl, err := f(e)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			switch ctl {
			case ctlReturn:
				return v, ctlReturn, nil
			case ctlBreak, ctlContinue:
				return v, ctl, nil
			}
			last = v
		}
		return last, ctlNormal, nil
	}
}

// scopedStmts compiles a block in a fresh child scope and returns the
// slot range it allocated; loops clear that range per iteration to
// mirror the interpreter's fresh per-iteration scopes.
func (c *compiler) scopedStmts(b *groovy.Block) (fn stmtFn, lo, hi int) {
	c.pushScope()
	lo = c.nslots
	fn = c.stmts(b)
	hi = c.nslots
	c.popScope()
	return fn, lo, hi
}

func (c *compiler) stmt(st groovy.Stmt) stmtFn {
	pos := st.NodePos()
	switch s := st.(type) {
	case *groovy.VarDeclStmt:
		var init exprFn
		if s.Init != nil {
			init = c.expr(s.Init) // compiled before declare: init sees the outer binding
		}
		slot := c.declare(s.Name)
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			v := ir.NullV()
			if init != nil {
				var err error
				v, err = init(e)
				if err != nil {
					return ir.NullV(), ctlNormal, err
				}
			}
			e.setSlot(slot, v)
			return v, ctlNormal, nil
		}

	case *groovy.AssignStmt:
		return c.assign(s)

	case *groovy.ExprStmt:
		x := c.expr(s.X)
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			v, err := x(e)
			return v, ctlNormal, err
		}

	case *groovy.IfStmt:
		cond := c.expr(s.Cond)
		then, _, _ := c.scopedStmts(s.Then)
		var els stmtFn
		if s.Else != nil {
			els = c.stmt(s.Else)
		}
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			cv, err := cond(e)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			if cv.Truthy() {
				return then(e)
			}
			if els != nil {
				return els(e)
			}
			return ir.NullV(), ctlNormal, nil
		}

	case *groovy.Block:
		body, _, _ := c.scopedStmts(s)
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			return body(e)
		}

	case *groovy.WhileStmt:
		cond := c.expr(s.Cond)
		body, lo, hi := c.scopedStmts(s.Body)
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			for {
				if err := e.step(pos); err != nil {
					return ir.NullV(), ctlNormal, err
				}
				cv, err := cond(e)
				if err != nil {
					return ir.NullV(), ctlNormal, err
				}
				if !cv.Truthy() {
					return ir.NullV(), ctlNormal, nil
				}
				e.clearSlots(lo, hi)
				_, ctl, err := body(e)
				if err != nil {
					return ir.NullV(), ctlNormal, err
				}
				if ctl == ctlBreak {
					return ir.NullV(), ctlNormal, nil
				}
				if ctl == ctlReturn {
					return ir.NullV(), ctlReturn, nil
				}
			}
		}

	case *groovy.ForInStmt:
		iter := c.expr(s.Iter)
		c.pushScope()
		lo := c.nslots
		varSlot := c.declare(s.Var)
		body := c.stmts(s.Body)
		hi := c.nslots
		c.popScope()
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			iv, err := iter(e)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			for _, item := range iterate(iv) {
				e.clearSlots(lo, hi)
				e.setSlot(varSlot, item)
				_, ctl, err := body(e)
				if err != nil {
					return ir.NullV(), ctlNormal, err
				}
				if ctl == ctlBreak {
					break
				}
				if ctl == ctlReturn {
					return ir.NullV(), ctlReturn, nil
				}
			}
			return ir.NullV(), ctlNormal, nil
		}

	case *groovy.ForCStmt:
		c.pushScope() // the loop's shared scope: init vars persist across iterations
		var init, post stmtFn
		var cond exprFn
		if s.Init != nil {
			init = c.stmt(s.Init)
		}
		if s.Cond != nil {
			cond = c.expr(s.Cond)
		}
		// Post is compiled after the body in the interpreter's execution
		// order but shares the loop scope; compile order here follows
		// the source so name resolution matches statement order.
		body, lo, hi := c.scopedStmts(s.Body)
		if s.Post != nil {
			post = c.stmt(s.Post)
		}
		c.popScope()
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			if init != nil {
				if _, _, err := init(e); err != nil {
					return ir.NullV(), ctlNormal, err
				}
			}
			for {
				if err := e.step(pos); err != nil {
					return ir.NullV(), ctlNormal, err
				}
				if cond != nil {
					cv, err := cond(e)
					if err != nil {
						return ir.NullV(), ctlNormal, err
					}
					if !cv.Truthy() {
						break
					}
				}
				e.clearSlots(lo, hi)
				_, ctl, err := body(e)
				if err != nil {
					return ir.NullV(), ctlNormal, err
				}
				if ctl == ctlBreak {
					break
				}
				if ctl == ctlReturn {
					return ir.NullV(), ctlReturn, nil
				}
				if post != nil {
					if _, _, err := post(e); err != nil {
						return ir.NullV(), ctlNormal, err
					}
				}
			}
			return ir.NullV(), ctlNormal, nil
		}

	case *groovy.ReturnStmt:
		var x exprFn
		if s.X != nil {
			x = c.expr(s.X)
		}
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			v := ir.NullV()
			if x != nil {
				var err error
				v, err = x(e)
				if err != nil {
					return ir.NullV(), ctlNormal, err
				}
			}
			return v, ctlReturn, nil
		}

	case *groovy.BreakStmt:
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			return ir.NullV(), ctlBreak, nil
		}

	case *groovy.ContinueStmt:
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			return ir.NullV(), ctlContinue, nil
		}

	case *groovy.SwitchStmt:
		subj := c.expr(s.Subject)
		type ccase struct {
			values []exprFn
			body   []stmtFn
		}
		cases := make([]ccase, len(s.Cases))
		for i, cs := range s.Cases {
			cc := ccase{}
			for _, vx := range cs.Values {
				cc.values = append(cc.values, c.expr(vx))
			}
			for _, bs := range cs.Body {
				cc.body = append(cc.body, c.stmt(bs)) // case bodies run in the current scope
			}
			cases[i] = cc
		}
		var def []stmtFn
		for _, bs := range s.Default {
			def = append(def, c.stmt(bs))
		}
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			sv, err := subj(e)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			matched := false
			for _, cc := range cases {
				if !matched {
					for _, vf := range cc.values {
						v, err := vf(e)
						if err != nil {
							return ir.NullV(), ctlNormal, err
						}
						if sv.Equal(v) {
							matched = true
							break
						}
					}
				}
				if matched { // fallthrough semantics until break
					for _, bf := range cc.body {
						_, ctl, err := bf(e)
						if err != nil {
							return ir.NullV(), ctlNormal, err
						}
						if ctl == ctlBreak {
							return ir.NullV(), ctlNormal, nil
						}
						if ctl == ctlReturn {
							return ir.NullV(), ctlReturn, nil
						}
					}
				}
			}
			if !matched {
				for _, bf := range def {
					_, ctl, err := bf(e)
					if err != nil {
						return ir.NullV(), ctlNormal, err
					}
					if ctl == ctlBreak {
						return ir.NullV(), ctlNormal, nil
					}
					if ctl == ctlReturn {
						return ir.NullV(), ctlReturn, nil
					}
				}
			}
			return ir.NullV(), ctlNormal, nil
		}

	case *groovy.TryStmt:
		// The model does not throw; execute the body, then finally.
		body, _, _ := c.scopedStmts(s.Body)
		var fin stmtFn
		if s.Finally != nil {
			fin, _, _ = c.scopedStmts(s.Finally)
		}
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			v, ctl, err := body(e)
			if fin != nil {
				if _, _, ferr := fin(e); ferr != nil && err == nil {
					err = ferr
				}
			}
			return v, ctl, err
		}

	case *groovy.ThrowStmt:
		appName := c.appName
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			return ir.NullV(), ctlNormal, &ExecError{App: appName, Pos: s.Pos, Msg: "exception thrown"}
		}
	}
	appName := c.appName
	msg := fmt.Sprintf("unsupported statement %T", st)
	return func(e *Env) (ir.Value, control, error) {
		if err := e.step(pos); err != nil {
			return ir.NullV(), ctlNormal, err
		}
		return ir.NullV(), ctlNormal, &ExecError{App: appName, Pos: pos, Msg: msg}
	}
}

// assign compiles an assignment, mirroring execAssign: RHS first, then
// the target-specific apply of the (possibly compound) operator.
func (c *compiler) assign(s *groovy.AssignStmt) stmtFn {
	pos := s.NodePos()
	rhsFn := c.expr(s.RHS)
	appName := c.appName
	op := s.Op
	apply := func(old, rhs ir.Value) (ir.Value, error) {
		switch op {
		case groovy.Assign:
			return rhs, nil
		case groovy.PlusAssign:
			return binaryOp(groovy.Plus, old, rhs, s.Pos, appName)
		case groovy.MinusAssign:
			return binaryOp(groovy.Minus, old, rhs, s.Pos, appName)
		case groovy.StarAssign:
			return binaryOp(groovy.Star, old, rhs, s.Pos, appName)
		case groovy.SlashAssign:
			return binaryOp(groovy.Slash, old, rhs, s.Pos, appName)
		}
		return rhs, nil
	}

	switch lhs := s.LHS.(type) {
	case *groovy.Ident:
		slot, ok := c.resolve(lhs.Name)
		if !ok {
			// New script-scope variable in the current scope (the
			// interpreter creates it on first assignment).
			slot = c.declare(lhs.Name)
		}
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			rhs, err := rhsFn(e)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			nv, err := apply(e.getSlot(slot), rhs)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			e.setSlot(slot, nv)
			return nv, ctlNormal, nil
		}

	case *groovy.PropertyExpr:
		// state.x = v — like the interpreter, state/location receivers
		// are recognized syntactically here with no shadowing check.
		if id, ok := lhs.Recv.(*groovy.Ident); ok {
			switch id.Name {
			case "state", "atomicState":
				return c.stateAssign(lhs.Name, rhsFn, apply, pos)
			case "location":
				if lhs.Name == "mode" {
					return func(e *Env) (ir.Value, control, error) {
						if err := e.step(pos); err != nil {
							return ir.NullV(), ctlNormal, err
						}
						rhs, err := rhsFn(e)
						if err != nil {
							return ir.NullV(), ctlNormal, err
						}
						nv, err := apply(ir.StrV(e.Host.LocationMode()), rhs)
						if err != nil {
							return ir.NullV(), ctlNormal, err
						}
						e.Host.SetLocationMode(nv.String())
						return nv, ctlNormal, nil
					}
				}
			}
		}
		msg := fmt.Sprintf("cannot assign to property %q", lhs.Name)
		lpos := lhs.Pos
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			if _, err := rhsFn(e); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			return ir.NullV(), ctlNormal, &ExecError{App: appName, Pos: lpos, Msg: msg}
		}

	case *groovy.IndexExpr:
		recvFn := c.expr(lhs.Recv)
		idxFn := c.expr(lhs.Index)
		lpos := lhs.Pos
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			rhs, err := rhsFn(e)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			recv, err := recvFn(e)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			idx, err := idxFn(e)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			switch recv.Kind {
			case ir.VList, ir.VDevices:
				i := int(idx.AsInt())
				if i < 0 || i >= len(recv.L()) {
					return ir.NullV(), ctlNormal, &ExecError{App: appName, Pos: lpos,
						Msg: fmt.Sprintf("index %d out of range (len %d)", i, len(recv.L()))}
				}
				nv, err := apply(recv.L()[i], rhs)
				if err != nil {
					return ir.NullV(), ctlNormal, err
				}
				recv.L()[i] = nv
				return nv, ctlNormal, nil
			case ir.VMap:
				key := idx.String()
				nv, err := apply(recv.M()[key], rhs)
				if err != nil {
					return ir.NullV(), ctlNormal, err
				}
				recv.M()[key] = nv
				return nv, ctlNormal, nil
			}
			return ir.NullV(), ctlNormal, &ExecError{App: appName, Pos: lpos,
				Msg: "indexed assignment on non-collection"}
		}
	}
	return func(e *Env) (ir.Value, control, error) {
		if err := e.step(pos); err != nil {
			return ir.NullV(), ctlNormal, err
		}
		if _, err := rhsFn(e); err != nil {
			return ir.NullV(), ctlNormal, err
		}
		return ir.NullV(), ctlNormal, &ExecError{App: appName, Pos: s.Pos, Msg: "invalid assignment target"}
	}
}

// stateAssign compiles a write to one persistent state key.
func (c *compiler) stateAssign(key string, rhsFn exprFn, apply func(old, rhs ir.Value) (ir.Value, error), pos groovy.Pos) stmtFn {
	if c.stateIdx != nil {
		idx, ok := c.stateIdx[key]
		if !ok {
			// The layout pass collects every literal state key; a miss
			// means the layout and compiler disagree.
			c.failf("state key %q missing from layout", key)
			idx = 0
		}
		return func(e *Env) (ir.Value, control, error) {
			if err := e.step(pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			rhs, err := rhsFn(e)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			nv, err := apply(e.Host.StateSlot(idx), rhs)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			e.Host.SetStateSlot(idx, nv)
			return nv, ctlNormal, nil
		}
	}
	return func(e *Env) (ir.Value, control, error) {
		if err := e.step(pos); err != nil {
			return ir.NullV(), ctlNormal, err
		}
		rhs, err := rhsFn(e)
		if err != nil {
			return ir.NullV(), ctlNormal, err
		}
		st := e.Host.AppState()
		nv, err := apply(st[key], rhs)
		if err != nil {
			return ir.NullV(), ctlNormal, err
		}
		st[key] = nv
		return nv, ctlNormal, nil
	}
}

// ---- compile-time effects extraction ----

// Effects is the statically extracted footprint of one method and
// everything it can transitively call: which device attributes it may
// read or write, which platform facilities it touches, and whether any
// construct defeated the analysis. The model's partial-order reducer
// derives handler independence from these sets, so every approximation
// here errs toward MORE effects — a missed read or write would let the
// reducer prune an interleaving that actually matters, while a spurious
// one only costs reduction.
type Effects struct {
	// ReadAttrs/WriteAttrs are device attribute names the method may
	// read (dev.currentX, currentValue("x"), device.x) or drive via
	// actuator commands (sw.on() writes "switch"). Attribute-level, not
	// device-level: two handlers touching the same attribute on
	// different devices are treated as dependent, which is conservative.
	ReadAttrs  map[string]bool
	WriteAttrs map[string]bool
	// EventNames are synthetic sendEvent attribute names the method can
	// raise (they enqueue subscriber handlers like real device events).
	EventNames map[string]bool
	ReadsMode  bool // location.mode / location.currentMode reads
	WritesMode bool // setLocationMode / location.mode = / location.setMode
	ReadsTime  bool // now(), evt.date, xState timestamps, ...
	// Commands is set when the method can issue any actuator command:
	// commands append to the state's per-cascade command log, whose
	// encoding is order-sensitive, so two command-issuing handlers never
	// commute even on disjoint attributes.
	Commands bool
	// SendsEvent/Schedules/Unsubscribes/Notifies/Network flag sendEvent,
	// runIn/schedule/unschedule, unsubscribe, SMS/push/contact
	// notifications, and HTTP requests respectively.
	SendsEvent   bool
	Schedules    bool
	Unsubscribes bool
	Notifies     bool
	Network      bool
	// Unknown is set when the analysis met a construct it cannot bound
	// (dynamic attribute names, unresolvable calls, unsupported nodes).
	// An Unknown method must be treated as dependent on everything and
	// visible to every property.
	Unknown bool
	// DeviceIdentity is set when the method can observe or propagate the
	// identity of an individual device in a way that distinguishes
	// devices bound to the same multi-device input: identity property
	// reads (.id/.label/.displayName) outside log and notification
	// messages, order- or position-sensitive extraction from a
	// multi-device input list (indexing, first/last/find/sort/min/max),
	// or writing data derived from such a list into persistent state or
	// synthetic events. The symmetry-reduction layer refuses to place two
	// devices in one orbit when an app observing them carries this flag —
	// swapping the devices would not be guaranteed to fix the handler's
	// behaviour.
	DeviceIdentity bool
}

// PureLocal reports whether the method's writes are confined to its own
// app instance (persistent state, timers): it issues no actuator
// commands, raises no synthetic events, and never changes the location
// mode or its subscriptions. Dispatching a pure-local handler is
// invisible to every safety property and commutes with any transition
// of another app that does not read or write what it reads or writes.
func (ef *Effects) PureLocal() bool {
	return !ef.Unknown && !ef.Commands && !ef.SendsEvent &&
		!ef.WritesMode && !ef.Unsubscribes
}

// OutputAttrs returns the attribute names whose change events the
// method can cause: command-target attributes, synthetic event names,
// and "mode" for location-mode changes. Sorted for determinism.
func (ef *Effects) OutputAttrs() []string {
	set := map[string]bool{}
	for a := range ef.WriteAttrs {
		set[a] = true
	}
	for a := range ef.EventNames {
		set[a] = true
	}
	if ef.WritesMode {
		set["mode"] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// AppEffects extracts the effects of every method of an app. Each
// method's footprint includes everything reachable through intra-app
// helper calls (cycle-safe); it is independent of bindings, so the same
// table serves compiled and interpreter-mode execution.
func AppEffects(app *ir.App) map[string]*Effects {
	out := make(map[string]*Effects, len(app.Methods))
	// The input-name set and the helper mention memo are app-level facts:
	// shared across the per-method walkers so helper bodies are scanned
	// once per app, not once per handler.
	devListInputs := map[string]bool{}
	for _, in := range app.Inputs {
		if in.Kind == ir.InputDevice && in.Multiple {
			devListInputs[in.Name] = true
		}
	}
	mentionsMemo := map[string]int8{}
	for name := range app.Methods {
		w := &effectsWalker{app: app, visited: map[string]bool{}, ef: &Effects{
			ReadAttrs:  map[string]bool{},
			WriteAttrs: map[string]bool{},
			EventNames: map[string]bool{},
		}, devLists: map[string]int8{}, devListInputs: devListInputs, mentionsMemo: mentionsMemo}
		w.method(name)
		out[name] = w.ef
	}
	return out
}

// Device-list taint levels (see effectsWalker.devLists).
const (
	taintNone int8 = iota
	taintElem      // element of a list, or scalar data read from one
	taintList      // the list itself or an order-preserving derivation
)

// effectsWalker accumulates one method's transitive effects over the
// same AST the compiler lowers. Any node it does not recognise marks
// the effects Unknown — the sound default.
type effectsWalker struct {
	app     *ir.App
	visited map[string]bool
	ef      *Effects

	// suppress counts enclosing log/notification-message argument
	// contexts: device identity read there never reaches model state or
	// violation details (log is a no-op host call; notification message
	// bodies are discarded), so `log.debug "$evt.displayName"` does not
	// defeat symmetry.
	suppress int
	// devLists maps names to their device-list taint level: taintList
	// for multi-device inputs and list-valued derivations (aliases,
	// findAll/collect results), taintElem for element bindings (closure
	// params and for-in vars of iterations over a list) and scalar data
	// read from elements. Level taintList values are order-carrying
	// aggregates (flagged in ordered comparisons, sinks, and positional
	// extraction); level taintElem values carry a position-dependent
	// *choice* (flagged in sinks and extraction, but compared freely —
	// per-element predicates like any{ it.x == "y" } are symmetric).
	// devListInputs is the input-only subset, used when scanning helper
	// methods (whose scope does not include this method's locals).
	// mentionsMemo caches per-helper "mentions a device list" verdicts.
	devLists      map[string]int8
	devListInputs map[string]bool
	mentionsMemo  map[string]int8
	// taintGrew records that a walk raised some name's taint level; the
	// element-binding fixpoint loop (withElemTaint) re-walks until it
	// stays false.
	taintGrew bool
	// evtParam names the current method's event parameter when the
	// method is a subscription/schedule handler: evt.name there is the
	// event's attribute name, not device identity. Cleared while walking
	// helper methods (their params are not events).
	evtParam map[string]bool
}

func (w *effectsWalker) method(name string) {
	w.methodWithArgs(name, nil)
}

// methodWithArgs walks a method with the call-site argument taint bound
// to its parameters (args nil for entry-point walks). The visited guard
// is keyed by (name, parameter-taint signature) so a helper reached
// both with and without a device list re-walks under each binding.
//
// The body runs in its own lexical taint scope — a fresh map seeded
// from the (unshadowable) inputs and the parameter taints, matching
// Groovy scoping: a called method sees inputs and its params, never the
// caller's locals, and its locals cannot leak back. The suppression
// context of the call site is reset too — a helper invoked inside a log
// argument still performs its own state writes for real.
//
// The body is walked to a taint *fixpoint*: loops and closures feed
// assignments made late in a body into statements walked earlier
// (`state.x = prev; prev = it.attr` is order-dependent on the next
// iteration), so the walk repeats until no name's taint grows. Effects
// accumulation is idempotent, so re-walking only strengthens the
// result; if the bound is ever hit while still growing, the sound
// default is to refuse the symmetry certificate outright.
func (w *effectsWalker) methodWithArgs(name string, args []groovy.Expr) {
	m := w.app.Methods[name]
	if m == nil {
		w.ef.Unknown = true
		return
	}
	lvls := make([]int8, len(m.Params))
	sig := name + "\x00" // separator: method names must not collide with taint digits
	for i := range m.Params {
		if i < len(args) {
			lvls[i] = w.taintsDevList(args[i])
		}
		sig += string('0' + rune(lvls[i]))
	}
	if w.visited[sig] {
		return
	}
	w.visited[sig] = true

	prevEvt, prevSuppress, prevLists, prevGrew := w.evtParam, w.suppress, w.devLists, w.taintGrew
	w.evtParam = nil
	w.suppress = 0
	w.devLists = make(map[string]int8, len(w.devListInputs)+len(m.Params))
	for in := range w.devListInputs {
		w.devLists[in] = taintList
	}
	if len(m.Params) > 0 && w.isHandlerMethod(name) {
		w.evtParam = map[string]bool{m.Params[0].Name: true}
	}
	for i, p := range m.Params {
		if p.Default != nil {
			w.expr(p.Default)
		}
		if lvls[i] != taintNone {
			w.devLists[p.Name] = lvls[i]
			delete(w.evtParam, p.Name)
		} else {
			delete(w.devLists, p.Name) // param shadows any same-named input
		}
	}
	for pass := 0; ; pass++ {
		w.taintGrew = false
		w.block(m.Body)
		if !w.taintGrew {
			break
		}
		if pass >= 8 {
			// Taint still growing past any realistic alias-chain depth:
			// refuse the certificate rather than under-approximate.
			w.ef.DeviceIdentity = true
			break
		}
	}
	// Restore the caller's scope; growth inside this method is invisible
	// to the caller's own fixpoint (separate scopes), so its flag is
	// restored rather than merged.
	w.evtParam, w.suppress, w.devLists, w.taintGrew = prevEvt, prevSuppress, prevLists, prevGrew
}

// isHandlerMethod reports whether the method is registered as a
// subscription or schedule handler (its first parameter is then the
// platform event).
func (w *effectsWalker) isHandlerMethod(name string) bool {
	for _, s := range w.app.Subscriptions {
		if s.Handler == name {
			return true
		}
	}
	for _, s := range w.app.Schedules {
		if s.Handler == name {
			return true
		}
	}
	return false
}

func (w *effectsWalker) block(b *groovy.Block) {
	if b == nil {
		return
	}
	for _, st := range b.Stmts {
		w.stmt(st)
	}
}

func (w *effectsWalker) stmt(st groovy.Stmt) {
	switch s := st.(type) {
	case nil:
	case *groovy.VarDeclStmt:
		if lvl := w.taintsDevList(s.Init); lvl > w.devLists[s.Name] {
			// Aliasing/derivation: def x = sensors / sensors.findAll{...}.
			// Taint only grows (monotone), so the element-binding
			// fixpoint loop terminates.
			w.devLists[s.Name] = lvl
			w.taintGrew = true
		}
		w.expr(s.Init)
	case *groovy.AssignStmt:
		if lvl := w.taintsDevList(s.RHS); lvl != taintNone {
			if lhs, ok := s.LHS.(*groovy.Ident); ok && lvl > w.devLists[lhs.Name] {
				w.devLists[lhs.Name] = lvl
				w.taintGrew = true
			}
			if stateWriteTarget(s.LHS) && w.suppress == 0 {
				// Device-list-derived data flows into persistent state
				// (a symmetry sink): element choices are order-dependent
				// (last-writer), aggregates carry order, and a stored
				// list could be position-read by another handler, which
				// per-method analysis cannot see. The check is on the
				// whole RHS value, so helper returns are covered.
				w.ef.DeviceIdentity = true
			}
		}
		w.expr(s.RHS)
		w.assignTarget(s.LHS)
	case *groovy.ExprStmt:
		w.expr(s.X)
	case *groovy.IfStmt:
		w.expr(s.Cond)
		w.block(s.Then)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *groovy.Block:
		w.block(s)
	case *groovy.WhileStmt:
		w.expr(s.Cond)
		w.block(s.Body)
	case *groovy.ForInStmt:
		w.expr(s.Iter)
		if w.taintsDevList(s.Iter) != taintNone {
			// for (p in people): the loop variable binds list elements,
			// exactly like an .each closure param — element-derived data
			// in a sink is list-order-dependent.
			w.withElemTaint([]string{s.Var}, func() { w.block(s.Body) })
		} else {
			w.block(s.Body)
		}
	case *groovy.ForCStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.block(s.Body)
	case *groovy.ReturnStmt:
		w.expr(s.X)
	case *groovy.BreakStmt, *groovy.ContinueStmt, *groovy.ThrowStmt:
	case *groovy.SwitchStmt:
		w.expr(s.Subject)
		for _, c := range s.Cases {
			for _, vx := range c.Values {
				w.expr(vx)
			}
			for _, b := range c.Body {
				w.stmt(b)
			}
		}
		for _, b := range s.Default {
			w.stmt(b)
		}
	case *groovy.TryStmt:
		w.block(s.Body)
		for _, c := range s.Catches {
			w.block(c.Body)
		}
		w.block(s.Finally)
	default:
		w.ef.Unknown = true
	}
}

// withClosureTaint runs fn with the closure's parameter names (or the
// implicit `it`) bound as list elements, restoring the previous taint
// and event-parameter state afterwards (a param may shadow an outer
// name — including the handler's event parameter, whose .name
// exemption must not leak onto a device element).
func (w *effectsWalker) withClosureTaint(c *groovy.ClosureExpr, fn func()) {
	names := []string{"it"}
	if len(c.Params) > 0 {
		names = names[:0]
		for _, p := range c.Params {
			names = append(names, p.Name)
		}
	}
	w.withElemTaint(names, fn)
}

// withElemTaint binds names as list elements (taintElem) for the
// duration of fn, shadowing any event-parameter exemption they carry.
// Loop-carried taint flow through the body is handled by the
// method-level fixpoint in methodWithArgs, not here — nesting fixpoint
// loops would let an inner loop's convergence clear the outer's
// progress flag.
func (w *effectsWalker) withElemTaint(names []string, fn func()) {
	prev := make([]int8, len(names))
	prevEvt := make([]bool, len(names))
	for i, n := range names {
		prev[i] = w.devLists[n]
		w.devLists[n] = taintElem
		if w.evtParam[n] {
			prevEvt[i] = true
			delete(w.evtParam, n)
		}
	}
	fn()
	for i, n := range names {
		if prev[i] == taintNone {
			delete(w.devLists, n)
		} else {
			w.devLists[n] = prev[i]
		}
		if prevEvt[i] {
			w.evtParam[n] = true
		}
	}
}

// orderInsensitiveAggregates are list methods whose value is a function
// of the element *multiset* — invariant under any permutation of the
// list — so they launder device-list taint: any{}/count{}/size() over
// interchangeable devices is symmetric by construction.
var orderInsensitiveAggregates = map[string]bool{
	"any": true, "every": true, "count": true, "contains": true,
	"size": true, "isEmpty": true, "sum": true,
}

// taintsDevList returns the device-list taint level of an expression:
// taintList for the list itself and order-preserving derivations
// (findAll/collect/sort chains, helper returns, list concatenation),
// taintElem for elements and scalar data read from them, taintNone for
// everything else — including order-insensitive aggregates (any, count,
// size, …), which launder the taint.
func (w *effectsWalker) taintsDevList(e groovy.Expr) int8 {
	switch x := e.(type) {
	case *groovy.Ident:
		return w.devLists[x.Name]
	case *groovy.PropertyExpr:
		if id, ok := x.Recv.(*groovy.Ident); ok && id.Name == "settings" {
			// settings.sensors names the input itself — resolved through
			// the unshadowable input set, so a local or parameter
			// sharing the input's name cannot erase the taint.
			if w.devListInputs[x.Name] {
				return taintList
			}
			return taintNone
		}
		if w.taintsDevList(x.Recv) != taintNone {
			// A property of a tainted value: scalar data carrying a
			// position-dependent choice (it.currentPresence, list.first).
			return taintElem
		}
		return taintNone
	case *groovy.CallExpr:
		if x.Recv != nil && orderInsensitiveAggregates[x.Name] {
			return taintNone // multiset-invariant: taint laundered
		}
		lvl := taintNone
		// Arguments taint the result too: list-combining method forms
		// (l.plus(people)) and helpers taking the list as a parameter
		// (f(people)) can both return list-derived data.
		for _, a := range x.Args {
			if l := w.taintsDevList(a); l > lvl {
				lvl = l
			}
		}
		if x.Recv != nil {
			if l := w.taintsDevList(x.Recv); l > lvl {
				lvl = l
			}
			return lvl
		}
		// A receiverless intra-app helper call: its return value may be
		// the device list (`def ppl() { return people }` … `ppl()[0]`).
		// Taint conservatively when the helper's body mentions any
		// multi-device input at all.
		if w.app.Methods[x.Name] != nil && w.methodMentionsDevList(x.Name) {
			return taintList
		}
		return lvl
	case *groovy.IndexExpr:
		if w.taintsDevList(x.Recv) != taintNone {
			return taintElem
		}
		return taintNone
	case *groovy.ListLit:
		for _, el := range x.Elems {
			if w.taintsDevList(el) != taintNone {
				return taintList // an ordered literal built from tainted parts
			}
		}
		return taintNone
	case *groovy.GStringLit:
		lvl := taintNone
		for _, ge := range x.Exprs {
			// Interpolating a list renders it in order (order-carrying);
			// interpolating element data stays element-level.
			lvl = maxTaint(lvl, w.taintsDevList(ge))
		}
		return lvl
	case *groovy.MapLit:
		lvl := taintNone
		for _, en := range x.Entries {
			lvl = maxTaint(lvl, w.taintsDevList(en.Value))
		}
		return lvl
	case *groovy.UnaryExpr:
		return w.taintsDevList(x.X)
	case *groovy.BinaryExpr:
		return maxTaint(w.taintsDevList(x.L), w.taintsDevList(x.R))
	case *groovy.TernaryExpr:
		return maxTaint(w.taintsDevList(x.Then), w.taintsDevList(x.Else))
	case *groovy.ElvisExpr:
		return maxTaint(w.taintsDevList(x.X), w.taintsDevList(x.Y))
	case *groovy.CastExpr:
		return w.taintsDevList(x.X)
	case *groovy.IntLit, *groovy.NumLit, *groovy.StrLit, *groovy.BoolLit,
		*groovy.NullLit:
		return taintNone
	case nil:
		return taintNone
	}
	// Unhandled expression kind: scan the subtree for tainted references
	// — the sound default is tainted-if-it-could-be, mirroring the
	// walker's own unrecognized-node => Unknown rule (a literal wrapper
	// like a future container kind must not launder taint).
	lvl := taintNone
	groovy.Walk(e, func(n groovy.Node) bool {
		switch x := n.(type) {
		case *groovy.Ident:
			lvl = maxTaint(lvl, w.devLists[x.Name])
		case *groovy.PropertyExpr:
			if id, ok := x.Recv.(*groovy.Ident); ok && id.Name == "settings" && w.devListInputs[x.Name] {
				lvl = taintList
			}
		}
		return lvl < taintList
	})
	return lvl
}

func maxTaint(a, b int8) int8 {
	if a > b {
		return a
	}
	return b
}

// methodMentionsDevList reports (memoized, shared across the app's
// per-method walkers) whether a method's source mentions a multi-device
// input by name, directly or through further helper calls — the
// conservative signal that its return value may derive from the list.
// The walk is groovy.Walk, whose traversal covers every node kind, so a
// future AST construct cannot silently hide a mention.
func (w *effectsWalker) methodMentionsDevList(name string) bool {
	switch w.mentionsMemo[name] {
	case 1, 3:
		return true // known-true, or in progress (cycle: assume true — the sound direction)
	case 2:
		return false
	}
	w.mentionsMemo[name] = 3
	found := false
	if m := w.app.Methods[name]; m != nil {
		groovy.Walk(m, func(n groovy.Node) bool {
			if found {
				return false
			}
			switch x := n.(type) {
			case *groovy.Ident:
				if w.devListInputs[x.Name] {
					found = true
				}
			case *groovy.PropertyExpr:
				if id, ok := x.Recv.(*groovy.Ident); ok && id.Name == "settings" && w.devListInputs[x.Name] {
					found = true
				}
			case *groovy.CallExpr:
				if x.Recv == nil && w.app.Methods[x.Name] != nil && w.methodMentionsDevList(x.Name) {
					found = true
				}
			}
			return !found
		})
	}
	if found {
		w.mentionsMemo[name] = 1
	} else {
		w.mentionsMemo[name] = 2
	}
	return found
}

// stateWriteTarget reports whether an assignment target is the app's
// persistent state: state.x / atomicState.x, the index forms
// state["x"] / state.m["k"], or any deeper path rooted at either.
func stateWriteTarget(lhs groovy.Expr) bool {
	switch t := lhs.(type) {
	case *groovy.Ident:
		return t.Name == "state" || t.Name == "atomicState"
	case *groovy.PropertyExpr:
		return stateWriteTarget(t.Recv)
	case *groovy.IndexExpr:
		return stateWriteTarget(t.Recv)
	}
	return false
}

// assignTarget classifies the left-hand side of an assignment:
// state.x and locals are app-local, location.mode is a mode write,
// anything else unrecognised defeats the analysis.
func (w *effectsWalker) assignTarget(lhs groovy.Expr) {
	switch t := lhs.(type) {
	case *groovy.Ident:
	case *groovy.PropertyExpr:
		if id, ok := t.Recv.(*groovy.Ident); ok {
			switch id.Name {
			case "state", "atomicState":
				return
			case "location":
				if t.Name == "mode" {
					w.ef.WritesMode = true
					return
				}
			}
		}
		// Property assignment on anything else: the compiler rejects it
		// at run time, but stay conservative.
		w.ef.Unknown = true
	case *groovy.IndexExpr:
		w.expr(t.Recv)
		w.expr(t.Index)
	default:
		w.ef.Unknown = true
	}
}

func (w *effectsWalker) expr(e groovy.Expr) {
	switch x := e.(type) {
	case nil:
	case *groovy.Ident:
	case *groovy.IntLit, *groovy.NumLit, *groovy.StrLit,
		*groovy.BoolLit, *groovy.NullLit:
	case *groovy.GStringLit:
		for _, ge := range x.Exprs {
			w.expr(ge)
		}
	case *groovy.ListLit:
		for _, el := range x.Elems {
			w.expr(el)
		}
	case *groovy.MapLit:
		for _, en := range x.Entries {
			w.expr(en.Value)
		}
	case *groovy.BinaryExpr:
		if w.suppress == 0 && comparisonOps[x.Op] && !isNullLit(x.L) && !isNullLit(x.R) &&
			(w.taintsDevList(x.L) >= taintList || w.taintsDevList(x.R) >= taintList) {
			// Comparing an order-carrying aggregate (collect{…}.join(),
			// an ordered list, an interpolated list string) branches on
			// list order: the method can distinguish permutations.
			// Element-level operands compare freely (per-element
			// predicates are symmetric), and null checks only observe
			// presence.
			w.ef.DeviceIdentity = true
		}
		w.expr(x.L)
		w.expr(x.R)
	case *groovy.UnaryExpr:
		w.expr(x.X)
	case *groovy.TernaryExpr:
		w.expr(x.Cond)
		w.expr(x.Then)
		w.expr(x.Else)
	case *groovy.ElvisExpr:
		w.expr(x.X)
		w.expr(x.Y)
	case *groovy.IndexExpr:
		if w.suppress == 0 && w.taintsDevList(x.Recv) != taintNone {
			// sensors[0] / sensors.findAll{...}[0]: position-sensitive
			// (suppressed inside log/notification arguments, whose
			// values the model host discards).
			w.ef.DeviceIdentity = true
		}
		w.expr(x.Recv)
		w.expr(x.Index)
	case *groovy.CastExpr:
		w.expr(x.X)
	case *groovy.ClosureExpr:
		w.block(x.Body)
	case *groovy.PropertyExpr:
		w.property(x)
	case *groovy.CallExpr:
		w.call(x)
	default:
		w.ef.Unknown = true
	}
}

// property classifies a property read. Receivers are not tracked to
// concrete devices: any property whose name derives a registry
// attribute (currentX, xState, or a bare attribute name) counts as a
// read of that attribute, which over-approximates reads through
// aliases, collections, and state-stored device references.
func (w *effectsWalker) property(x *groovy.PropertyExpr) {
	if id, ok := x.Recv.(*groovy.Ident); ok {
		switch id.Name {
		case "settings":
			// settings.sensors is the qualified form of a bare input
			// reference; sink flow is checked at value level
			// (taintsDevList) by the state-write and sendEvent sites.
			return
		case "state", "atomicState", "app", "Math":
			return // app-local or constant
		case "location":
			if x.Name == "mode" || x.Name == "currentMode" {
				w.ef.ReadsMode = true
			}
			return
		}
	}
	w.expr(x.Recv)
	switch x.Name {
	case "date":
		w.ef.ReadsTime = true // evt.date / xState.date render host.Now()
		return
	case "id", "deviceId", "label", "displayName", "deviceNetworkId":
		if w.suppress == 0 {
			// Device identity observed outside a log/notification message:
			// the method can distinguish devices of one orbit.
			w.ef.DeviceIdentity = true
		}
		return
	case "name":
		// device.name is identity (the label); evt.name is the event's
		// attribute name — exempt only the handler's event parameter.
		if id, ok := x.Recv.(*groovy.Ident); ok && w.evtParam[id.Name] {
			return
		}
		if w.suppress == 0 {
			w.ef.DeviceIdentity = true
		}
		return
	}
	if w.suppress == 0 && orderSensitiveMethods[x.Name] && w.taintsDevList(x.Recv) != taintNone {
		// Property-form positional extraction (people.first, list.last)
		// mirrors the call form the runtime also accepts.
		w.ef.DeviceIdentity = true
		return
	}
	if attr, ok := attrOfProperty(x.Name); ok {
		w.ef.ReadAttrs[attr] = true
		if strings.HasSuffix(x.Name, "State") {
			w.ef.ReadsTime = true // xState maps carry a timestamp
		}
	}
}

// attrOfProperty maps a property name to the device attribute it would
// read if the receiver were a device: currentSwitch → switch,
// temperatureState → temperature, temperature → temperature. Only
// names present in the capability registry count.
func attrOfProperty(name string) (string, bool) {
	cand := name
	if strings.HasPrefix(name, "current") && len(name) > len("current") {
		rest := name[len("current"):]
		cand = strings.ToLower(rest[:1]) + rest[1:]
	} else if strings.HasSuffix(name, "State") && len(name) > len("State") {
		cand = name[:len(name)-len("State")]
	}
	if device.IsAttribute(cand) {
		return cand, true
	}
	if cand != name && device.IsAttribute(name) {
		return name, true
	}
	return "", false
}

// call classifies a call expression. The dispatch mirrors the
// compiler's: log/Math fast paths, bare platform builtins, user
// methods, then receiver methods — where any name that is a registry
// command is treated as an actuator command on some device.
func (w *effectsWalker) call(x *groovy.CallExpr) {
	if id, ok := x.Recv.(*groovy.Ident); ok && id.Name == "log" {
		// Log output never reaches model state, properties, or trails:
		// identity reads inside it are harmless for symmetry.
		w.suppress++
		for _, a := range x.Args {
			w.expr(a)
		}
		w.suppress--
		return
	}
	if id, ok := x.Recv.(*groovy.Ident); ok && id.Name == "Math" {
		for _, a := range x.Args {
			w.expr(a)
		}
		return
	}
	// Notification message bodies are discarded by the model host; only
	// the Notifies flag (set below in bareCall) is observable, so
	// identity reads inside them are suppressed for the symmetry
	// certificate.
	suppressFrom := unreadArgsFrom(x)
	if x.Recv == nil && x.Name == "sendEvent" && w.suppress == 0 {
		// Synthetic event payloads re-enter the model as state: a
		// device-list-derived value there is a symmetry sink exactly
		// like a persistent-state write.
		for _, a := range x.Args {
			if w.taintsDevList(a) != taintNone {
				w.ef.DeviceIdentity = true
			}
		}
		for _, na := range x.NamedArgs {
			if w.taintsDevList(na.Value) != taintNone {
				w.ef.DeviceIdentity = true
			}
		}
	}
	for i, a := range x.Args {
		if suppressFrom >= 0 && i >= suppressFrom {
			w.suppress++
			w.expr(a)
			w.suppress--
		} else {
			w.expr(a)
		}
	}
	if suppressFrom >= 0 {
		w.suppress++
	}
	for _, na := range x.NamedArgs {
		w.expr(na.Value)
	}
	if suppressFrom >= 0 {
		w.suppress--
	}
	if x.Closure != nil {
		if x.Recv != nil && w.taintsDevList(x.Recv) != taintNone {
			// Iterating a device list binds its elements to the closure
			// parameters: element-derived data flowing into a sink
			// (people.each { state.last = it.currentPresence }) is
			// order-dependent, so params taint like the list itself.
			w.withClosureTaint(x.Closure, func() { w.block(x.Closure.Body) })
		} else {
			w.block(x.Closure.Body)
		}
	}
	if w.suppress == 0 && x.Recv != nil && w.taintsDevList(x.Recv) != taintNone && orderSensitiveMethods[x.Name] {
		// sensors.first() / sensors.find{...} / sensors.findAll{...}.sort():
		// extracts an order- or position-determined element of (data
		// derived from) a multi-device input — behaviour may distinguish
		// devices of one orbit. Suppressed inside log/notification
		// arguments, whose values the model host discards.
		w.ef.DeviceIdentity = true
	}

	if x.Recv == nil {
		w.bareCall(x)
		return
	}
	w.expr(x.Recv)

	// location.setMode / location.getMode.
	if id, ok := x.Recv.(*groovy.Ident); ok && id.Name == "location" {
		switch x.Name {
		case "setMode":
			w.ef.WritesMode = true
			return
		case "getMode":
			w.ef.ReadsMode = true
			return
		}
	}

	switch x.Name {
	case "currentValue", "latestValue", "currentState", "latestState":
		if x.Name == "currentState" || x.Name == "latestState" {
			w.ef.ReadsTime = true
		}
		if attr := constStrArg(x, 0); attr != "" {
			w.ef.ReadAttrs[attr] = true
		} else {
			w.ef.Unknown = true // dynamic attribute name
		}
		return
	case "getDisplayName", "getLabel", "getName", "getId":
		if w.suppress == 0 {
			w.ef.DeviceIdentity = true // identity getters, same as .label/.id
		}
		return
	case "hasCapability", "hasCommand", "hasAttribute",
		"events", "eventsSince", "statesSince", "supportedAttributes":
		return // device read APIs with no model-state footprint
	}
	if stateMutatorMethods[x.Name] && stateWriteTarget(x.Recv) {
		// In-place mutation of a persistent-state collection
		// (state.m.put(k, v), state.list.add(v)): builtins execute these
		// against the live backing map/list, so the arguments are a
		// symmetry sink exactly like an assignment RHS.
		if w.suppress == 0 {
			for _, a := range x.Args {
				if w.taintsDevList(a) != taintNone {
					w.ef.DeviceIdentity = true
				}
			}
		}
		return
	}
	if pureValueMethods[x.Name] {
		return
	}
	if attrs := device.CommandAttributes(x.Name); attrs != nil {
		// A command reaching any device drives these attributes; the
		// receiver may be an input, an alias, a collection element, or
		// even a device stashed in state — all write the same class.
		w.ef.Commands = true
		for _, a := range attrs {
			w.ef.WriteAttrs[a] = true
		}
		return
	}
	w.ef.Unknown = true
}

// bareCall classifies a receiverless call: platform builtins by name,
// then intra-app helper methods (walked transitively).
func (w *effectsWalker) bareCall(x *groovy.CallExpr) {
	switch x.Name {
	case "subscribe":
		// Static wiring; runtime re-subscription is a no-op.
		return
	case "unsubscribe":
		w.ef.Unsubscribes = true
		return
	case "unschedule":
		w.ef.Schedules = true // clears own timers: app-local
		return
	}
	if notifyMessageCalls[x.Name] {
		// One source of truth with the argument-suppression set in
		// call(): a notification builtin added there is a Notifies here.
		w.ef.Notifies = true
		return
	}
	switch x.Name {
	case "httpPost", "httpPostJson", "httpGet", "httpPut", "httpDelete":
		w.ef.Network = true
		return
	case "sendEvent":
		w.ef.SendsEvent = true
		name := ""
		for _, na := range x.NamedArgs {
			if na.Key == "name" {
				if s, ok := na.Value.(*groovy.StrLit); ok {
					name = s.V
				}
			}
		}
		if name != "" {
			w.ef.EventNames[name] = true
		} else {
			w.ef.Unknown = true // dynamic event name
		}
		return
	case "setLocationMode":
		w.ef.WritesMode = true
		return
	case "runIn", "schedule", "runOnce",
		"runEvery1Minute", "runEvery5Minutes", "runEvery10Minutes",
		"runEvery15Minutes", "runEvery30Minutes", "runEvery1Hour", "runEvery3Hours":
		w.ef.Schedules = true
		return
	case "now", "getSunriseAndSunset", "timeToday", "timeTodayAfter", "toDateTime":
		w.ef.ReadsTime = true
		return
	case "canSchedule", "timeOfDayIsBetween", "parseJson", "parseLanMessage",
		"pause", "getAllChildDevices", "getChildDevices":
		return
	}
	if w.app.Methods[x.Name] != nil {
		w.methodWithArgs(x.Name, x.Args)
		return
	}
	w.ef.Unknown = true
}

// notifyMessageCalls are the receiverless notification builtins whose
// string arguments the model host discards (only the "app notified" bit
// is observable); identity reads inside them are suppressed for the
// symmetry certificate. HTTP calls are deliberately absent: request
// URLs appear verbatim in leak-property violation details.
var notifyMessageCalls = map[string]bool{
	"sendSms": true, "sendSmsMessage": true, "sendPush": true,
	"sendPushMessage": true, "sendNotification": true,
	"sendNotificationToContacts": true, "sendNotificationEvent": true,
}

// unreadArgsFrom returns the index from which the host never sees x's
// arguments (named ones included), or -1 when it reads them all. The
// recipient of sendSms/sendSmsMessage IS read — it reaches
// recipientConfigured and leak-property details verbatim.
func unreadArgsFrom(x *groovy.CallExpr) int {
	if x.Recv != nil || !notifyMessageCalls[x.Name] {
		return -1
	}
	if x.Name == "sendSms" || x.Name == "sendSmsMessage" {
		return 1
	}
	return 0
}

// comparisonOps are the binary operators that observe a value rather
// than combine it — comparing an order-carrying aggregate branches on
// list order.
var comparisonOps = map[groovy.Kind]bool{
	groovy.Eq: true, groovy.Neq: true, groovy.Lt: true, groovy.Gt: true,
	groovy.Le: true, groovy.Ge: true, groovy.Compare: true,
}

func isNullLit(e groovy.Expr) bool {
	_, ok := e.(*groovy.NullLit)
	return ok
}

// orderSensitiveMethods extract an element (or an ordering) determined
// by list position. Applied to a multi-device input they can
// distinguish devices that are otherwise interchangeable; uniform
// broadcasts (each/collect/on()/off()) deliberately stay off this list
// — the canonicalization layer normalises their order-dependent queue
// and command-log effects.
var orderSensitiveMethods = map[string]bool{
	"first": true, "last": true, "head": true, "getAt": true, "get": true,
	"find": true, "sort": true, "min": true, "max": true, "indexOf": true,
	"eachWithIndex": true, "reverse": true, "take": true, "drop": true,
	"pop": true,
}

// stateMutatorMethods mutate their receiver collection in place; on a
// persistent-state-rooted receiver they write app state without an
// assignment, so their arguments need the same sink treatment.
var stateMutatorMethods = map[string]bool{
	"put": true, "putAll": true, "remove": true, "add": true,
	"push": true, "leftShift": true, "addAll": true,
}

// pureValueMethods are receiver methods that only compute over values
// (collections, strings, numbers) with no model-state footprint; their
// arguments and closures are walked by the caller.
var pureValueMethods = map[string]bool{
	"each": true, "eachWithIndex": true, "find": true, "findAll": true,
	"collect": true, "any": true, "every": true, "count": true,
	"first": true, "last": true, "size": true, "isEmpty": true,
	"contains": true, "sum": true, "max": true, "min": true,
	"join": true, "reverse": true, "sort": true, "unique": true,
	"add": true, "push": true, "leftShift": true, "plus": true,
	"minus": true, "get": true, "getAt": true, "indexOf": true,
	"toString": true, "toInteger": true, "toLong": true, "toFloat": true,
	"toDouble": true, "toBigDecimal": true, "intValue": true,
	"longValue": true, "floatValue": true, "doubleValue": true,
	"round": true, "intdiv": true, "abs": true, "times": true,
	"put": true, "containsKey": true, "remove": true, "keySet": true,
	"keys": true, "values": true, "toUpperCase": true, "toLowerCase": true,
	"trim": true, "split": true, "replace": true, "replaceAll": true,
	"startsWith": true, "endsWith": true, "substring": true,
	"equalsIgnoreCase": true, "padLeft": true, "padRight": true,
	"format": true, "isNumber": true, "power": true, "mod": true,
}

func constStrArg(x *groovy.CallExpr, i int) string {
	if i >= len(x.Args) {
		return ""
	}
	if s, ok := x.Args[i].(*groovy.StrLit); ok {
		return s.V
	}
	return ""
}
