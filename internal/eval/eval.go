// Package eval executes translated smart-app event handlers against a
// model state. It is the execution engine behind the model generator's
// app_event_handler step (§8, Algorithm 1): a tree-walking interpreter
// over the Groovy AST with SmartThings semantics — device commands,
// platform APIs, the persistent state map, GString rendering, and
// Groovy's collection utilities.
package eval

import (
	"fmt"
	"strconv"
	"strings"

	"iotsan/internal/groovy"
	"iotsan/internal/ir"
)

// Host is the model's side of the evaluator: device state access,
// actuator commands, and platform effects. The model generator
// implements it; tests may implement lightweight fakes.
type Host interface {
	// DeviceAttr reads a device attribute value ("on", 75, ...).
	DeviceAttr(dev int, attr string) (ir.Value, bool)
	// DeviceLabel returns the device's display name.
	DeviceLabel(dev int) string
	// DeviceCommand delivers an actuator command.
	DeviceCommand(dev int, cmd string, args []ir.Value)
	// LocationMode returns the current location mode.
	LocationMode() string
	// SetLocationMode requests a mode change.
	SetLocationMode(mode string)
	// Modes lists the configured location modes.
	Modes() []string
	// Now returns model time in seconds.
	Now() int64
	// AppState returns the app's persistent state map (mutable). It is
	// the storage for apps whose state keys cannot be laid out
	// statically.
	AppState() map[string]ir.Value
	// StateSlot/SetStateSlot access the app's persistent state by slot
	// index when the host laid the state out statically (see
	// StateLayout); hosts without slotted state may panic — they are
	// never called unless the Evaluator/Program was built with a state
	// index.
	StateSlot(i int) ir.Value
	SetStateSlot(i int, v ir.Value)
	// SendSMS, SendPush, HTTPRequest, SendNotificationToContacts record
	// messaging effects (§8's leakage properties hook in here). None takes
	// the message text: the model never reads it, which is what entitles
	// the compiler to build none (compiler.unread).
	SendSMS(phone string)
	SendPush()
	HTTPRequest(method, url string)
	SendNotificationToContacts()
	// Unsubscribe records execution of the security-sensitive
	// unsubscribe command.
	Unsubscribe()
	// SendEvent records a synthetic (potentially fake) event.
	SendEvent(name, value string)
	// Schedule registers a timer callback.
	Schedule(handler string, delaySeconds int64)
	// Unschedule cancels timers.
	Unschedule()
	// Log records that a log statement or sendNotificationEvent ran.
	Log(level string)
}

// Event is the cyber event delivered to a handler.
type Event struct {
	Device      int // device instance index; -1 location, -2 app, -3 timer
	Name        string
	Value       ir.Value
	DisplayName string
}

// Limits bound handler execution so the model checker always terminates.
type Limits struct {
	MaxSteps int // interpreter steps per handler call (default 200000)
	MaxDepth int // call depth (default 64)
}

// An ExecError reports a runtime error during handler execution with the
// source position where it occurred.
type ExecError struct {
	App string
	Pos groovy.Pos
	Msg string
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.App, e.Pos, e.Msg)
}

// Evaluator executes handlers of one app instance.
type Evaluator struct {
	App      *ir.App
	Bindings map[string]ir.Value // input name → bound value
	Host     Host
	Limits   Limits
	// StateIdx, when non-nil, maps the app's statically known state keys
	// to host state slots (see StateLayout); state.x accesses then go
	// through Host.StateSlot/SetStateSlot instead of the KV map, so the
	// tree-walking oracle observes exactly the state the compiled
	// programs operate on.
	StateIdx map[string]int

	steps int
	depth int
}

// control is the statement-level control flow result.
type control int

const (
	ctlNormal control = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

type scope struct {
	vars   map[string]ir.Value
	parent *scope
}

func (s *scope) lookup(name string) (*scope, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if _, ok := cur.vars[name]; ok {
			return cur, true
		}
	}
	return nil, false
}

// CallHandler invokes a handler method with an event argument,
// returning the error (if any) from execution.
func (ev *Evaluator) CallHandler(name string, evt *Event) error {
	m := ev.App.Methods[name]
	if m == nil {
		return &ExecError{App: ev.App.Name, Msg: fmt.Sprintf("no such handler %q", name)}
	}
	ev.steps = 0
	ev.depth = 0
	args := []ir.Value{}
	if len(m.Params) > 0 {
		args = append(args, ev.eventValue(evt))
	}
	_, err := ev.callMethod(m, args)
	return err
}

// CallMethodByName invokes any method with explicit arguments (used by
// timers and tests).
func (ev *Evaluator) CallMethodByName(name string, args []ir.Value) (ir.Value, error) {
	m := ev.App.Methods[name]
	if m == nil {
		return ir.NullV(), &ExecError{App: ev.App.Name, Msg: fmt.Sprintf("no such method %q", name)}
	}
	ev.steps = 0
	ev.depth = 0
	return ev.callMethod(m, args)
}

// eventValue builds the evt object delivered to handlers.
func (ev *Evaluator) eventValue(evt *Event) ir.Value {
	return eventValueOf(ev.Host, evt)
}

func toStringValue(v ir.Value) ir.Value {
	if v.Kind == ir.VStr {
		return v
	}
	return ir.StrV(v.String())
}

func (ev *Evaluator) limits() Limits {
	l := ev.Limits
	if l.MaxSteps == 0 {
		l.MaxSteps = 200000
	}
	if l.MaxDepth == 0 {
		l.MaxDepth = 64
	}
	return l
}

func (ev *Evaluator) step(pos groovy.Pos) error {
	ev.steps++
	if ev.steps > ev.limits().MaxSteps {
		return &ExecError{App: ev.App.Name, Pos: pos, Msg: "step budget exhausted (possible livelock)"}
	}
	return nil
}

func (ev *Evaluator) callMethod(m *groovy.MethodDecl, args []ir.Value) (ir.Value, error) {
	ev.depth++
	defer func() { ev.depth-- }()
	if ev.depth > ev.limits().MaxDepth {
		return ir.NullV(), &ExecError{App: ev.App.Name, Pos: m.Pos, Msg: "call depth exceeded"}
	}
	sc := &scope{vars: map[string]ir.Value{}}
	for i, p := range m.Params {
		if i < len(args) {
			sc.vars[p.Name] = args[i]
		} else if p.Default != nil {
			v, err := ev.evalExpr(p.Default, sc)
			if err != nil {
				return ir.NullV(), err
			}
			sc.vars[p.Name] = v
		} else {
			sc.vars[p.Name] = ir.NullV()
		}
	}
	v, ctl, err := ev.execBlock(m.Body, sc)
	if err != nil {
		return ir.NullV(), err
	}
	_ = ctl
	return v, nil
}

// execBlock executes statements; the returned value is the value of the
// final expression (Groovy's implicit return) or the explicit return
// value.
func (ev *Evaluator) execBlock(b *groovy.Block, sc *scope) (ir.Value, control, error) {
	var last ir.Value
	if b == nil {
		return last, ctlNormal, nil
	}
	for _, st := range b.Stmts {
		v, ctl, err := ev.execStmt(st, sc)
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

func (ev *Evaluator) execStmt(st groovy.Stmt, sc *scope) (ir.Value, control, error) {
	if err := ev.step(st.NodePos()); err != nil {
		return ir.NullV(), ctlNormal, err
	}
	switch s := st.(type) {
	case *groovy.VarDeclStmt:
		v := ir.NullV()
		if s.Init != nil {
			var err error
			v, err = ev.evalExpr(s.Init, sc)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
		}
		sc.vars[s.Name] = v
		return v, ctlNormal, nil

	case *groovy.AssignStmt:
		return ev.execAssign(s, sc)

	case *groovy.ExprStmt:
		v, err := ev.evalExpr(s.X, sc)
		return v, ctlNormal, err

	case *groovy.IfStmt:
		cond, err := ev.evalExpr(s.Cond, sc)
		if err != nil {
			return ir.NullV(), ctlNormal, err
		}
		if cond.Truthy() {
			return ev.execBlock(s.Then, &scope{vars: map[string]ir.Value{}, parent: sc})
		}
		if s.Else != nil {
			return ev.execStmt(s.Else, sc)
		}
		return ir.NullV(), ctlNormal, nil

	case *groovy.Block:
		return ev.execBlock(s, &scope{vars: map[string]ir.Value{}, parent: sc})

	case *groovy.WhileStmt:
		for {
			if err := ev.step(s.Pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			cond, err := ev.evalExpr(s.Cond, sc)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			if !cond.Truthy() {
				return ir.NullV(), ctlNormal, nil
			}
			_, ctl, err := ev.execBlock(s.Body, &scope{vars: map[string]ir.Value{}, parent: sc})
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

	case *groovy.ForInStmt:
		iter, err := ev.evalExpr(s.Iter, sc)
		if err != nil {
			return ir.NullV(), ctlNormal, err
		}
		for _, item := range iterate(iter) {
			inner := &scope{vars: map[string]ir.Value{s.Var: item}, parent: sc}
			_, ctl, err := ev.execBlock(s.Body, inner)
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

	case *groovy.ForCStmt:
		inner := &scope{vars: map[string]ir.Value{}, parent: sc}
		if s.Init != nil {
			if _, _, err := ev.execStmt(s.Init, inner); err != nil {
				return ir.NullV(), ctlNormal, err
			}
		}
		for {
			if err := ev.step(s.Pos); err != nil {
				return ir.NullV(), ctlNormal, err
			}
			if s.Cond != nil {
				cond, err := ev.evalExpr(s.Cond, inner)
				if err != nil {
					return ir.NullV(), ctlNormal, err
				}
				if !cond.Truthy() {
					break
				}
			}
			_, ctl, err := ev.execBlock(s.Body, &scope{vars: map[string]ir.Value{}, parent: inner})
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			if ctl == ctlBreak {
				break
			}
			if ctl == ctlReturn {
				return ir.NullV(), ctlReturn, nil
			}
			if s.Post != nil {
				if _, _, err := ev.execStmt(s.Post, inner); err != nil {
					return ir.NullV(), ctlNormal, err
				}
			}
		}
		return ir.NullV(), ctlNormal, nil

	case *groovy.ReturnStmt:
		v := ir.NullV()
		if s.X != nil {
			var err error
			v, err = ev.evalExpr(s.X, sc)
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
		}
		return v, ctlReturn, nil

	case *groovy.BreakStmt:
		return ir.NullV(), ctlBreak, nil

	case *groovy.ContinueStmt:
		return ir.NullV(), ctlContinue, nil

	case *groovy.SwitchStmt:
		subj, err := ev.evalExpr(s.Subject, sc)
		if err != nil {
			return ir.NullV(), ctlNormal, err
		}
		matched := false
		for _, c := range s.Cases {
			if !matched {
				for _, vx := range c.Values {
					v, err := ev.evalExpr(vx, sc)
					if err != nil {
						return ir.NullV(), ctlNormal, err
					}
					if subj.Equal(v) {
						matched = true
						break
					}
				}
			}
			if matched { // fallthrough semantics until break
				for _, bs := range c.Body {
					_, ctl, err := ev.execStmt(bs, sc)
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
			for _, bs := range s.Default {
				_, ctl, err := ev.execStmt(bs, sc)
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

	case *groovy.TryStmt:
		// The model does not throw; execute the body, then finally.
		v, ctl, err := ev.execBlock(s.Body, &scope{vars: map[string]ir.Value{}, parent: sc})
		if s.Finally != nil {
			if _, _, ferr := ev.execBlock(s.Finally, &scope{vars: map[string]ir.Value{}, parent: sc}); ferr != nil && err == nil {
				err = ferr
			}
		}
		return v, ctl, err

	case *groovy.ThrowStmt:
		return ir.NullV(), ctlNormal, &ExecError{App: ev.App.Name, Pos: s.Pos, Msg: "exception thrown"}
	}
	return ir.NullV(), ctlNormal, &ExecError{App: ev.App.Name, Pos: st.NodePos(),
		Msg: fmt.Sprintf("unsupported statement %T", st)}
}

func (ev *Evaluator) execAssign(s *groovy.AssignStmt, sc *scope) (ir.Value, control, error) {
	rhs, err := ev.evalExpr(s.RHS, sc)
	if err != nil {
		return ir.NullV(), ctlNormal, err
	}

	apply := func(old ir.Value) (ir.Value, error) {
		switch s.Op {
		case groovy.Assign:
			return rhs, nil
		case groovy.PlusAssign:
			return binaryOp(groovy.Plus, old, rhs, s.Pos, ev.App.Name)
		case groovy.MinusAssign:
			return binaryOp(groovy.Minus, old, rhs, s.Pos, ev.App.Name)
		case groovy.StarAssign:
			return binaryOp(groovy.Star, old, rhs, s.Pos, ev.App.Name)
		case groovy.SlashAssign:
			return binaryOp(groovy.Slash, old, rhs, s.Pos, ev.App.Name)
		}
		return rhs, nil
	}

	switch lhs := s.LHS.(type) {
	case *groovy.Ident:
		if owner, ok := sc.lookup(lhs.Name); ok {
			nv, err := apply(owner.vars[lhs.Name])
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			owner.vars[lhs.Name] = nv
			return nv, ctlNormal, nil
		}
		// New script-scope variable (Groovy binding).
		nv, err := apply(ir.NullV())
		if err != nil {
			return ir.NullV(), ctlNormal, err
		}
		sc.vars[lhs.Name] = nv
		return nv, ctlNormal, nil

	case *groovy.PropertyExpr:
		// state.x = v
		if id, ok := lhs.Recv.(*groovy.Ident); ok {
			switch id.Name {
			case "state", "atomicState":
				nv, err := apply(ev.stateGet(lhs.Name))
				if err != nil {
					return ir.NullV(), ctlNormal, err
				}
				ev.stateSet(lhs.Name, nv)
				return nv, ctlNormal, nil
			case "location":
				if lhs.Name == "mode" {
					nv, err := apply(ir.StrV(ev.Host.LocationMode()))
					if err != nil {
						return ir.NullV(), ctlNormal, err
					}
					ev.Host.SetLocationMode(nv.String())
					return nv, ctlNormal, nil
				}
			}
		}
		return ir.NullV(), ctlNormal, &ExecError{App: ev.App.Name, Pos: lhs.Pos,
			Msg: fmt.Sprintf("cannot assign to property %q", lhs.Name)}

	case *groovy.IndexExpr:
		recv, err := ev.evalExpr(lhs.Recv, sc)
		if err != nil {
			return ir.NullV(), ctlNormal, err
		}
		idx, err := ev.evalExpr(lhs.Index, sc)
		if err != nil {
			return ir.NullV(), ctlNormal, err
		}
		switch recv.Kind {
		case ir.VList, ir.VDevices:
			i := int(idx.AsInt())
			if i < 0 || i >= len(recv.L()) {
				return ir.NullV(), ctlNormal, &ExecError{App: ev.App.Name, Pos: lhs.Pos,
					Msg: fmt.Sprintf("index %d out of range (len %d)", i, len(recv.L()))}
			}
			nv, err := apply(recv.L()[i])
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			recv.L()[i] = nv
			return nv, ctlNormal, nil
		case ir.VMap:
			key := idx.String()
			nv, err := apply(recv.M()[key])
			if err != nil {
				return ir.NullV(), ctlNormal, err
			}
			recv.M()[key] = nv
			return nv, ctlNormal, nil
		}
		return ir.NullV(), ctlNormal, &ExecError{App: ev.App.Name, Pos: lhs.Pos,
			Msg: "indexed assignment on non-collection"}
	}
	return ir.NullV(), ctlNormal, &ExecError{App: ev.App.Name, Pos: s.Pos, Msg: "invalid assignment target"}
}

// iterate returns the items of a collection value (or the value itself).
func iterate(v ir.Value) []ir.Value {
	switch v.Kind {
	case ir.VList, ir.VDevices:
		return v.L()
	case ir.VNull:
		return nil
	default:
		return []ir.Value{v}
	}
}

func parseNumeric(s string) (ir.Value, bool) {
	if i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64); err == nil {
		return ir.IntV(i), true
	}
	if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
		return ir.NumV(f), true
	}
	return ir.NullV(), false
}
