package eval

import (
	"fmt"

	"iotsan/internal/groovy"
	"iotsan/internal/ir"
)

// This file holds the runtime of closure-compiled programs: the Env a
// program executes against, its slot stack, and the call entry points
// mirroring the tree-walking Evaluator's CallHandler/CallMethodByName.
//
// A compiled program is a tree of Go closures (stmtFn/exprFn/closFn)
// built once per (app, bindings) pair at model-generation time. All
// per-execution state lives in the Env, so one immutable CompiledApp is
// shared by every checker goroutine while each executor owns its Env.

// stmtFn executes one compiled statement.
type stmtFn func(*Env) (ir.Value, control, error)

// exprFn evaluates one compiled expression.
type exprFn func(*Env) (ir.Value, error)

// closFn invokes one compiled closure with arguments.
type closFn func(*Env, []ir.Value) (ir.Value, error)

// cparam is one compiled method parameter: its frame slot and the
// compiled default expression (nil when none).
type cparam struct {
	slot int
	def  exprFn
}

// Program is one closure-compiled method. Variable references are
// resolved to integer frame slots at compile time; execution walks Go
// closures instead of the Groovy AST.
type Program struct {
	decl   *groovy.MethodDecl
	name   string
	nslots int
	params []cparam
	body   stmtFn
	// evtDirect marks handlers whose event parameter provably never
	// escapes property reads: the event object is then served from the
	// Env without materializing its map (allocation-free dispatch).
	evtDirect bool
}

// CompiledApp is the compiled form of one installed app instance: every
// method lowered to a Program against a fixed bindings table and state
// layout. Immutable once Compile returns.
type CompiledApp struct {
	App      *ir.App
	Bindings map[string]ir.Value
	// StateIdx maps statically known state keys to slots (nil = the app
	// keeps the KV map representation).
	StateIdx map[string]int
	Methods  map[string]*Program
	// Effects holds the per-method read/write footprints extracted at
	// compile time (see AppEffects); the model's partial-order reducer
	// derives its handler-independence relation from them.
	Effects map[string]*Effects
	// Err is the first compilation failure; when non-nil the app must
	// run under the tree-walking interpreter instead.
	Err error
}

// Env is the mutable execution environment of compiled programs. It is
// reusable: Reset rebinds it to a host and app, and the slot/arg stacks
// retain their capacity across executions (executors pool Envs for
// allocation-free dispatch).
type Env struct {
	Host Host
	lim  stepLimits

	capp *CompiledApp

	stack     []ir.Value // slot frames, [base:top) is the current frame
	base, top int
	args      []ir.Value // argument scratch stack
	// event is the current handler's event, which evtDirect programs
	// read in place: CallHandler's argument, so the caller must leave it
	// alone until CallHandler returns. Only valid while an evtDirect
	// handler runs.
	event *Event

	steps, depth       int
	maxSteps, maxDepth int
}

// Reset rebinds the env to a host and compiled app, clearing execution
// state but keeping stack capacity.
func (e *Env) Reset(host Host, capp *CompiledApp) {
	e.Host = host
	e.capp = capp
	e.base, e.top = 0, 0
	e.args = e.args[:0]
	e.steps, e.depth = 0, 0
	l := e.lim.withDefaults()
	e.maxSteps, e.maxDepth = l.maxSteps, l.maxDepth
}

// rt implementation: shared builtins run identically against compiled
// and interpreted execution.
func (e *Env) rtHost() Host      { return e.Host }
func (e *Env) rtAppName() string { return e.capp.App.Name }
func (e *Env) rtCall(cl any, args []ir.Value) (ir.Value, error) {
	return cl.(closFn)(e, args)
}

func (e *Env) step(pos groovy.Pos) error {
	e.steps++
	if e.steps > e.maxSteps {
		return &ExecError{App: e.capp.App.Name, Pos: pos, Msg: "step budget exhausted (possible livelock)"}
	}
	return nil
}

// pushFrame opens a fresh zeroed frame of n slots, returning the state
// popFrame needs to restore.
func (e *Env) pushFrame(n int) (savedBase, savedTop int) {
	savedBase, savedTop = e.base, e.top
	need := e.top + n
	if need > len(e.stack) {
		ns := make([]ir.Value, need+need/2+16)
		copy(ns, e.stack[:e.top])
		e.stack = ns
	}
	fr := e.stack[e.top:need]
	for i := range fr {
		fr[i] = ir.Value{}
	}
	e.base, e.top = e.top, need
	return savedBase, savedTop
}

func (e *Env) popFrame(savedBase, savedTop int) {
	e.base, e.top = savedBase, savedTop
}

// clearSlots nulls the frame slots in [lo, hi): loop bodies and closure
// invocations reset the variables they declare, mirroring the
// interpreter's fresh per-iteration scopes.
func (e *Env) clearSlots(lo, hi int) {
	fr := e.stack[e.base+lo : e.base+hi]
	for i := range fr {
		fr[i] = ir.Value{}
	}
}

func (e *Env) getSlot(i int) ir.Value    { return e.stack[e.base+i] }
func (e *Env) setSlot(i int, v ir.Value) { e.stack[e.base+i] = v }

// pushArgs reserves space on the arg stack; the caller fills the
// returned mark via appendArg and releases with popArgs.
func (e *Env) argMark() int         { return len(e.args) }
func (e *Env) appendArg(v ir.Value) { e.args = append(e.args, v) }
func (e *Env) argsFrom(mark int) []ir.Value {
	return e.args[mark:len(e.args):len(e.args)]
}
func (e *Env) popArgs(mark int) { e.args = e.args[:mark] }

// CallHandler invokes a compiled handler method with an event argument,
// mirroring Evaluator.CallHandler.
func (e *Env) CallHandler(name string, evt *Event) error {
	return e.CallProgram(e.capp.Methods[name], name, evt)
}

// CallProgram is CallHandler for a caller that resolved p, the app's
// Methods[name], ahead of time (nil: the app has no such method).
func (e *Env) CallProgram(p *Program, name string, evt *Event) error {
	if p == nil {
		return &ExecError{App: e.capp.App.Name, Msg: fmt.Sprintf("no such handler %q", name)}
	}
	e.steps = 0
	e.depth = 0
	if len(p.decl.Params) > 0 {
		if p.evtDirect {
			e.event = evt
			_, err := e.call(p, nil)
			return err
		}
		mark := e.argMark()
		e.appendArg(eventValueOf(e.Host, evt))
		_, err := e.call(p, e.argsFrom(mark))
		e.popArgs(mark)
		return err
	}
	_, err := e.call(p, nil)
	return err
}

// CallMethodByName invokes any compiled method with explicit arguments
// (timers), mirroring Evaluator.CallMethodByName.
func (e *Env) CallMethodByName(name string, args []ir.Value) (ir.Value, error) {
	p := e.capp.Methods[name]
	if p == nil {
		return ir.NullV(), &ExecError{App: e.capp.App.Name, Msg: fmt.Sprintf("no such method %q", name)}
	}
	e.steps = 0
	e.depth = 0
	return e.call(p, args)
}

// call runs a program in a fresh frame, mirroring Evaluator.callMethod.
func (e *Env) call(p *Program, args []ir.Value) (ir.Value, error) {
	e.depth++
	defer func() { e.depth-- }()
	if e.depth > e.maxDepth {
		return ir.NullV(), &ExecError{App: e.capp.App.Name, Pos: p.decl.Pos, Msg: "call depth exceeded"}
	}
	sb, st := e.pushFrame(p.nslots)
	defer e.popFrame(sb, st)
	for i, prm := range p.params {
		if i < len(args) {
			e.setSlot(prm.slot, args[i])
		} else if prm.def != nil {
			v, err := prm.def(e)
			if err != nil {
				return ir.NullV(), err
			}
			e.setSlot(prm.slot, v)
		}
		// else: stays null (frame is zeroed), matching the interpreter.
	}
	v, _, err := p.body(e)
	if err != nil {
		return ir.NullV(), err
	}
	return v, nil
}
