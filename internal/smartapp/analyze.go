package smartapp

import (
	"sort"
	"strings"

	"iotsan/internal/device"
	"iotsan/internal/groovy"
	"iotsan/internal/ir"
)

// EventSig identifies a class of events as attribute/value; an empty
// Value means "any" (rendered "..." in the paper's Table 2).
type EventSig struct {
	Attr  string
	Value string
}

func (e EventSig) String() string {
	v := e.Value
	if v == "" {
		v = `"..."`
	}
	return e.Attr + "/" + v
}

// Overlaps reports whether an output event signature can trigger an
// input event signature: the attributes match and either side is
// unconstrained or the values match.
func (e EventSig) Overlaps(in EventSig) bool {
	if e.Attr != in.Attr {
		return false
	}
	return e.Value == "" || in.Value == "" || e.Value == in.Value
}

// Conflicts reports whether two output signatures drive the same
// attribute to different values (§5: nodes 0 and 1 conflict on
// switch/off vs switch/on).
func (e EventSig) Conflicts(o EventSig) bool {
	return e.Attr == o.Attr && e.Value != "" && o.Value != "" && e.Value != o.Value
}

// HandlerInfo summarises one event handler for dependency analysis: the
// events that trigger or inform it and the events it can induce.
type HandlerInfo struct {
	App     *ir.App
	Handler string
	Inputs  []EventSig
	Outputs []EventSig
}

// AnalyzeHandlers enumerates input and output events for every event
// handler of the app (§5 "Extracting input/output events"):
//
//   - input events come from subscribe registrations, from APIs that read
//     device state, and from timer interrupts;
//   - output events come from APIs that change device state (actuator
//     commands, location-mode changes, synthetic sendEvent calls).
func AnalyzeHandlers(app *ir.App) []HandlerInfo {
	byHandler := map[string]*HandlerInfo{}
	get := func(name string) *HandlerInfo {
		hi := byHandler[name]
		if hi == nil {
			hi = &HandlerInfo{App: app, Handler: name}
			byHandler[name] = hi
		}
		return hi
	}

	for _, sub := range app.Subscriptions {
		hi := get(sub.Handler)
		sig := subscriptionSig(app, sub)
		hi.Inputs = appendSig(hi.Inputs, sig)
	}
	for _, sch := range app.Schedules {
		hi := get(sch.Handler)
		// Timer events are app-scoped: a timer fires a specific handler
		// of a specific app, so cross-app timer overlap is impossible.
		hi.Inputs = appendSig(hi.Inputs, timerSig(app, sch.Handler))
	}

	names := make([]string, 0, len(byHandler))
	for n := range byHandler {
		names = append(names, n)
	}
	sort.Strings(names)

	out := make([]HandlerInfo, 0, len(names))
	for _, n := range names {
		hi := byHandler[n]
		a := &bodyAnalysis{app: app, visited: map[string]bool{}}
		a.analyzeMethod(n, map[string]string{})
		for _, r := range a.reads {
			hi.Inputs = appendSig(hi.Inputs, r)
		}
		for _, w := range a.writes {
			hi.Outputs = appendSig(hi.Outputs, w)
		}
		for _, sch := range a.schedules {
			hi.Outputs = appendSig(hi.Outputs, timerSig(app, sch))
		}
		out = append(out, *hi)
	}
	return out
}

func subscriptionSig(app *ir.App, sub ir.Subscription) EventSig {
	switch sub.Source {
	case "location":
		switch sub.Attribute {
		case "sunrise", "sunset", "sunriseTime", "sunsetTime":
			return EventSig{Attr: "sun", Value: strings.TrimSuffix(sub.Attribute, "Time")}
		}
		return EventSig{Attr: "mode", Value: sub.Value}
	case "app":
		return EventSig{Attr: "app", Value: "touch"}
	}
	return EventSig{Attr: sub.Attribute, Value: sub.Value}
}

func timerSig(app *ir.App, handler string) EventSig {
	return EventSig{Attr: "time:" + app.Name + "/" + handler}
}

func appendSig(sigs []EventSig, s EventSig) []EventSig {
	for _, x := range sigs {
		if x == s {
			return sigs
		}
	}
	return append(sigs, s)
}

// bodyAnalysis walks a handler body (and the helpers it calls) to find
// device reads, device writes, and dynamic timer registrations.
type bodyAnalysis struct {
	app       *ir.App
	visited   map[string]bool
	reads     []EventSig
	writes    []EventSig
	schedules []string
}

func (a *bodyAnalysis) analyzeMethod(name string, aliases map[string]string) {
	if a.visited[name] {
		return
	}
	a.visited[name] = true
	m := a.app.Methods[name]
	if m == nil {
		return
	}
	a.analyzeBlock(m.Body, aliases)
}

func (a *bodyAnalysis) analyzeBlock(b *groovy.Block, aliases map[string]string) {
	if b == nil {
		return
	}
	for _, st := range b.Stmts {
		a.analyzeStmt(st, aliases)
	}
}

func (a *bodyAnalysis) analyzeStmt(st groovy.Stmt, aliases map[string]string) {
	switch s := st.(type) {
	case *groovy.VarDeclStmt:
		if s.Init != nil {
			a.analyzeExpr(s.Init, aliases)
			if in := a.inputOf(s.Init, aliases); in != "" {
				aliases[s.Name] = in
			}
		}
	case *groovy.AssignStmt:
		a.analyzeExpr(s.RHS, aliases)
		a.analyzeAssignTarget(s.LHS, s.RHS, aliases)
	case *groovy.ExprStmt:
		a.analyzeExpr(s.X, aliases)
	case *groovy.IfStmt:
		a.analyzeExpr(s.Cond, aliases)
		a.analyzeBlock(s.Then, aliases)
		if s.Else != nil {
			a.analyzeStmt(s.Else, aliases)
		}
	case *groovy.Block:
		a.analyzeBlock(s, aliases)
	case *groovy.WhileStmt:
		a.analyzeExpr(s.Cond, aliases)
		a.analyzeBlock(s.Body, aliases)
	case *groovy.ForInStmt:
		a.analyzeExpr(s.Iter, aliases)
		if in := a.inputOf(s.Iter, aliases); in != "" {
			aliases[s.Var] = in
		}
		a.analyzeBlock(s.Body, aliases)
	case *groovy.ForCStmt:
		if s.Init != nil {
			a.analyzeStmt(s.Init, aliases)
		}
		if s.Cond != nil {
			a.analyzeExpr(s.Cond, aliases)
		}
		if s.Post != nil {
			a.analyzeStmt(s.Post, aliases)
		}
		a.analyzeBlock(s.Body, aliases)
	case *groovy.ReturnStmt:
		if s.X != nil {
			a.analyzeExpr(s.X, aliases)
		}
	case *groovy.SwitchStmt:
		a.analyzeExpr(s.Subject, aliases)
		for _, c := range s.Cases {
			for _, b := range c.Body {
				a.analyzeStmt(b, aliases)
			}
		}
		for _, b := range s.Default {
			a.analyzeStmt(b, aliases)
		}
	case *groovy.TryStmt:
		a.analyzeBlock(s.Body, aliases)
		for _, c := range s.Catches {
			a.analyzeBlock(c.Body, aliases)
		}
		if s.Finally != nil {
			a.analyzeBlock(s.Finally, aliases)
		}
	}
}

// analyzeAssignTarget handles `location.mode = x` and `state.* = x`.
func (a *bodyAnalysis) analyzeAssignTarget(lhs groovy.Expr, rhs groovy.Expr, aliases map[string]string) {
	p, ok := lhs.(*groovy.PropertyExpr)
	if !ok {
		return
	}
	if r, ok := p.Recv.(*groovy.Ident); ok && r.Name == "location" && p.Name == "mode" {
		a.writes = append(a.writes, EventSig{Attr: "mode", Value: constString(rhs)})
	}
}

func (a *bodyAnalysis) analyzeExpr(e groovy.Expr, aliases map[string]string) {
	switch x := e.(type) {
	case nil:
		return
	case *groovy.PropertyExpr:
		a.analyzePropRead(x, aliases)
		a.analyzeExpr(x.Recv, aliases)
	case *groovy.CallExpr:
		a.analyzeCall(x, aliases)
	case *groovy.BinaryExpr:
		a.analyzeExpr(x.L, aliases)
		a.analyzeExpr(x.R, aliases)
	case *groovy.UnaryExpr:
		a.analyzeExpr(x.X, aliases)
	case *groovy.TernaryExpr:
		a.analyzeExpr(x.Cond, aliases)
		a.analyzeExpr(x.Then, aliases)
		a.analyzeExpr(x.Else, aliases)
	case *groovy.ElvisExpr:
		a.analyzeExpr(x.X, aliases)
		a.analyzeExpr(x.Y, aliases)
	case *groovy.ListLit:
		for _, el := range x.Elems {
			a.analyzeExpr(el, aliases)
		}
	case *groovy.MapLit:
		for _, en := range x.Entries {
			a.analyzeExpr(en.Value, aliases)
		}
	case *groovy.GStringLit:
		for _, ge := range x.Exprs {
			a.analyzeExpr(ge, aliases)
		}
	case *groovy.IndexExpr:
		a.analyzeExpr(x.Recv, aliases)
		a.analyzeExpr(x.Index, aliases)
	case *groovy.CastExpr:
		a.analyzeExpr(x.X, aliases)
	case *groovy.ClosureExpr:
		a.analyzeBlock(x.Body, aliases)
	}
}

// analyzePropRead records `dev.currentAttr` and `location.mode` reads.
func (a *bodyAnalysis) analyzePropRead(p *groovy.PropertyExpr, aliases map[string]string) {
	if r, ok := p.Recv.(*groovy.Ident); ok && r.Name == "location" {
		if p.Name == "mode" || p.Name == "currentMode" {
			a.reads = append(a.reads, EventSig{Attr: "mode"})
		}
		return
	}
	in := a.inputOf(p.Recv, aliases)
	if in == "" {
		return
	}
	if attr, ok := currentAttrName(p.Name); ok {
		if a.inputHasAttr(in, attr) {
			a.reads = append(a.reads, EventSig{Attr: attr})
		}
	}
}

// currentAttrName maps `currentSwitch` → "switch", `temperatureState` →
// "temperature".
func currentAttrName(prop string) (string, bool) {
	if strings.HasPrefix(prop, "current") && len(prop) > len("current") {
		rest := prop[len("current"):]
		return strings.ToLower(rest[:1]) + rest[1:], true
	}
	if strings.HasSuffix(prop, "State") && len(prop) > len("State") {
		return prop[:len(prop)-len("State")], true
	}
	return "", false
}

func (a *bodyAnalysis) analyzeCall(c *groovy.CallExpr, aliases map[string]string) {
	// Recurse into arguments first.
	for _, arg := range c.Args {
		a.analyzeExpr(arg, aliases)
	}
	for _, na := range c.NamedArgs {
		a.analyzeExpr(na.Value, aliases)
	}

	// Timer registrations induce app-scoped timer output events.
	switch c.Name {
	case "runIn", "schedule":
		if h := handlerArg(c, 1); h != "" {
			a.schedules = append(a.schedules, h)
		}
		return
	case "runEvery1Minute", "runEvery5Minutes", "runEvery10Minutes",
		"runEvery15Minutes", "runEvery30Minutes", "runEvery1Hour", "runEvery3Hours":
		if h := handlerArg(c, 0); h != "" {
			a.schedules = append(a.schedules, h)
		}
		return
	case "setLocationMode":
		a.writes = append(a.writes, EventSig{Attr: "mode", Value: constStringArg(c, 0)})
		return
	case "sendEvent":
		// Synthetic events: sendEvent(name: "smoke", value: "detected").
		var name, value string
		for _, na := range c.NamedArgs {
			if s, ok := na.Value.(*groovy.StrLit); ok {
				switch na.Key {
				case "name":
					name = s.V
				case "value":
					value = s.V
				}
			}
		}
		if name != "" {
			a.writes = append(a.writes, EventSig{Attr: name, Value: value})
		}
		return
	case "currentValue", "latestValue", "currentState", "latestState":
		if in := a.inputOf(c.Recv, aliases); in != "" {
			if attr := constStringArg(c, 0); attr != "" && a.inputHasAttr(in, attr) {
				a.reads = append(a.reads, EventSig{Attr: attr})
			}
		}
		return
	case "setMode":
		if r, ok := c.Recv.(*groovy.Ident); ok && r.Name == "location" {
			a.writes = append(a.writes, EventSig{Attr: "mode", Value: constStringArg(c, 0)})
			return
		}
	}

	// Device commands: recv resolves to a device input and the command
	// exists on that input's capability.
	if c.Recv != nil {
		if in := a.inputOf(c.Recv, aliases); in != "" {
			if sig, ok := a.commandSig(in, c.Name); ok {
				a.writes = append(a.writes, sig)
			}
		}
		a.analyzeExpr(c.Recv, aliases)
	} else if m := a.app.Methods[c.Name]; m != nil {
		// Helper method call: analyze transitively, binding device
		// arguments to parameters.
		sub := map[string]string{}
		for i, p := range m.Params {
			if i < len(c.Args) {
				if in := a.inputOf(c.Args[i], aliases); in != "" {
					sub[p.Name] = in
				}
			}
		}
		a.analyzeMethod(c.Name, sub)
	}
	if c.Closure != nil {
		cl := aliases
		// Bind closure parameter (or implicit `it`) to the receiver when
		// iterating a device collection: switches.each { it.on() }.
		if in := a.inputOf(c.Recv, aliases); in != "" {
			cl = copyAliases(aliases)
			if c.Closure.Implicit {
				cl["it"] = in
			} else if len(c.Closure.Params) > 0 {
				cl[c.Closure.Params[0].Name] = in
			}
		}
		a.analyzeBlock(c.Closure.Body, cl)
	}
}

func copyAliases(in map[string]string) map[string]string {
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// inputOf resolves an expression to a device-input name when possible:
// a direct input reference, an alias, an index into an input collection,
// or evt.device (resolved to any subscribed device input).
func (a *bodyAnalysis) inputOf(e groovy.Expr, aliases map[string]string) string {
	switch x := e.(type) {
	case *groovy.Ident:
		if in := a.app.Input(x.Name); in != nil && in.Kind == ir.InputDevice {
			return x.Name
		}
		if al, ok := aliases[x.Name]; ok {
			return al
		}
	case *groovy.IndexExpr:
		return a.inputOf(x.Recv, aliases)
	case *groovy.PropertyExpr:
		if r, ok := x.Recv.(*groovy.Ident); ok && r.Name == "evt" && x.Name == "device" {
			for _, sub := range a.app.Subscriptions {
				if a.app.Input(sub.Source) != nil {
					return sub.Source
				}
			}
		}
		// settings.inputName
		if r, ok := x.Recv.(*groovy.Ident); ok && r.Name == "settings" {
			if in := a.app.Input(x.Name); in != nil && in.Kind == ir.InputDevice {
				return x.Name
			}
		}
	case *groovy.CallExpr:
		if x.Name == "first" || x.Name == "find" || x.Name == "findAll" || x.Name == "collect" {
			return a.inputOf(x.Recv, aliases)
		}
	case *groovy.TernaryExpr:
		if in := a.inputOf(x.Then, aliases); in != "" {
			return in
		}
		return a.inputOf(x.Else, aliases)
	case *groovy.ElvisExpr:
		if in := a.inputOf(x.X, aliases); in != "" {
			return in
		}
		return a.inputOf(x.Y, aliases)
	}
	return ""
}

// commandSig maps a command invocation on a device input to the output
// event it induces.
func (a *bodyAnalysis) commandSig(inputName, command string) (EventSig, bool) {
	in := a.app.Input(inputName)
	if in == nil || in.Kind != ir.InputDevice {
		return EventSig{}, false
	}
	cap := device.CapabilityByName(in.Capability)
	if cap == nil {
		return EventSig{}, false
	}
	if cmd := cap.Command(command); cmd != nil {
		return EventSig{Attr: cmd.Attribute, Value: cmd.Value}, true
	}
	// Commands from sibling capabilities of the device the input is
	// likely bound to (e.g. a capability.switch input controlling a
	// dimmer's setLevel): search the full registry.
	for _, cn := range device.Capabilities() {
		if cmd := device.CapabilityByName(cn).Command(command); cmd != nil {
			return EventSig{Attr: cmd.Attribute, Value: cmd.Value}, true
		}
	}
	return EventSig{}, false
}

// inputHasAttr reports whether reading attr from the input's capability
// is meaningful (the capability or a sibling on the same device exposes
// it). Attribute reads outside the capability still count: the paper's
// Table 2 lists illuminance reads as inputs for Brighten Dark Places.
func (a *bodyAnalysis) inputHasAttr(inputName, attr string) bool {
	in := a.app.Input(inputName)
	if in == nil || in.Kind != ir.InputDevice {
		return false
	}
	return device.IsAttribute(attr)
}

func handlerArg(c *groovy.CallExpr, i int) string {
	if i >= len(c.Args) {
		return ""
	}
	return exprHandlerName(c.Args[i])
}

func constString(e groovy.Expr) string {
	if s, ok := e.(*groovy.StrLit); ok {
		return s.V
	}
	return ""
}

func constStringArg(c *groovy.CallExpr, i int) string {
	if i >= len(c.Args) {
		return ""
	}
	return constString(c.Args[i])
}
