// Package smartapp translates parsed SmartThings Groovy scripts into the
// ir.App intermediate representation: it interprets the SmartThings
// language extensions (definition, preferences/input, subscribe, schedule
// — §6 "Handling SmartThings' language features"), and performs the
// static analysis that enumerates each event handler's input and output
// events (§5 "Extracting input/output events").
package smartapp

import (
	"fmt"
	"strings"

	"iotsan/internal/device"
	"iotsan/internal/groovy"
	"iotsan/internal/ir"
)

// A TranslateError reports a translation problem.
type TranslateError struct {
	App string
	Msg string
}

func (e *TranslateError) Error() string {
	return fmt.Sprintf("smartapp %q: %s", e.App, e.Msg)
}

// Translate parses and translates a smart app's Groovy source into an
// ir.App.
func Translate(src string) (*ir.App, error) {
	script, err := groovy.ParseScript(src)
	if err != nil {
		return nil, err
	}
	app := &ir.App{
		Methods: script.Methods(),
		Fields:  script.Fields(),
		Source:  src,
	}
	for _, call := range script.TopLevelCalls() {
		switch call.Name {
		case "definition":
			extractDefinition(app, call)
		case "preferences":
			if err := extractPreferences(app, call); err != nil {
				return nil, err
			}
		case "mappings", "include":
			// Web-endpoint mappings are outside the model's scope.
		}
	}
	if app.Name == "" {
		return nil, &TranslateError{App: "?", Msg: "missing definition(name: ...)"}
	}
	extractWiring(app)
	return app, nil
}

func extractDefinition(app *ir.App, call *groovy.CallExpr) {
	for _, na := range call.NamedArgs {
		v, ok := na.Value.(*groovy.StrLit)
		if !ok {
			continue
		}
		switch na.Key {
		case "name":
			app.Name = v.V
		case "namespace":
			app.Namespace = v.V
		case "description":
			app.Description = v.V
		case "category":
			app.Category = v.V
		}
	}
}

// extractPreferences walks the preferences block — sections, dynamic
// pages, and bare input calls — collecting the app's inputs. Each input
// defines a script-global variable (§6).
func extractPreferences(app *ir.App, call *groovy.CallExpr) error {
	if call.Closure == nil {
		return nil
	}
	return walkPrefBlock(app, call.Closure.Body)
}

func walkPrefBlock(app *ir.App, b *groovy.Block) error {
	for _, st := range b.Stmts {
		es, ok := st.(*groovy.ExprStmt)
		if !ok {
			continue
		}
		c, ok := es.X.(*groovy.CallExpr)
		if !ok {
			continue
		}
		switch c.Name {
		case "section", "page", "dynamicPage":
			if c.Closure != nil {
				if err := walkPrefBlock(app, c.Closure.Body); err != nil {
					return err
				}
			}
		case "input":
			in, err := parseInput(app, c)
			if err != nil {
				return err
			}
			if in != nil {
				app.Inputs = append(app.Inputs, *in)
			}
		case "paragraph", "label", "mode", "href", "icon":
			// Informational elements with no model-relevant binding.
		}
	}
	return nil
}

func parseInput(app *ir.App, c *groovy.CallExpr) (*ir.Input, error) {
	var name, typ string
	if len(c.Args) >= 1 {
		if s, ok := c.Args[0].(*groovy.StrLit); ok {
			name = s.V
		}
	}
	if len(c.Args) >= 2 {
		if s, ok := c.Args[1].(*groovy.StrLit); ok {
			typ = s.V
		}
	}
	// Named-argument form: input name: "x", type: "capability.switch".
	for _, na := range c.NamedArgs {
		if s, ok := na.Value.(*groovy.StrLit); ok {
			switch na.Key {
			case "name":
				name = s.V
			case "type":
				typ = s.V
			}
		}
	}
	if name == "" || typ == "" {
		return nil, nil // decorative input; nothing to bind
	}

	in := &ir.Input{Name: name, Required: true}
	switch {
	case strings.HasPrefix(typ, "capability."):
		in.Kind = ir.InputDevice
		in.Capability = strings.TrimPrefix(typ, "capability.")
		if device.CapabilityByName(in.Capability) == nil {
			return nil, &TranslateError{App: app.Name,
				Msg: fmt.Sprintf("input %q: unsupported capability %q", name, in.Capability)}
		}
	case strings.HasPrefix(typ, "device."):
		in.Kind = ir.InputDevice
		in.Capability = "switch" // specific device handler: model by its main capability
	case typ == "number", typ == "decimal":
		in.Kind = ir.InputNumber
	case typ == "enum":
		in.Kind = ir.InputEnum
	case typ == "text", typ == "string", typ == "password", typ == "email":
		in.Kind = ir.InputText
	case typ == "bool", typ == "boolean":
		in.Kind = ir.InputBool
	case typ == "time":
		in.Kind = ir.InputTime
	case typ == "phone":
		in.Kind = ir.InputPhone
	case typ == "contact":
		in.Kind = ir.InputContact
	case typ == "mode":
		in.Kind = ir.InputMode
	case typ == "hub", typ == "icon":
		in.Kind = ir.InputIcon
	default:
		return nil, &TranslateError{App: app.Name,
			Msg: fmt.Sprintf("input %q: unknown input type %q", name, typ)}
	}

	for _, na := range c.NamedArgs {
		switch na.Key {
		case "title":
			if s, ok := na.Value.(*groovy.StrLit); ok {
				in.Title = s.V
			}
		case "multiple":
			if b, ok := na.Value.(*groovy.BoolLit); ok {
				in.Multiple = b.V
			}
		case "required":
			if b, ok := na.Value.(*groovy.BoolLit); ok {
				in.Required = b.V
			}
		case "options":
			if l, ok := na.Value.(*groovy.ListLit); ok {
				for _, el := range l.Elems {
					if s, ok := el.(*groovy.StrLit); ok {
						in.Options = append(in.Options, s.V)
					}
				}
			}
		case "defaultValue":
			in.Default = constValue(na.Value)
		}
	}
	return in, nil
}

func constValue(e groovy.Expr) ir.Value {
	switch v := e.(type) {
	case *groovy.IntLit:
		return ir.IntV(v.V)
	case *groovy.NumLit:
		return ir.NumV(v.V)
	case *groovy.StrLit:
		return ir.StrV(v.V)
	case *groovy.BoolLit:
		return ir.BoolV(v.V)
	}
	return ir.NullV()
}

// extractWiring statically collects subscriptions and schedules: the
// registration calls reachable from installed() and updated() through
// direct method calls (the paper's static enumeration, §5).
func extractWiring(app *ir.App) {
	seen := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		m := app.Methods[name]
		if m == nil {
			return
		}
		groovy.Walk(m.Body, func(n groovy.Node) bool {
			c, ok := n.(*groovy.CallExpr)
			if !ok {
				return true
			}
			switch c.Name {
			case "subscribe":
				if sub := parseSubscribe(app, c); sub != nil {
					app.Subscriptions = appendUniqueSub(app.Subscriptions, *sub)
				}
			case "schedule":
				if h := handlerArg(c, 1); h != "" {
					app.Schedules = appendUniqueSched(app.Schedules,
						ir.Schedule{Kind: ir.ScheduleCron, Seconds: 3600, Handler: h})
				}
			case "runIn":
				if h := handlerArg(c, 1); h != "" {
					sec := int64(60)
					if iv, ok := c.Args[0].(*groovy.IntLit); ok {
						sec = iv.V
					}
					app.Schedules = appendUniqueSched(app.Schedules,
						ir.Schedule{Kind: ir.ScheduleRunIn, Seconds: sec, Handler: h})
				}
			case "runEvery1Minute", "runEvery5Minutes", "runEvery10Minutes",
				"runEvery15Minutes", "runEvery30Minutes", "runEvery1Hour", "runEvery3Hours":
				if h := handlerArg(c, 0); h != "" {
					app.Schedules = appendUniqueSched(app.Schedules,
						ir.Schedule{Kind: ir.ScheduleCron, Seconds: 300, Handler: h})
				}
			default:
				// Follow direct helper calls: initialize(), etc.
				if c.Recv == nil {
					if _, isMethod := app.Methods[c.Name]; isMethod {
						visit(c.Name)
					}
				}
			}
			return true
		})
	}
	visit("installed")
	visit("updated")
}

func appendUniqueSub(subs []ir.Subscription, s ir.Subscription) []ir.Subscription {
	for _, x := range subs {
		if x == s {
			return subs
		}
	}
	return append(subs, s)
}

func appendUniqueSched(ss []ir.Schedule, s ir.Schedule) []ir.Schedule {
	for _, x := range ss {
		if x == s {
			return ss
		}
	}
	return append(ss, s)
}

// parseSubscribe interprets the subscribe(...) overloads:
//
//	subscribe(devInput, "attr", handler)
//	subscribe(devInput, "attr.value", handler)
//	subscribe(location, "mode", handler) / subscribe(location, handler)
//	subscribe(location, "sunrise"/"sunset", handler)
//	subscribe(app, handler) / subscribe(app, "appTouch", handler)
func parseSubscribe(app *ir.App, c *groovy.CallExpr) *ir.Subscription {
	if len(c.Args) < 2 {
		return nil
	}
	src, ok := c.Args[0].(*groovy.Ident)
	if !ok {
		return nil
	}
	sub := &ir.Subscription{Source: src.Name}

	if len(c.Args) == 2 {
		// subscribe(location, handler) / subscribe(app, handler)
		sub.Handler = exprHandlerName(c.Args[1])
		if sub.Source == "location" {
			sub.Attribute = "mode"
		} else if sub.Source == "app" {
			sub.Attribute = "touch"
		}
		if sub.Handler == "" {
			return nil
		}
		return sub
	}

	spec, ok := c.Args[1].(*groovy.StrLit)
	if !ok {
		return nil
	}
	sub.Handler = exprHandlerName(c.Args[2])
	if sub.Handler == "" {
		return nil
	}
	if i := strings.IndexByte(spec.V, '.'); i >= 0 {
		sub.Attribute, sub.Value = spec.V[:i], spec.V[i+1:]
	} else {
		sub.Attribute = spec.V
	}
	switch sub.Source {
	case "location":
		switch sub.Attribute {
		case "sunrise", "sunset", "sunriseTime", "sunsetTime":
			// environment event, modeled as a sensed input (§8)
		case "mode", "position":
			sub.Attribute = "mode"
		}
	case "app":
		sub.Attribute = "touch"
	}
	return sub
}

// exprHandlerName accepts both handler references (bare identifier) and
// handler-name strings.
func exprHandlerName(e groovy.Expr) string {
	switch h := e.(type) {
	case *groovy.Ident:
		return h.Name
	case *groovy.StrLit:
		return h.V
	}
	return ""
}
