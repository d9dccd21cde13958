package eval

import (
	"fmt"
	"math"
	"strings"

	"iotsan/internal/groovy"
	"iotsan/internal/ir"
)

// rt is the runtime context the shared builtin implementations execute
// against. Two implementations exist: the tree-walking Evaluator (the
// differential-testing oracle) and the compiled Env (the hot path).
// Keeping every SmartThings builtin — collection utilities, string
// methods, device calls, platform APIs — behind this interface is what
// guarantees the two execution modes are observationally identical: they
// run the same code for everything except variable access and control
// flow.
type rt interface {
	rtHost() Host
	rtAppName() string
	// rtCall invokes a closure handle with arguments. Handles are
	// mode-specific: the interpreter passes scoped AST closures, the
	// compiler passes compiled closure functions.
	rtCall(cl any, args []ir.Value) (ir.Value, error)
}

// closTruthy applies a predicate closure to an item; a nil closure is an
// identity-truthiness test.
func closTruthy(r rt, cl any, item ir.Value) (bool, error) {
	if cl == nil {
		return item.Truthy(), nil
	}
	v, err := r.rtCall(cl, []ir.Value{item})
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

func argStr(args []ir.Value, i int) string {
	if i >= len(args) {
		return ""
	}
	return args[i].String()
}

// handlerName resolves the handler argument of runIn/schedule: the
// runtime string when it is one, otherwise the syntactic identifier.
func handlerName(v ir.Value, x *groovy.CallExpr, argIdx int) string {
	if v.Kind == ir.VStr && v.S != "" && !strings.HasPrefix(v.S, "<") {
		return v.S
	}
	// A bare identifier evaluated to null/placeholder: recover the name
	// syntactically.
	if argIdx < len(x.Args) {
		if id, ok := x.Args[argIdx].(*groovy.Ident); ok {
			return id.Name
		}
	}
	return v.String()
}

// bareBuiltinNames is the authoritative membership set for bareBuiltin:
// the compiler resolves bare calls against it at compile time, and
// bareBuiltin gates on it at run time, so the two can never disagree.
var bareBuiltinNames = map[string]bool{
	"subscribe": true, "unsubscribe": true, "unschedule": true,
	"sendSms": true, "sendSmsMessage": true,
	"sendPush": true, "sendPushMessage": true, "sendNotification": true,
	"sendNotificationToContacts": true, "sendNotificationEvent": true,
	"httpPost": true, "httpPostJson": true, "httpGet": true, "httpPut": true, "httpDelete": true,
	"sendEvent": true, "setLocationMode": true,
	"runIn": true, "schedule": true, "runOnce": true,
	"runEvery1Minute": true, "runEvery5Minutes": true, "runEvery10Minutes": true,
	"runEvery15Minutes": true, "runEvery30Minutes": true, "runEvery1Hour": true, "runEvery3Hours": true,
	"now": true, "canSchedule": true, "timeOfDayIsBetween": true,
	"getSunriseAndSunset": true, "timeToday": true, "timeTodayAfter": true, "toDateTime": true,
	"parseJson": true, "parseLanMessage": true, "pause": true,
	"getAllChildDevices": true, "getChildDevices": true,
}

// isBareBuiltin reports whether a receiverless call name is a platform
// builtin (handled before user methods, like the interpreter).
func isBareBuiltin(name string) bool { return bareBuiltinNames[name] }

// bareBuiltin dispatches the receiverless platform APIs. It reports
// whether the name was handled; unhandled names fall through to user
// methods.
func bareBuiltin(r rt, x *groovy.CallExpr, args []ir.Value, named map[string]ir.Value) (ir.Value, bool) {
	if !bareBuiltinNames[x.Name] {
		return ir.NullV(), false
	}
	host := r.rtHost()
	switch x.Name {
	case "subscribe":
		// Runtime re-subscription: wiring is static; nothing to do.
		return ir.NullV(), true
	case "unsubscribe":
		host.Unsubscribe()
		return ir.NullV(), true
	case "unschedule":
		host.Unschedule()
		return ir.NullV(), true
	case "sendSms", "sendSmsMessage":
		host.SendSMS(argStr(args, 0))
		return ir.NullV(), true
	case "sendPush", "sendPushMessage", "sendNotification":
		host.SendPush()
		return ir.NullV(), true
	case "sendNotificationToContacts":
		host.SendNotificationToContacts()
		return ir.NullV(), true
	case "sendNotificationEvent":
		host.Log("notification")
		return ir.NullV(), true
	case "httpPost", "httpPostJson", "httpGet", "httpPut", "httpDelete":
		method := strings.ToUpper(strings.TrimPrefix(x.Name, "http"))
		url := argStr(args, 0)
		if url == "" {
			if u, ok := named["uri"]; ok {
				url = u.String()
			}
		}
		host.HTTPRequest(method, url)
		return ir.NullV(), true
	case "sendEvent":
		name, value := "", ""
		if v, ok := named["name"]; ok {
			name = v.String()
		}
		if v, ok := named["value"]; ok {
			value = v.String()
		}
		host.SendEvent(name, value)
		return ir.NullV(), true
	case "setLocationMode":
		host.SetLocationMode(argStr(args, 0))
		return ir.NullV(), true
	case "runIn":
		if len(args) >= 2 {
			host.Schedule(handlerName(args[1], x, 1), args[0].AsInt())
		}
		return ir.NullV(), true
	case "schedule":
		if len(args) >= 2 {
			host.Schedule(handlerName(args[1], x, 1), 3600)
		}
		return ir.NullV(), true
	case "runEvery1Minute", "runEvery5Minutes", "runEvery10Minutes",
		"runEvery15Minutes", "runEvery30Minutes", "runEvery1Hour", "runEvery3Hours":
		if len(args) >= 1 {
			host.Schedule(handlerName(args[0], x, 0), 300)
		}
		return ir.NullV(), true
	case "runOnce":
		if len(args) >= 2 {
			host.Schedule(handlerName(args[1], x, 1), 60)
		}
		return ir.NullV(), true
	case "now":
		return ir.IntV(host.Now()), true
	case "canSchedule":
		return ir.BoolV(true), true
	case "timeOfDayIsBetween":
		// Modeled coarsely: true — time windows are explored through
		// event permutations, not wall-clock arithmetic.
		return ir.BoolV(true), true
	case "getSunriseAndSunset":
		return ir.MapV(map[string]ir.Value{
			"sunrise": ir.IntV(6 * 3600),
			"sunset":  ir.IntV(18 * 3600),
		}), true
	case "timeToday", "timeTodayAfter", "toDateTime":
		if len(args) > 0 {
			return args[0], true
		}
		return ir.IntV(host.Now()), true
	case "parseJson", "parseLanMessage":
		return ir.MapV(map[string]ir.Value{}), true
	case "pause":
		return ir.NullV(), true
	case "getAllChildDevices", "getChildDevices":
		return ir.ListV(nil), true
	}
	return ir.NullV(), false
}

// mathMethod evaluates Math.<name> over float arguments.
func mathMethod(appName, name string, args []float64, pos groovy.Pos) (ir.Value, error) {
	f := func(i int) float64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	switch name {
	case "max":
		return ir.NumV(math.Max(f(0), f(1))), nil
	case "min":
		return ir.NumV(math.Min(f(0), f(1))), nil
	case "abs":
		return ir.NumV(math.Abs(f(0))), nil
	case "round":
		return ir.IntV(int64(math.Round(f(0)))), nil
	case "floor":
		return ir.NumV(math.Floor(f(0))), nil
	case "ceil":
		return ir.NumV(math.Ceil(f(0))), nil
	case "sqrt":
		return ir.NumV(math.Sqrt(f(0))), nil
	case "pow":
		return ir.NumV(math.Pow(f(0), f(1))), nil
	case "random":
		// Deterministic for model checking: the midpoint.
		return ir.NumV(0.5), nil
	}
	return ir.NullV(), &ExecError{App: appName, Pos: pos,
		Msg: fmt.Sprintf("unsupported Math.%s", name)}
}

// methodOnValue dispatches a method call on a concrete receiver value:
// device commands, collection utilities, string methods. It reports
// handled=false for receiver kinds whose dispatch falls through to the
// caller's location-object check (mirroring the interpreter's switch).
func methodOnValue(r rt, recv ir.Value, x *groovy.CallExpr, args []ir.Value, cl any) (ir.Value, bool, error) {
	switch recv.Kind {
	case ir.VDevice:
		v, err := deviceMethod(r.rtHost(), recv.Dev(), x, args)
		return v, true, err
	case ir.VDevices:
		// Command on a multiple:true input fans out to every device.
		for _, d := range recv.L() {
			if _, err := deviceMethod(r.rtHost(), d.Dev(), x, args); err != nil {
				return ir.NullV(), true, err
			}
		}
		return ir.NullV(), true, nil
	case ir.VList:
		v, err := listMethod(r, recv, x, args, cl)
		return v, true, err
	case ir.VMap:
		v, err := mapMethod(r, recv, x, args, cl)
		return v, true, err
	case ir.VStr:
		v, err := stringMethod(r.rtAppName(), recv, x, args)
		return v, true, err
	case ir.VInt, ir.VNum:
		switch x.Name {
		case "toInteger", "intValue", "longValue", "round":
			return ir.IntV(recv.AsInt()), true, nil
		case "toFloat", "toDouble", "toBigDecimal", "floatValue", "doubleValue":
			return ir.NumV(recv.AsFloat()), true, nil
		case "toString":
			return ir.StrV(recv.String()), true, nil
		case "intdiv":
			if len(args) > 0 && args[0].AsInt() != 0 {
				return ir.IntV(recv.AsInt() / args[0].AsInt()), true, nil
			}
			return ir.IntV(0), true, nil
		case "abs":
			if recv.Kind == ir.VNum {
				return ir.NumV(math.Abs(recv.F())), true, nil
			}
			if recv.I() < 0 {
				return ir.IntV(-recv.I()), true, nil
			}
			return recv, true, nil
		case "times":
			if cl != nil {
				for i := int64(0); i < recv.AsInt(); i++ {
					if _, err := r.rtCall(cl, []ir.Value{ir.IntV(i)}); err != nil {
						return ir.NullV(), true, err
					}
				}
			}
			return ir.NullV(), true, nil
		}
	}
	return ir.NullV(), false, nil
}

// deviceMethod delivers a command or a read API to one device.
func deviceMethod(host Host, dev int, x *groovy.CallExpr, args []ir.Value) (ir.Value, error) {
	switch x.Name {
	case "currentValue", "latestValue":
		if v, ok := host.DeviceAttr(dev, argStr(args, 0)); ok {
			return v, nil
		}
		return ir.NullV(), nil
	case "currentState", "latestState":
		if v, ok := host.DeviceAttr(dev, argStr(args, 0)); ok {
			return ir.MapV(map[string]ir.Value{
				"value": toStringValue(v),
				"name":  ir.StrV(argStr(args, 0)),
				"date":  ir.IntV(host.Now()),
			}), nil
		}
		return ir.NullV(), nil
	case "hasCapability", "hasCommand", "hasAttribute":
		return ir.BoolV(true), nil
	case "getDisplayName", "getLabel", "getName", "toString":
		return ir.StrV(host.DeviceLabel(dev)), nil
	case "events", "eventsSince", "statesSince":
		return ir.ListV(nil), nil
	case "supportedAttributes":
		return ir.ListV(nil), nil
	}
	// Anything else is an actuator command (on, off, lock, unlock,
	// setLevel, siren, ...); the host validates it against the model.
	host.DeviceCommand(dev, x.Name, args)
	return ir.NullV(), nil
}

// listMethod implements the Groovy collection utilities the paper's
// translator supports (§6: find, findAll, each, collect, first, +, ...).
func listMethod(r rt, recv ir.Value, x *groovy.CallExpr, args []ir.Value, cl any) (ir.Value, error) {
	items := recv.L()
	switch x.Name {
	case "each":
		if cl != nil {
			for _, item := range items {
				if _, err := r.rtCall(cl, []ir.Value{item}); err != nil {
					return ir.NullV(), err
				}
			}
		}
		return recv, nil
	case "eachWithIndex":
		if cl != nil {
			for i, item := range items {
				if _, err := r.rtCall(cl, []ir.Value{item, ir.IntV(int64(i))}); err != nil {
					return ir.NullV(), err
				}
			}
		}
		return recv, nil
	case "find":
		for _, item := range items {
			ok, err := closTruthy(r, cl, item)
			if err != nil {
				return ir.NullV(), err
			}
			if ok {
				return item, nil
			}
		}
		return ir.NullV(), nil
	case "findAll":
		var out []ir.Value
		for _, item := range items {
			ok, err := closTruthy(r, cl, item)
			if err != nil {
				return ir.NullV(), err
			}
			if ok {
				out = append(out, item)
			}
		}
		return sameKind(recv, out), nil
	case "collect":
		var out []ir.Value
		for _, item := range items {
			v := item
			if cl != nil {
				var err error
				v, err = r.rtCall(cl, []ir.Value{item})
				if err != nil {
					return ir.NullV(), err
				}
			}
			out = append(out, v)
		}
		return ir.ListV(out), nil
	case "any":
		for _, item := range items {
			ok, err := closTruthy(r, cl, item)
			if err != nil {
				return ir.NullV(), err
			}
			if ok {
				return ir.BoolV(true), nil
			}
		}
		return ir.BoolV(false), nil
	case "every":
		for _, item := range items {
			ok, err := closTruthy(r, cl, item)
			if err != nil {
				return ir.NullV(), err
			}
			if !ok {
				return ir.BoolV(false), nil
			}
		}
		return ir.BoolV(true), nil
	case "count":
		if cl == nil && len(args) == 1 {
			n := 0
			for _, item := range items {
				if looseEqual(item, args[0]) {
					n++
				}
			}
			return ir.IntV(int64(n)), nil
		}
		n := 0
		for _, item := range items {
			ok, err := closTruthy(r, cl, item)
			if err != nil {
				return ir.NullV(), err
			}
			if ok {
				n++
			}
		}
		return ir.IntV(int64(n)), nil
	case "first":
		if len(items) > 0 {
			return items[0], nil
		}
		return ir.NullV(), nil
	case "last":
		if len(items) > 0 {
			return items[len(items)-1], nil
		}
		return ir.NullV(), nil
	case "size":
		return ir.IntV(int64(len(items))), nil
	case "isEmpty":
		return ir.BoolV(len(items) == 0), nil
	case "contains":
		for _, item := range items {
			if len(args) > 0 && looseEqual(item, args[0]) {
				return ir.BoolV(true), nil
			}
		}
		return ir.BoolV(false), nil
	case "sum":
		sum := 0.0
		isInt := true
		for _, item := range items {
			if item.Kind == ir.VNum {
				isInt = false
			}
			sum += item.AsFloat()
		}
		if isInt {
			return ir.IntV(int64(sum)), nil
		}
		return ir.NumV(sum), nil
	case "max":
		var best ir.Value
		for i, item := range items {
			if i == 0 {
				best = item
				continue
			}
			if c, ok := compareValues(item, best); ok && c > 0 {
				best = item
			}
		}
		return best, nil
	case "min":
		var best ir.Value
		for i, item := range items {
			if i == 0 {
				best = item
				continue
			}
			if c, ok := compareValues(item, best); ok && c < 0 {
				best = item
			}
		}
		return best, nil
	case "join":
		sep := argStr(args, 0)
		parts := make([]string, len(items))
		for i, item := range items {
			parts[i] = item.String()
		}
		return ir.StrV(strings.Join(parts, sep)), nil
	case "reverse":
		out := make([]ir.Value, len(items))
		for i, item := range items {
			out[len(items)-1-i] = item
		}
		return sameKind(recv, out), nil
	case "sort":
		out := append([]ir.Value{}, items...)
		for i := 1; i < len(out); i++ { // insertion sort: stable, no deps
			for j := i; j > 0; j-- {
				if c, ok := compareValues(out[j], out[j-1]); ok && c < 0 {
					out[j], out[j-1] = out[j-1], out[j]
				} else {
					break
				}
			}
		}
		return sameKind(recv, out), nil
	case "unique":
		var out []ir.Value
		for _, item := range items {
			dup := false
			for _, o := range out {
				if looseEqual(item, o) {
					dup = true
				}
			}
			if !dup {
				out = append(out, item)
			}
		}
		return sameKind(recv, out), nil
	case "add", "push", "leftShift":
		// Mutation is modeled by returning the extended list; persisted
		// state lists are reassigned by the caller.
		if len(args) > 0 {
			return sameKind(recv, append(append([]ir.Value{}, items...), args[0])), nil
		}
		return recv, nil
	case "plus":
		if len(args) > 0 {
			return sameKind(recv, append(append([]ir.Value{}, items...), iterate(args[0])...)), nil
		}
		return recv, nil
	case "minus":
		v, err := binaryOp(groovy.Minus, recv, args[0], x.Pos, r.rtAppName())
		return v, err
	case "get", "getAt":
		if len(args) > 0 {
			i := int(args[0].AsInt())
			if i >= 0 && i < len(items) {
				return items[i], nil
			}
		}
		return ir.NullV(), nil
	case "indexOf":
		for i, item := range items {
			if len(args) > 0 && looseEqual(item, args[0]) {
				return ir.IntV(int64(i)), nil
			}
		}
		return ir.IntV(-1), nil
	case "toString":
		return ir.StrV(recv.String()), nil
	}
	return ir.NullV(), &ExecError{App: r.rtAppName(), Pos: x.Pos,
		Msg: fmt.Sprintf("unsupported list method %q", x.Name)}
}

// sameKind preserves VDevices-ness across collection operations.
func sameKind(orig ir.Value, items []ir.Value) ir.Value {
	if orig.Kind == ir.VDevices {
		allDev := true
		for _, it := range items {
			if it.Kind != ir.VDevice {
				allDev = false
			}
		}
		if allDev {
			return ir.DevicesV(items)
		}
	}
	return ir.ListV(items)
}

func mapMethod(r rt, recv ir.Value, x *groovy.CallExpr, args []ir.Value, cl any) (ir.Value, error) {
	m := recv.M()
	switch x.Name {
	case "get":
		return m[argStr(args, 0)], nil
	case "put":
		if len(args) >= 2 {
			m[args[0].String()] = args[1]
		}
		return ir.NullV(), nil
	case "containsKey":
		_, ok := m[argStr(args, 0)]
		return ir.BoolV(ok), nil
	case "remove":
		v := m[argStr(args, 0)]
		delete(m, argStr(args, 0))
		return v, nil
	case "size":
		return ir.IntV(int64(len(m))), nil
	case "isEmpty":
		return ir.BoolV(len(m) == 0), nil
	case "each":
		if cl != nil {
			for _, k := range sortedKeys(m) {
				entry := ir.MapV(map[string]ir.Value{"key": ir.StrV(k), "value": m[k]})
				if _, err := r.rtCall(cl, []ir.Value{entry}); err != nil {
					return ir.NullV(), err
				}
			}
		}
		return recv, nil
	case "keySet", "keys":
		var out []ir.Value
		for _, k := range sortedKeys(m) {
			out = append(out, ir.StrV(k))
		}
		return ir.ListV(out), nil
	case "values":
		var out []ir.Value
		for _, k := range sortedKeys(m) {
			out = append(out, m[k])
		}
		return ir.ListV(out), nil
	case "toString":
		return ir.StrV(recv.String()), nil
	}
	return ir.NullV(), &ExecError{App: r.rtAppName(), Pos: x.Pos,
		Msg: fmt.Sprintf("unsupported map method %q", x.Name)}
}

func stringMethod(appName string, recv ir.Value, x *groovy.CallExpr, args []ir.Value) (ir.Value, error) {
	s := recv.S
	switch x.Name {
	case "toInteger", "toLong":
		if n, ok := parseNumeric(s); ok {
			return ir.IntV(n.AsInt()), nil
		}
		return ir.IntV(0), nil
	case "toFloat", "toDouble", "toBigDecimal":
		if n, ok := parseNumeric(s); ok {
			return ir.NumV(n.AsFloat()), nil
		}
		return ir.NumV(0), nil
	case "isNumber", "isInteger":
		_, ok := parseNumeric(s)
		return ir.BoolV(ok), nil
	case "toLowerCase":
		return ir.StrV(strings.ToLower(s)), nil
	case "toUpperCase":
		return ir.StrV(strings.ToUpper(s)), nil
	case "trim":
		return ir.StrV(strings.TrimSpace(s)), nil
	case "contains":
		return ir.BoolV(strings.Contains(s, argStr(args, 0))), nil
	case "startsWith":
		return ir.BoolV(strings.HasPrefix(s, argStr(args, 0))), nil
	case "endsWith":
		return ir.BoolV(strings.HasSuffix(s, argStr(args, 0))), nil
	case "equals", "equalsIgnoreCase":
		if x.Name == "equalsIgnoreCase" {
			return ir.BoolV(strings.EqualFold(s, argStr(args, 0))), nil
		}
		return ir.BoolV(s == argStr(args, 0)), nil
	case "replace", "replaceAll":
		if len(args) >= 2 {
			return ir.StrV(strings.ReplaceAll(s, args[0].String(), args[1].String())), nil
		}
		return recv, nil
	case "split", "tokenize":
		sep := argStr(args, 0)
		if sep == "" {
			sep = " "
		}
		parts := strings.Split(s, sep)
		out := make([]ir.Value, len(parts))
		for i, p := range parts {
			out[i] = ir.StrV(p)
		}
		return ir.ListV(out), nil
	case "substring":
		if len(args) == 1 {
			i := int(args[0].AsInt())
			if i >= 0 && i <= len(s) {
				return ir.StrV(s[i:]), nil
			}
		}
		if len(args) == 2 {
			i, j := int(args[0].AsInt()), int(args[1].AsInt())
			if i >= 0 && j >= i && j <= len(s) {
				return ir.StrV(s[i:j]), nil
			}
		}
		return ir.StrV(""), nil
	case "size", "length":
		return ir.IntV(int64(len(s))), nil
	case "toString":
		return recv, nil
	case "format":
		return recv, nil
	}
	return ir.NullV(), &ExecError{App: appName, Pos: x.Pos,
		Msg: fmt.Sprintf("unsupported string method %q", x.Name)}
}

// propertyOfValue resolves a property on a concrete value: device
// attribute reads, event fields, collection pseudo-properties.
func propertyOfValue(host Host, recv ir.Value, name string, pos groovy.Pos) (ir.Value, error) {
	switch recv.Kind {
	case ir.VDevice:
		return devicePropertyOf(host, recv.Dev(), name)
	case ir.VDevices:
		// Reading an attribute from a multi-device input returns the
		// first device's value (SmartThings' common-usage shortcut) —
		// except pseudo-properties.
		switch name {
		case "size":
			return ir.IntV(int64(len(recv.L()))), nil
		}
		if len(recv.L()) == 1 {
			return propertyOfValue(host, recv.L()[0], name, pos)
		}
		var out []ir.Value
		for _, d := range recv.L() {
			v, err := propertyOfValue(host, d, name, pos)
			if err != nil {
				return ir.NullV(), err
			}
			out = append(out, v)
		}
		return ir.ListV(out), nil
	case ir.VMap:
		if v, ok := recv.M()[name]; ok {
			return v, nil
		}
		switch name {
		case "size":
			return ir.IntV(int64(len(recv.M()))), nil
		case "numericValue", "doubleValue", "floatValue", "integerValue":
			// Event objects carry value as string; coerce on demand.
			if v, ok := recv.M()["value"]; ok {
				if n, okk := parseNumeric(v.String()); okk {
					return n, nil
				}
			}
		}
		return ir.NullV(), nil
	case ir.VList:
		switch name {
		case "size":
			return ir.IntV(int64(len(recv.L()))), nil
		case "first":
			if len(recv.L()) > 0 {
				return recv.L()[0], nil
			}
			return ir.NullV(), nil
		case "last":
			if len(recv.L()) > 0 {
				return recv.L()[len(recv.L())-1], nil
			}
			return ir.NullV(), nil
		case "empty":
			return ir.BoolV(len(recv.L()) == 0), nil
		}
		return ir.NullV(), nil
	case ir.VStr:
		switch name {
		case "length", "size":
			return ir.IntV(int64(len(recv.S))), nil
		case "value":
			return recv, nil
		}
		return ir.NullV(), nil
	case ir.VInt, ir.VNum:
		if name == "value" {
			return recv, nil
		}
		return ir.NullV(), nil
	}
	return ir.NullV(), nil
}

// devicePropertyOf resolves device attribute reads: currentX, xState,
// label/displayName, id.
func devicePropertyOf(host Host, dev int, name string) (ir.Value, error) {
	switch name {
	case "displayName", "label", "name":
		return ir.StrV(host.DeviceLabel(dev)), nil
	case "id", "deviceNetworkId":
		return ir.StrV(fmt.Sprintf("dev-%d", dev)), nil
	}
	if strings.HasPrefix(name, "current") && len(name) > len("current") {
		attr := name[len("current"):]
		attr = strings.ToLower(attr[:1]) + attr[1:]
		if v, ok := host.DeviceAttr(dev, attr); ok {
			return v, nil
		}
		return ir.NullV(), nil
	}
	if strings.HasSuffix(name, "State") && len(name) > len("State") {
		attr := name[:len(name)-len("State")]
		if v, ok := host.DeviceAttr(dev, attr); ok {
			return ir.MapV(map[string]ir.Value{
				"value": toStringValue(v),
				"name":  ir.StrV(attr),
				"date":  ir.IntV(host.Now()),
			}), nil
		}
		return ir.NullV(), nil
	}
	// Direct attribute name (device.temperature style).
	if v, ok := host.DeviceAttr(dev, name); ok {
		return v, nil
	}
	return ir.NullV(), nil
}

// locationPropertyOf resolves properties of the location object.
func locationPropertyOf(host Host, name string) (ir.Value, error) {
	switch name {
	case "mode", "currentMode":
		return ir.StrV(host.LocationMode()), nil
	case "modes":
		modes := host.Modes()
		out := make([]ir.Value, len(modes))
		for i, m := range modes {
			out[i] = ir.StrV(m)
		}
		return ir.ListV(out), nil
	case "name":
		return ir.StrV("Home"), nil
	case "timeZone":
		return ir.StrV("UTC"), nil
	}
	return ir.NullV(), nil
}

// eventValueOf builds the evt object delivered to handlers.
func eventValueOf(host Host, evt *Event) ir.Value {
	if evt == nil {
		return ir.NullV()
	}
	m := map[string]ir.Value{
		"name":          ir.StrV(evt.Name),
		"value":         toStringValue(evt.Value),
		"displayName":   ir.StrV(evt.DisplayName),
		"isStateChange": ir.BoolV(true),
		"date":          ir.IntV(host.Now()),
	}
	if evt.Value.IsNumeric() {
		m["numericValue"] = evt.Value
		m["doubleValue"] = ir.NumV(evt.Value.AsFloat())
		m["integerValue"] = ir.IntV(evt.Value.AsInt())
	}
	if evt.Device >= 0 {
		m["device"] = ir.DeviceV(evt.Device)
		m["deviceId"] = ir.StrV(host.DeviceLabel(evt.Device))
	}
	return ir.MapV(m)
}

// eventProp reads one property of the event object without materializing
// its map. It must stay observationally identical to
// propertyOfValue(eventValueOf(host, evt), name): compiled handlers
// whose event parameter never escapes use it on the hot path.
func eventProp(host Host, evt *Event, name string) ir.Value {
	switch name {
	case "name":
		return ir.StrV(evt.Name)
	case "value":
		return toStringValue(evt.Value)
	case "displayName":
		return ir.StrV(evt.DisplayName)
	case "isStateChange":
		return ir.BoolV(true)
	case "date":
		return ir.IntV(host.Now())
	case "numericValue":
		if evt.Value.IsNumeric() {
			return evt.Value
		}
	case "doubleValue":
		if evt.Value.IsNumeric() {
			return ir.NumV(evt.Value.AsFloat())
		}
	case "integerValue":
		if evt.Value.IsNumeric() {
			return ir.IntV(evt.Value.AsInt())
		}
	case "floatValue":
		// Not a key of the event map: always the coercion fallback.
	case "device":
		if evt.Device >= 0 {
			return ir.DeviceV(evt.Device)
		}
		return ir.NullV()
	case "deviceId":
		if evt.Device >= 0 {
			return ir.StrV(host.DeviceLabel(evt.Device))
		}
		return ir.NullV()
	case "size":
		n := 5
		if evt.Value.IsNumeric() {
			n += 3
		}
		if evt.Device >= 0 {
			n += 2
		}
		return ir.IntV(int64(n))
	default:
		return ir.NullV()
	}
	// The numeric pseudo-properties of a non-numeric event coerce from
	// the string value on demand (the VMap fallback path).
	if n, ok := parseNumeric(toStringValue(evt.Value).String()); ok {
		return n
	}
	return ir.NullV()
}
