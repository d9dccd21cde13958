package eval

import (
	"fmt"
	"reflect"
	"testing"

	"iotsan/internal/ir"
	"iotsan/internal/smartapp"
)

// runBoth executes one handler under the interpreter and the compiled
// program against separate fake hosts and asserts identical observable
// effects (commands, messaging, state, mode, timers).
func runBoth(t *testing.T, src, handler string, evt *Event, bindings map[string]ir.Value) (*fakeHost, *fakeHost) {
	t.Helper()
	app, err := smartapp.Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if bindings == nil {
		bindings = map[string]ir.Value{}
	}

	ih := newFakeHost()
	iev := &Evaluator{App: app, Bindings: bindings, Host: ih}
	ierr := iev.CallHandler(handler, evt)

	ca := Compile(app, bindings, nil)
	if ca.Err != nil {
		t.Fatalf("Compile: %v", ca.Err)
	}
	ch := newFakeHost()
	env := &Env{}
	env.Reset(ch, ca)
	cerr := env.CallHandler(handler, evt)

	if (ierr == nil) != (cerr == nil) {
		t.Fatalf("error divergence: interp=%v compiled=%v", ierr, cerr)
	}
	if ierr != nil && ierr.Error() != cerr.Error() {
		t.Fatalf("error text divergence:\n interp:   %v\n compiled: %v", ierr, cerr)
	}
	if !reflect.DeepEqual(ih.commands, ch.commands) {
		t.Errorf("commands: interp=%v compiled=%v", ih.commands, ch.commands)
	}
	if !reflect.DeepEqual(ih.sms, ch.sms) || !reflect.DeepEqual(ih.http, ch.http) ||
		!reflect.DeepEqual(ih.events, ch.events) || !reflect.DeepEqual(ih.timers, ch.timers) {
		t.Errorf("effects diverge: interp sms=%v http=%v events=%v timers=%v / compiled sms=%v http=%v events=%v timers=%v",
			ih.sms, ih.http, ih.events, ih.timers, ch.sms, ch.http, ch.events, ch.timers)
	}
	if ih.mode != ch.mode || ih.unsubbed != ch.unsubbed {
		t.Errorf("mode/unsub diverge: interp=%q/%v compiled=%q/%v", ih.mode, ih.unsubbed, ch.mode, ch.unsubbed)
	}
	if fmt.Sprint(ih.state) != fmt.Sprint(ch.state) {
		t.Errorf("state diverges: interp=%v compiled=%v", ih.state, ch.state)
	}
	return ih, ch
}

func TestCompiledMatchesInterpreterBasics(t *testing.T) {
	onEvt := &Event{Device: 0, Name: "switch", Value: ir.StrV("on")}
	sw := map[string]ir.Value{"sw": ir.DeviceV(0)}

	t.Run("commands", func(t *testing.T) {
		runBoth(t, header+`
def h(evt) {
    if (evt.value == "on") { sw.off() } else { sw.on() }
}
`, "h", onEvt, sw)
	})

	t.Run("state-counter", func(t *testing.T) {
		ih, ch := runBoth(t, header+`
def h(evt) {
    def c = state.count ?: 0
    state.count = c + 1
    state.last = evt.value
}
`, "h", onEvt, sw)
		if ih.state["count"].AsInt() != 1 || ch.state["count"].AsInt() != 1 {
			t.Errorf("count: %v vs %v", ih.state, ch.state)
		}
	})

	t.Run("loops-and-collections", func(t *testing.T) {
		runBoth(t, header+`
def h(evt) {
    def total = 0
    for (x in [1, 2, 3]) { total += x }
    def evens = [1, 2, 3, 4].findAll { it % 2 == 0 }
    def i = 0
    while (i < evens.size()) { i++ }
    state.total = total + i
    [3, 1, 2].sort().each { state.total = state.total + it }
}
`, "h", onEvt, sw)
	})

	t.Run("fresh-loop-scope", func(t *testing.T) {
		// A variable first assigned inside a loop body must reset each
		// iteration (the interpreter gives every iteration a fresh
		// scope); the compiled range-clearing must match.
		ih, ch := runBoth(t, header+`
def h(evt) {
    def n = 0
    for (x in [1, 2, 3]) {
        if (!seen) { seen = true; n = n + 1 }
    }
    state.n = n
}
`, "h", onEvt, sw)
		if ih.state["n"].AsInt() != 3 || ch.state["n"].AsInt() != 3 {
			t.Errorf("fresh-scope semantics: interp n=%v compiled n=%v", ih.state["n"], ch.state["n"])
		}
	})

	t.Run("methods-and-defaults", func(t *testing.T) {
		runBoth(t, header+`
def h(evt) {
    state.r = helper(2) + helper(3, 10)
}
def helper(a, b = 5) { return a * b }
`, "h", onEvt, sw)
	})

	t.Run("switch-fallthrough", func(t *testing.T) {
		runBoth(t, header+`
def h(evt) {
    switch (evt.value) {
    case "off":
        state.a = 1
    case "on":
        state.b = 2
        break
    default:
        state.c = 3
    }
}
`, "h", onEvt, sw)
	})

	t.Run("gstring-ternary-elvis", func(t *testing.T) {
		runBoth(t, header+`
def h(evt) {
    def who = evt.displayName ?: "unknown"
    sendSms("555", "dev ${who} is ${evt.value == 'on' ? 'ON' : 'OFF'}")
}
`, "h", &Event{Device: 0, Name: "switch", Value: ir.StrV("on"), DisplayName: "Lamp"}, sw)
	})

	t.Run("numeric-event", func(t *testing.T) {
		runBoth(t, header+`
def h(evt) {
    if (evt.numericValue > limit) { sw.off() }
    state.d = evt.doubleValue + evt.integerValue
}
`, "h", &Event{Device: 0, Name: "power", Value: ir.StrV("150")},
			map[string]ir.Value{"sw": ir.DeviceV(0), "limit": ir.IntV(100)})
	})

	t.Run("platform-effects", func(t *testing.T) {
		runBoth(t, header+`
def h(evt) {
    sendPush("hi")
    httpPost("http://x.example", "data")
    sendEvent(name: "smoke", value: "detected")
    runIn(60, later)
    setLocationMode("Away")
    unsubscribe()
}
def later() { }
`, "h", onEvt, sw)
	})

	t.Run("exec-error-parity", func(t *testing.T) {
		runBoth(t, header+`
def h(evt) {
    nosuchfunction(1, 2)
}
`, "h", onEvt, sw)
	})

	t.Run("step-budget-parity", func(t *testing.T) {
		src := header + `
def h(evt) {
    while (true) { state.x = 1 }
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		iev := &Evaluator{App: app, Bindings: map[string]ir.Value{}, Host: newFakeHost(),
			Limits: Limits{MaxSteps: 1000}}
		ierr := iev.CallHandler("h", onEvt)
		ca := Compile(app, map[string]ir.Value{}, nil)
		if ca.Err != nil {
			t.Fatal(ca.Err)
		}
		env := &Env{Limits: Limits{MaxSteps: 1000}}
		env.Reset(newFakeHost(), ca)
		cerr := env.CallHandler("h", onEvt)
		if ierr == nil || cerr == nil {
			t.Fatalf("expected budget errors, got interp=%v compiled=%v", ierr, cerr)
		}
		if ierr.Error() != cerr.Error() {
			t.Fatalf("budget error divergence:\n interp:   %v\n compiled: %v", ierr, cerr)
		}
	})
}

// TestCompileClosureValueFallsBack: closure values stored in variables
// abort compilation so the app runs interpreted.
func TestCompileClosureValueFallsBack(t *testing.T) {
	app, err := smartapp.Translate(header + `
def h(evt) {
    def f = { it + 1 }
    state.x = f(1)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ca := Compile(app, map[string]ir.Value{}, nil)
	if ca.Err == nil {
		t.Fatal("expected compile fallback for closure value")
	}
}

// TestStateLayout: literal-key apps slot, dynamic apps do not.
func TestStateLayout(t *testing.T) {
	app, err := smartapp.Translate(header + `
def h(evt) {
    state.count = (state.count ?: 0) + 1
    state.last = evt.value
}
`)
	if err != nil {
		t.Fatal(err)
	}
	keys, ok := StateLayout(app)
	if !ok || len(keys) != 2 || keys[0] != "count" || keys[1] != "last" {
		t.Fatalf("layout = %v ok=%v", keys, ok)
	}

	dyn, err := smartapp.Translate(header + `
def h(evt) {
    state[evt.name] = evt.value
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := StateLayout(dyn); ok {
		t.Fatal("dynamic state use must disable slotting")
	}
}

// TestCompiledSlottedState: compiled and interpreted execution observe
// the same slotted state through the host.
func TestCompiledSlottedState(t *testing.T) {
	src := header + `
def h(evt) {
    state.count = (state.count ?: 0) + 2
}
`
	app, err := smartapp.Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	keys, ok := StateLayout(app)
	if !ok {
		t.Fatal("expected slottable app")
	}
	idx := map[string]int{}
	for i, k := range keys {
		idx[k] = i
	}

	ih := newFakeHost()
	ih.slots = make([]ir.Value, len(keys))
	iev := &Evaluator{App: app, Bindings: map[string]ir.Value{}, Host: ih, StateIdx: idx}
	if err := iev.CallHandler("h", &Event{Device: 0, Name: "switch", Value: ir.StrV("on")}); err != nil {
		t.Fatal(err)
	}

	ca := Compile(app, map[string]ir.Value{}, idx)
	if ca.Err != nil {
		t.Fatal(ca.Err)
	}
	ch := newFakeHost()
	ch.slots = make([]ir.Value, len(keys))
	env := &Env{}
	env.Reset(ch, ca)
	if err := env.CallHandler("h", &Event{Device: 0, Name: "switch", Value: ir.StrV("on")}); err != nil {
		t.Fatal(err)
	}

	if ih.slots[idx["count"]].AsInt() != 2 || ch.slots[idx["count"]].AsInt() != 2 {
		t.Fatalf("slot state diverges: interp=%v compiled=%v", ih.slots, ch.slots)
	}
}

// TestEvtDirectZeroAlloc: a handler whose event parameter never escapes
// dispatches with zero heap allocations once the Env is warm.
func TestEvtDirectZeroAlloc(t *testing.T) {
	app, err := smartapp.Translate(header + `
def h(evt) {
    if (evt.value == "on") { sw.off() }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ca := Compile(app, map[string]ir.Value{"sw": ir.DeviceV(0)}, map[string]int{})
	if ca.Err != nil {
		t.Fatal(ca.Err)
	}
	if !ca.Methods["h"].evtDirect {
		t.Fatal("handler should qualify for direct event access")
	}
	host := newFakeHost()
	env := &Env{}
	evt := &Event{Device: 0, Name: "switch", Value: ir.StrV("on")}
	env.Reset(host, ca)
	_ = env.CallHandler("h", evt) // warm the stacks
	allocs := testing.AllocsPerRun(100, func() {
		host.commands = host.commands[:0]
		env.Reset(host, ca)
		if err := env.CallHandler("h", evt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("compiled dispatch allocates %.1f per run, want 0", allocs)
	}
}

// TestUnreadMessageElision: the compiler builds no string for a log or
// notification message the Host never receives, and nothing but the
// garbage can tell. The interpreter evaluates every message in full and
// is the oracle throughout.
func TestUnreadMessageElision(t *testing.T) {
	evt := &Event{Device: 0, Name: "switch", Value: ir.StrV("on"), DisplayName: "Hall"}
	bindings := map[string]ir.Value{"sw": ir.DeviceV(0), "limit": ir.IntV(60), "phone": ir.StrV("555")}

	// (a) A message that contains a call or an increment is evaluated:
	// its effects are the handler's.
	t.Run("effects-survive", func(t *testing.T) {
		ih, ch := runBoth(t, header+`
def bump() { state.calls = (state.calls ?: 0) + 1; return state.calls }
def h(evt) {
    def n = 0
    log.debug "bumped ${bump()}"
    sendPush("x ${n++}")
    sendSms(phone, "call ${bump()} of ${sw.displayName}")
    sendNotificationEvent("e" + bump())
    sendNotificationToContacts("c", [sw], [event: bump()])
    state.n = n
}
`, "h", evt, bindings)
		for _, h := range []*fakeHost{ih, ch} {
			if h.state["calls"].AsInt() != 4 || h.state["n"].AsInt() != 1 || len(h.sms) != 1 || h.sms[0] != "555" {
				t.Errorf("calls=%v n=%v sms=%v, want 4, 1, [555]", h.state["calls"], h.state["n"], h.sms)
			}
		}
		runBoth(t, header+`
def h(evt) {
    log.debug "ratio ${limit / 0}"
    sw.on()
}
`, "h", evt, bindings) // the division fails in both, at the same position, before the command
	})

	// (b) A message of total expressions costs no allocation — no
	// strings.Builder, no rendered operand — where the same message with
	// one method call in it allocates.
	t.Run("total-message-zero-alloc", func(t *testing.T) {
		allocs := func(msg string) float64 {
			t.Helper()
			app, err := smartapp.Translate(header + `
def h(evt) {
    log.debug ` + msg + `
    sendSms(phone, ` + msg + `)
    sendPush(` + msg + `)
}
`)
			if err != nil {
				t.Fatal(err)
			}
			ca := Compile(app, bindings, map[string]int{"count": 0})
			if ca.Err != nil {
				t.Fatal(ca.Err)
			}
			host := newFakeHost()
			host.slots = []ir.Value{ir.IntV(3)}
			host.attrs[key(0, "switch")] = ir.StrV("on")
			env := &Env{}
			run := func() {
				host.sms = host.sms[:0]
				env.Reset(host, ca)
				if err := env.CallHandler("h", evt); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the stacks
			return testing.AllocsPerRun(100, run)
		}
		total := `"${evt.displayName} is $evt.value at ${evt.doubleValue} (limit $limit, ${sw.currentSwitch} ${sw.displayName}, seen $state.count, ${location.mode} ${app.label} $settings.limit)"`
		if n := allocs(total); n != 0 {
			t.Errorf("a message of total expressions allocates %.1f per run, want 0", n)
		}
		if n := allocs(`"${evt.displayName.toUpperCase()} is $evt.value"`); n == 0 {
			t.Error("a message containing a method call allocates nothing: the control cannot see a string being built")
		}
	})

	// (c) The static step charge is exact: under every budget up to three
	// past the handler's own step count, compiled and interpreted runs end
	// alike — the same effects, or the same ExecError at the same position
	// (inside an elided message included).
	t.Run("step-charge-exact", func(t *testing.T) {
		src := header + `
def note() { state.notes = (state.notes ?: 0) + 1 }
def h(evt) {
    state.count = 1
    log.debug "a ${evt.value} b ${sw.displayName} c ${state.count} d $limit"
    sw.on()
    try { log.info "in try ${evt.name}" } finally { note() }
    sendSms(phone, "${sw.label} says ${evt.name} in ${location.mode}")
}
`
		app, err := smartapp.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		ca := Compile(app, bindings, nil)
		if ca.Err != nil {
			t.Fatal(ca.Err)
		}
		exec := func(maxSteps int) (ih, ch *fakeHost, isteps, csteps int, ierr, cerr error) {
			ih, ch = newFakeHost(), newFakeHost()
			iev := &Evaluator{App: app, Bindings: bindings, Host: ih, Limits: Limits{MaxSteps: maxSteps}}
			ierr = iev.CallHandler("h", evt)
			env := &Env{Limits: Limits{MaxSteps: maxSteps}}
			env.Reset(ch, ca)
			cerr = env.CallHandler("h", evt)
			return ih, ch, iev.steps, env.steps, ierr, cerr
		}
		_, _, k, ck, ierr, cerr := exec(0)
		if ierr != nil || cerr != nil || k != ck || k < 30 {
			t.Fatalf("unbounded run: interp %d steps (%v), compiled %d steps (%v)", k, ierr, ck, cerr)
		}
		t.Logf("handler takes %d steps", k)
		for budget := 1; budget <= k+3; budget++ {
			ih, ch, isteps, csteps, ierr, cerr := exec(budget)
			if (budget >= k) != (ierr == nil) {
				t.Fatalf("budget %d of %d steps: interpreter error %v", budget, k, ierr)
			}
			if fmt.Sprint(ierr) != fmt.Sprint(cerr) || isteps != csteps {
				t.Errorf("budget %d: interp stopped after %d steps with %v, compiled after %d with %v", budget, isteps, ierr, csteps, cerr)
			}
			if !reflect.DeepEqual(ih.commands, ch.commands) || !reflect.DeepEqual(ih.sms, ch.sms) || fmt.Sprint(ih.state) != fmt.Sprint(ch.state) {
				t.Errorf("budget %d: effects diverge: interp %v %v %v, compiled %v %v %v",
					budget, ih.commands, ih.sms, ih.state, ch.commands, ch.sms, ch.state)
			}
		}
	})
}
