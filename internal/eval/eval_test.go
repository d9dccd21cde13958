package eval

import (
	"testing"
	"testing/quick"

	"iotsan/internal/groovy"
	"iotsan/internal/ir"
	"iotsan/internal/smartapp"
)

// fakeHost is a minimal in-memory Host.
type fakeHost struct {
	attrs    map[string]ir.Value // "dev0/switch" → value
	commands []string
	mode     string
	state    map[string]ir.Value
	slots    []ir.Value
	sms      []string
	http     []string
	events   []string
	timers   []string
	unsubbed bool
}

func newFakeHost() *fakeHost {
	return &fakeHost{
		attrs: map[string]ir.Value{}, mode: "Home",
		state: map[string]ir.Value{},
	}
}

func key(dev int, attr string) string { return string(rune('0'+dev)) + "/" + attr }

func (h *fakeHost) DeviceAttr(dev int, attr string) (ir.Value, bool) {
	v, ok := h.attrs[key(dev, attr)]
	return v, ok
}
func (h *fakeHost) DeviceLabel(dev int) string { return "dev" }
func (h *fakeHost) DeviceCommand(dev int, cmd string, args []ir.Value) {
	h.commands = append(h.commands, cmd)
}
func (h *fakeHost) LocationMode() string             { return h.mode }
func (h *fakeHost) SetLocationMode(m string)         { h.mode = m }
func (h *fakeHost) Modes() []string                  { return []string{"Home", "Away", "Night"} }
func (h *fakeHost) Now() int64                       { return 1000 }
func (h *fakeHost) AppState() map[string]ir.Value    { return h.state }
func (h *fakeHost) StateSlot(i int) ir.Value         { return h.slots[i] }
func (h *fakeHost) SetStateSlot(i int, v ir.Value)   { h.slots[i] = v }
func (h *fakeHost) SendSMS(p string)                 { h.sms = append(h.sms, p) }
func (h *fakeHost) SendPush()                        {}
func (h *fakeHost) HTTPRequest(m, u string)          { h.http = append(h.http, u) }
func (h *fakeHost) SendNotificationToContacts()      {}
func (h *fakeHost) Unsubscribe()                     { h.unsubbed = true }
func (h *fakeHost) SendEvent(n, v string)            { h.events = append(h.events, n+"="+v) }
func (h *fakeHost) Schedule(handler string, d int64) { h.timers = append(h.timers, handler) }
func (h *fakeHost) Unschedule()                      {}
func (h *fakeHost) Log(level string)                 {}

func run(t *testing.T, src string, handler string, evt *Event, host *fakeHost, bindings map[string]ir.Value) {
	t.Helper()
	app, err := smartapp.Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if bindings == nil {
		bindings = map[string]ir.Value{}
	}
	ev := &Evaluator{App: app, Bindings: bindings, Host: host}
	if err := ev.CallHandler(handler, evt); err != nil {
		t.Fatalf("CallHandler: %v", err)
	}
}

const header = `
definition(name: "T", namespace: "t", author: "t", description: "t", category: "t")
preferences {
    section("s") { input "sw", "capability.switch" }
    section("s") { input "sws", "capability.switch", multiple: true }
    section("n") { input "limit", "number" }
}
def installed() { subscribe(sw, "switch", h) }
`

func TestHandlerCommands(t *testing.T) {
	host := newFakeHost()
	run(t, header+`
def h(evt) {
    if (evt.value == "on") {
        sw.off()
    }
}
`, "h", &Event{Device: 0, Name: "switch", Value: ir.StrV("on")}, host,
		map[string]ir.Value{"sw": ir.DeviceV(0)})
	if len(host.commands) != 1 || host.commands[0] != "off" {
		t.Errorf("commands = %v", host.commands)
	}
}

func TestMultiDeviceFanOut(t *testing.T) {
	host := newFakeHost()
	run(t, header+`
def h(evt) {
    sws.on()
    sws.each { it.off() }
}
`, "h", &Event{Device: 0, Name: "switch", Value: ir.StrV("on")}, host,
		map[string]ir.Value{
			"sws": ir.DevicesV([]ir.Value{ir.DeviceV(0), ir.DeviceV(1)}),
		})
	if len(host.commands) != 4 {
		t.Errorf("commands = %v, want on,on,off,off", host.commands)
	}
}

func TestStatePersistence(t *testing.T) {
	host := newFakeHost()
	run(t, header+`
def h(evt) {
    def c = state.count ?: 0
    state.count = c + 1
}
`, "h", &Event{Device: 0, Name: "switch", Value: ir.StrV("on")}, host,
		map[string]ir.Value{"sw": ir.DeviceV(0)})
	if v := host.state["count"]; v.AsInt() != 1 {
		t.Errorf("state.count = %v", v)
	}
}

func TestNumericComparisonAgainstStringEvent(t *testing.T) {
	// SmartThings event values arrive as strings; Groovy == coerces.
	host := newFakeHost()
	run(t, header+`
def h(evt) {
    if (evt.numericValue > limit) {
        sw.off()
    }
}
`, "h", &Event{Device: 0, Name: "power", Value: ir.StrV("150")}, host,
		map[string]ir.Value{"sw": ir.DeviceV(0), "limit": ir.IntV(100)})
	if len(host.commands) != 1 {
		t.Errorf("commands = %v", host.commands)
	}
}

func TestEffectsRecorded(t *testing.T) {
	host := newFakeHost()
	run(t, header+`
def h(evt) {
    sendSms("555", "msg")
    httpPost("http://x.example", "data")
    sendEvent(name: "smoke", value: "detected")
    unsubscribe()
    runIn(60, later)
    setLocationMode("Away")
}
def later() { }
`, "h", &Event{Device: 0, Name: "switch", Value: ir.StrV("on")}, host,
		map[string]ir.Value{"sw": ir.DeviceV(0)})
	if len(host.sms) != 1 || host.sms[0] != "555" {
		t.Errorf("sms = %v", host.sms)
	}
	if len(host.http) != 1 || len(host.events) != 1 || !host.unsubbed {
		t.Errorf("http=%v events=%v unsub=%v", host.http, host.events, host.unsubbed)
	}
	if len(host.timers) != 1 || host.timers[0] != "later" {
		t.Errorf("timers = %v", host.timers)
	}
	if host.mode != "Away" {
		t.Errorf("mode = %q", host.mode)
	}
}

func TestStepBudgetStopsLoops(t *testing.T) {
	app, err := smartapp.Translate(header + `
def h(evt) {
    while (true) { state.x = 1 }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ev := &Evaluator{App: app, Bindings: map[string]ir.Value{}, Host: newFakeHost(),
		lim: stepLimits{maxSteps: 1000}}
	if err := ev.CallHandler("h", &Event{Device: 0, Name: "switch", Value: ir.StrV("on")}); err == nil {
		t.Fatal("expected step-budget error")
	}
}

func TestGStringRendering(t *testing.T) {
	host := newFakeHost()
	run(t, header+`
def h(evt) {
    sendSms("555", "value is ${evt.value} at mode $evt.name")
}
`, "h", &Event{Device: 0, Name: "switch", Value: ir.StrV("on")}, host,
		map[string]ir.Value{"sw": ir.DeviceV(0)})
	if len(host.sms) != 1 {
		t.Fatal("no sms")
	}
}

// TestBinaryOpProperties: arithmetic on the Value domain is consistent
// with Go integers (property-based).
func TestBinaryOpProperties(t *testing.T) {
	add := func(a, b int32) bool {
		v, err := binaryOp(groovy.Plus, ir.IntV(int64(a)), ir.IntV(int64(b)), groovy.Pos{}, "t")
		return err == nil && v.AsInt() == int64(a)+int64(b)
	}
	if err := quick.Check(add, nil); err != nil {
		t.Error(err)
	}
	cmp := func(a, b int16) bool {
		v, err := binaryOp(groovy.Lt, ir.IntV(int64(a)), ir.IntV(int64(b)), groovy.Pos{}, "t")
		return err == nil && v.B() == (a < b)
	}
	if err := quick.Check(cmp, nil); err != nil {
		t.Error(err)
	}
	// String concat length is additive.
	cat := func(a, b string) bool {
		v, err := binaryOp(groovy.Plus, ir.StrV(a), ir.StrV(b), groovy.Pos{}, "t")
		return err == nil && len(v.S) == len(a)+len(b)
	}
	if err := quick.Check(cat, nil); err != nil {
		t.Error(err)
	}
}

// TestValueEncodeInjective: distinct primitive values encode distinctly
// (hash soundness, property-based).
func TestValueEncodeInjective(t *testing.T) {
	f := func(a, b int64) bool {
		ea := string(ir.IntV(a).Encode(nil))
		eb := string(ir.IntV(b).Encode(nil))
		return (a == b) == (ea == eb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		ea := string(ir.StrV(a).Encode(nil))
		eb := string(ir.StrV(b).Encode(nil))
		return (a == b) == (ea == eb)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}
