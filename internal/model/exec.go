package model

import (
	"fmt"

	"iotsan/internal/checker"
	"iotsan/internal/device"
	"iotsan/internal/eval"
	"iotsan/internal/ir"
)

// Property identifiers raised by the execution engine (the event-driven
// properties of §8; the state invariants live in the props package).
const (
	PropConflicting   = "conflicting-commands"
	PropRepeated      = "repeated-commands"
	PropLeakNetwork   = "leak-network-interface"
	PropLeakSMS       = "leak-sms-recipient"
	PropSuspUnsub     = "suspicious-unsubscribe"
	PropSuspFakeEvent = "suspicious-fake-event"
	PropRobustness    = "failure-notification"
	PropExecError     = "handler-exec-error"
)

// failMode enumerates the device/communication failure scenarios the
// model explores per external event (§8 "To model natural or induced
// device/communication failures ...").
type failMode int

const (
	failNone       failMode = iota
	failSensorOff           // the sensor is offline: the physical event is not sensed
	failSensorComm          // the sensor senses it but the report is lost
	failActuators           // actuator commands during the cascade are lost
)

func (f failMode) String() string {
	switch f {
	case failSensorOff:
		return "sensor offline"
	case failSensorComm:
		return "sensor report lost"
	case failActuators:
		return "actuator command lost"
	}
	return "no failure"
}

// cyberEvent is an event propagating inside the platform. A device
// attribute change is carried by reference — Attr indexes the source
// device's schema, Raw is the new raw value — and its ir.Value and string
// form are materialised only where a handler or a filter reads them
// (value, vstr). Every other event has Attr -1 and its value in Str.
type cyberEvent struct {
	Source int    // device index, or src* pseudo-source
	Attr   int32  // schema index of a device attribute change, else -1
	Raw    int16  // the attribute's new raw value
	Name   string // event name: the attribute, "mode", "sun", "touch", ...
	Str    string // value of an event that is not an attribute change
	Label  string // the handler's evt.displayName
}

// attrEvent is the event of device d's attribute ai changing to raw.
func attrEvent(d *DevInst, ai int, raw int16) cyberEvent {
	return cyberEvent{Source: d.Idx, Attr: int32(ai), Raw: raw, Name: d.Attrs[ai].Name, Label: d.Label}
}

// vstr is the event value as subscription filters and trails read it.
func (m *Model) vstr(ev *cyberEvent) string {
	if ev.Attr < 0 {
		return ev.Str
	}
	return m.Devices[ev.Source].attrString(int(ev.Attr), ev.Raw)
}

// value is the event value a handler receives as evt.value.
func (m *Model) value(ev *cyberEvent) ir.Value {
	if ev.Attr < 0 {
		return ir.StrV(ev.Str)
	}
	return decodeAttr(&m.Devices[ev.Source].Attrs[ev.Attr], ev.Raw)
}

// executor runs handler cascades against a state; it implements
// eval.Host for the app whose handler is currently executing. An
// executor lives as long as the Scratch it is bound to (or, for Expand
// and Replay, is drawn from the Model's pool once per call): all
// per-cascade storage (queue, step log, violations, notification flags,
// the compiled-execution Env) retains its capacity across transitions,
// so taking a transition performs no executor allocations.
//
//iotsan:transition
type executor struct {
	m *Model
	s *State

	queue    []cyberEvent
	qhead    int // consumed prefix of queue (drain); lets the backing array be reused
	steps    []string
	viols    []checker.Violation
	curApp   int
	failMode failMode

	// record enables the human-readable step log. The exploration hot
	// path runs with record=false (labels/steps are regenerated by
	// Replay only when a counter-example trail is materialized).
	record bool

	dispatches int
	// notified marks apps that alerted the user this cascade (for the
	// robustness property); dropped marks apps whose actuator commands
	// were lost. Indexed by app, reused across transitions.
	notified   []bool
	dropped    []bool
	anyDropped bool

	// env executes closure-compiled programs; interp is the reusable
	// tree-walking oracle for apps that did not compile (or when
	// Options.Interpreter is set). evt is the reusable event scratch
	// handed to handler invocations (dispatches never nest).
	env    eval.Env
	interp eval.Evaluator
	evt    eval.Event

	// cmdDetails interns the repeated/conflicting-command details this
	// executor has formatted (see cmdDetail): a search meets the same
	// command pair over and over.
	cmdDetails map[cmdPair]string

	// reads is the read half of the mark contract: the blocks the
	// transition has read so far, one bit per block, and hdrReads the
	// header fields among them. Set only while a scratch records the
	// step into its transition memo (memo.go); nil otherwise, and then
	// the read helpers cost a nil check.
	reads    []uint64
	hdrReads uint8
}

// cmdPair identifies a repeated or conflicting command detail by
// everything it is formatted from: device and app indexes stand for
// their labels and names, which the model fixes.
type cmdPair struct {
	conflicting       bool
	dev, prevApp, app int
	prevCmd, cmd      string
}

func (m *Model) newExecutor() *executor {
	return &executor{
		m:        m,
		notified: make([]bool, len(m.Apps)),
		dropped:  make([]bool, len(m.Apps)),
	}
}

// reset binds the executor to a state for one transition, clearing
// per-cascade storage while keeping slice capacity.
func (x *executor) reset(s *State, fm failMode, record bool) {
	x.s = s
	x.failMode = fm
	x.record = record
	x.curApp = 0
	x.dispatches = 0
	x.anyDropped = false
	x.queue = x.queue[:0]
	x.qhead = 0
	x.steps = x.steps[:0]
	x.viols = x.viols[:0]
	for i := range x.notified {
		x.notified[i] = false
		x.dropped[i] = false
	}
}

// violations lends the transition's violations to the caller: the slice
// is the executor's own storage and is overwritten by its next reset, so
// a transition that outlives that (Expand's) copies it.
func (x *executor) violations() []checker.Violation {
	if len(x.viols) == 0 {
		return nil
	}
	return x.viols
}

// takeSteps hands ownership of the recorded step log to the caller.
func (x *executor) takeSteps() []string {
	s := x.steps
	x.steps = nil
	if s == nil {
		s = []string{}
	}
	return s
}

func (x *executor) violate(prop, detail string) {
	x.viols = append(x.viols, checker.Violation{Property: prop, Detail: detail})
}

// cmdDetail is the violation detail of the command pair p, formatted
// the first time this executor meets p.
func (x *executor) cmdDetail(p cmdPair) string {
	if d, ok := x.cmdDetails[p]; ok {
		return d
	}
	label, prev, cur := x.m.Devices[p.dev].Label, x.m.Apps[p.prevApp].App.Name, x.m.Apps[p.app].App.Name
	var d string
	if p.conflicting {
		d = fmt.Sprintf("%s receives conflicting commands %q and %q (%s vs %s)", label, p.prevCmd, p.cmd, prev, cur)
	} else {
		d = fmt.Sprintf("%s receives repeated %q commands (%s and %s)", label, p.cmd, prev, cur)
	}
	if x.cmdDetails == nil {
		x.cmdDetails = map[cmdPair]string{}
	}
	x.cmdDetails[p] = d
	return d
}

// step logs one preformatted micro-step.
func (x *executor) step(s string) {
	if x.record {
		x.steps = append(x.steps, s)
	}
}

func (x *executor) stepf(format string, args ...any) {
	if !x.record {
		return
	}
	x.steps = append(x.steps, fmt.Sprintf(format, args...))
}

// ---- sensor/actuator state updates (Algorithm 1) ----

// sensorUpdate applies an external physical event to a sensor device
// (Algorithm 1, sensor_state_update) and enqueues the notification.
func (x *executor) sensorUpdate(dev int, attrIdx int, val int16) {
	d := x.m.Devices[dev]
	if x.failMode == failSensorOff {
		if x.record {
			x.stepf("%s offline: physical event not sensed", d.Label)
		}
		return
	}
	x.readDevice(dev)
	if x.s.Devices[dev].Attrs[attrIdx] == val {
		return // not a state change
	}
	ds := &x.s.Devices[dev]
	if x.m.Opts.Faults && !ds.Online {
		// The physical world still changes (ground truth), but the
		// offline device cannot report: the hub's Reported copy stays
		// stale and no handler fires until the device recovers.
		ds.Attrs[attrIdx] = val
		x.s.markDevice(dev)
		if x.record {
			x.stepf("%s.%s = %s (device offline: report suppressed)",
				d.Label, d.Attrs[attrIdx].Name, d.attrString(attrIdx, val))
		}
		return
	}
	ds.Attrs[attrIdx] = val
	ds.report(attrIdx)
	if !skipDeviceMark { // fault gate for the negative oracle test
		x.s.markDevice(dev)
	}
	if x.record {
		x.stepf("%s.%s = %s", d.Label, d.Attrs[attrIdx].Name, d.attrString(attrIdx, val))
	}
	if x.failMode == failSensorComm {
		if x.record {
			x.stepf("communication failure: state change event from %s lost", d.Label)
		}
		return
	}
	ev := attrEvent(d, attrIdx, val)
	x.enqueue(&ev)
}

// actuatorUpdate applies a command result to an actuator (Algorithm 1,
// actuator_state_update): verify conflicting/repeated, update, notify.
func (x *executor) actuatorUpdate(dev int, cmd *device.Command, argVal int16) {
	d := x.m.Devices[dev]
	rec := CmdRec{Dev: dev, Cmd: cmd.Name, Arg: argVal, App: x.curApp,
		Attr: cmd.Attribute, Value: cmd.Value}

	x.readCmds()
	if x.m.Opts.CheckConflicts {
		for _, prev := range x.s.Cmds {
			if prev.Dev != dev {
				continue
			}
			if prev.Cmd == rec.Cmd && prev.Arg == rec.Arg {
				x.violate(PropRepeated, x.cmdDetail(cmdPair{false, dev, prev.App, rec.App, prev.Cmd, rec.Cmd}))
				break
			}
		}
		for _, prev := range x.s.Cmds {
			if prev.Dev != dev || prev.Attr != rec.Attr {
				continue
			}
			if prev.Value != "" && rec.Value != "" && prev.Value != rec.Value {
				x.violate(PropConflicting, x.cmdDetail(cmdPair{true, dev, prev.App, rec.App, prev.Cmd, rec.Cmd}))
				break
			}
		}
	}
	x.s.Cmds = append(x.s.Cmds, rec)
	x.s.markCmds()

	if x.failMode == failActuators {
		x.dropped[x.curApp] = true
		x.anyDropped = true
		if x.record {
			x.stepf("command %s.%s() lost (device/communication failure)", d.Label, cmd.Name)
		}
		return
	}

	x.readDevice(dev)
	if x.m.Opts.Faults && !x.s.Devices[dev].Online {
		// The offline device swallows the command: it is held in the
		// in-flight buffer and a later fault transition delivers or
		// drops it. The command was still logged above, so the
		// conflicting/repeated checks see it either way.
		x.s.InFlight = append(x.s.InFlight, InFlightCmd{CmdRec: rec})
		x.s.markCmds()
		if x.record {
			x.stepf("%s offline: command %s.%s() held in flight", d.Label, d.Label, cmd.Name)
		}
		return
	}

	ai := d.AttrIndex(cmd.Attribute)
	if ai < 0 {
		return
	}
	var nv int16
	if cmd.TakesArg {
		nv = argVal
	} else {
		nv = int16(indexOf(d.Attrs[ai].Values, cmd.Value))
		if nv < 0 {
			return
		}
	}
	if x.s.Devices[dev].Attrs[ai] == nv {
		return // no state change, no notification
	}
	x.s.Devices[dev].Attrs[ai] = nv
	x.s.Devices[dev].report(ai)
	x.s.markDevice(dev)
	if x.record {
		x.stepf("%s.%s = %s", d.Label, d.Attrs[ai].Name, d.attrString(ai, nv))
	}
	ev := attrEvent(d, ai, nv)
	x.enqueue(&ev)
}

func (x *executor) enqueue(ev *cyberEvent) {
	if x.m.Opts.Design == Concurrent {
		// Queue one pending invocation per matching subscription; the
		// checker interleaves them.
		for _, si := range x.m.subsFor(ev) {
			if x.matches(&x.m.subs[si], ev) {
				p := Pending{SubIdx: int(si), Source: ev.Source, Raw: x.m.vstr(ev)}
				if ev.Attr >= 0 && x.m.Devices[ev.Source].Attrs[ev.Attr].Numeric {
					p.Val = ev.Raw
				}
				x.readQueue()
				x.s.Queue = append(x.s.Queue, p)
				if !skipQueueMark { // fault gate for the negative oracle test
					x.s.markQueue()
				}
			}
		}
		return
	}
	x.queue = append(x.queue, *ev)
}

// matches applies the runtime part of subscription filtering: the
// dispatch index already narrowed to (source, attr); only the dynamic
// unsubscribe flag and the value filter remain.
func (x *executor) matches(sub *resolvedSub, ev *cyberEvent) bool {
	x.readApp(sub.AppIdx)
	if x.s.Apps[sub.AppIdx].Unsubscribed {
		return false
	}
	return sub.Value == "" || sub.Value == x.m.vstr(ev)
}

// drain dispatches pending events until quiescence (sequential design,
// Algorithm 1 lines 4-6). Invariants are inspected after every handler
// execution, not only at quiescence: a Spin never-claim steps with each
// intermediate state, so transient unsafe states (e.g. a siren pulsed on
// and immediately off by another app) are still caught.
func (x *executor) drain() {
	for x.qhead < len(x.queue) {
		if x.dispatches >= maxCascade {
			if x.record {
				x.stepf("cascade truncated after %d dispatches", x.dispatches)
			}
			x.queue = x.queue[:0]
			x.qhead = 0
			return
		}
		// The event is addressed by index throughout: a handler's own
		// enqueues may move the queue's backing array under a pointer.
		qi := x.qhead
		x.qhead++
		x.dispatches++
		for _, si := range x.m.subsFor(&x.queue[qi]) {
			sub := &x.m.subs[si]
			if x.matches(sub, &x.queue[qi]) {
				x.runHandler(sub, &x.queue[qi])
				x.inspectIntermediate()
			}
		}
	}
	x.finishCascade()
}

// inspectIntermediate evaluates the invariants on the current
// (mid-cascade) state, whose atoms go stale by what the cascade wrote so
// far.
func (x *executor) inspectIntermediate() {
	if !x.m.Opts.InspectCascade || len(x.m.Opts.Invariants) == 0 {
		return
	}
	if x.m.atoms != nil {
		x.m.atoms.staleTouched(x.s, x.s.dirtyMask)
	}
	x.viols = append(x.viols, x.m.Inspect(x.s)...)
}

// finishCascade evaluates the robustness property at the end of a
// cascade: an app whose command was lost must have notified the user.
// It also stamps persistent-fault bookkeeping: commands held in flight
// by an app that notified this cascade survive a later silent drop
// without a violation.
func (x *executor) finishCascade() {
	x.noteInFlight()
	if x.failMode != failActuators || !x.m.Opts.CheckRobustness || !x.anyDropped {
		return
	}
	for app, drop := range x.dropped {
		if drop && !x.notified[app] {
			x.violate(PropRobustness, fmt.Sprintf(
				"%s does not verify actuator commands and sends no SMS/Push on failure",
				x.m.Apps[app].App.Name))
		}
	}
}

// noteInFlight marks held commands whose issuing app alerted the user
// during this cascade. The robustness property for persistent outages
// is judged retroactively at the drop transition: a command dropped
// with Notified still false means the user was never warned.
func (x *executor) noteInFlight() {
	x.readCmds()
	for i := range x.s.InFlight {
		c := &x.s.InFlight[i]
		if !c.Notified && x.notified[c.App] {
			c.Notified = true
			x.s.markCmds()
		}
	}
}

// deliverCommand applies a delayed command's device state change when a
// fault transition finally delivers it. The command was verified
// against the conflict properties and logged at issue time, so delivery
// performs only the attribute write and the event propagation.
func (x *executor) deliverCommand(rec InFlightCmd) {
	d := x.m.Devices[rec.Dev]
	_, cmd := d.Model.FindCommand(rec.Cmd)
	if cmd == nil {
		return
	}
	ai := d.AttrIndex(cmd.Attribute)
	if ai < 0 {
		return
	}
	var nv int16
	if cmd.TakesArg {
		nv = rec.Arg
	} else {
		nv = int16(indexOf(d.Attrs[ai].Values, cmd.Value))
		if nv < 0 {
			return
		}
	}
	if x.record {
		x.stepf("delayed command %s.%s() delivered", d.Label, cmd.Name)
	}
	x.readDevice(rec.Dev)
	if x.s.Devices[rec.Dev].Attrs[ai] == nv {
		return // no state change, no event
	}
	x.s.Devices[rec.Dev].Attrs[ai] = nv
	x.s.Devices[rec.Dev].report(ai)
	x.s.markDevice(rec.Dev)
	if x.record {
		x.stepf("%s.%s = %s", d.Label, d.Attrs[ai].Name, d.attrString(ai, nv))
	}
	ev := attrEvent(d, ai, nv)
	x.enqueue(&ev)
}

// runHandler executes one subscribed handler for an event: through the
// app's closure-compiled program when available, through the
// tree-walking interpreter otherwise. ev is read only before the handler
// starts: it may point into x.queue, which the handler's enqueues move.
func (x *executor) runHandler(sub *resolvedSub, ev *cyberEvent) {
	app := x.m.Apps[sub.AppIdx]
	prev := x.curApp
	x.curApp = sub.AppIdx
	defer func() { x.curApp = prev }()

	if x.record {
		x.stepf("%s.%s(evt: %s/%s)", app.App.Name, sub.Handler, ev.Name, x.m.vstr(ev))
	}

	x.evt = eval.Event{Device: ev.Source, Name: ev.Name, Value: x.m.value(ev), DisplayName: ev.Label}
	if ev.Source < 0 {
		x.evt.Device = -1
	}
	var err error
	if app.Prog != nil {
		x.env.Reset(x, app.Prog)
		err = x.env.CallProgram(sub.prog, sub.Handler, &x.evt)
	} else {
		x.interp = eval.Evaluator{App: app.App, Bindings: app.Bindings, Host: x, StateIdx: app.StateIdx}
		err = x.interp.CallHandler(sub.Handler, &x.evt)
	}
	if err != nil {
		x.violate(PropExecError, err.Error())
	}
}

// fireTimer runs a scheduled callback: a timer firing, an external
// choice enumerated from the state's pending timers.
func (x *executor) fireTimer(appIdx int, handler string) {
	app := x.m.Apps[appIdx]
	prev := x.curApp
	x.curApp = appIdx
	defer func() { x.curApp = prev }()

	if x.record {
		x.stepf("timer fires: %s.%s()", app.App.Name, handler)
	}
	m := app.App.Methods[handler]
	if m == nil {
		return
	}
	x.evt = eval.Event{Device: -1, Name: "timer", Value: ir.StrV("fired")}
	var err error
	if app.Prog != nil {
		x.env.Reset(x, app.Prog)
		if len(m.Params) > 0 {
			err = x.env.CallHandler(handler, &x.evt)
		} else {
			_, err = x.env.CallMethodByName(handler, nil)
		}
	} else {
		x.interp = eval.Evaluator{App: app.App, Bindings: app.Bindings, Host: x, StateIdx: app.StateIdx}
		if len(m.Params) > 0 {
			err = x.interp.CallHandler(handler, &x.evt)
		} else {
			_, err = x.interp.CallMethodByName(handler, nil)
		}
	}
	if err != nil {
		x.violate(PropExecError, err.Error())
	}
}

// ---- eval.Host implementation ----

func (x *executor) DeviceAttr(dev int, attr string) (ir.Value, bool) {
	if !skipReadMark { // fault gate for the negative oracle test
		x.readDevice(dev)
	}
	if x.m.Opts.Faults && !x.s.Devices[dev].Online {
		// Stale-read indirection: while the device is offline, handlers
		// see the hub's last-reported values, not ground truth.
		return x.m.reportedValue(x.s, dev, attr)
	}
	return x.m.AttrValue(x.s, dev, attr)
}

func (x *executor) DeviceLabel(dev int) string { return x.m.Devices[dev].Label }

func (x *executor) DeviceCommand(dev int, cmd string, args []ir.Value) {
	d := x.m.Devices[dev]
	_, c := d.Model.FindCommand(cmd)
	if c == nil {
		if x.record {
			x.stepf("%s does not support command %q (ignored)", d.Label, cmd)
		}
		return
	}
	var arg int16
	if c.TakesArg && len(args) > 0 {
		arg = int16(args[0].AsInt())
	}
	if x.record {
		x.stepf("%s sends %s.%s()", x.m.Apps[x.curApp].App.Name, d.Label, cmd)
	}
	x.actuatorUpdate(dev, c, arg)
}

func (x *executor) LocationMode() string {
	x.readMode()
	return x.m.Cfg.Modes[x.s.Mode]
}

func (x *executor) SetLocationMode(mode string) {
	mi := x.m.ModeIndex(mode)
	if mi < 0 {
		if x.record {
			x.stepf("unknown location mode %q (ignored)", mode)
		}
		return
	}
	x.readMode()
	if x.s.Mode == uint8(mi) {
		return
	}
	x.s.Mode = uint8(mi)
	x.s.markHeader()
	if x.record {
		x.stepf("location.mode = %s", mode)
	}
	x.enqueue(&cyberEvent{Source: srcLocation, Attr: -1, Name: "mode", Str: mode, Label: "location"})
}

func (x *executor) Modes() []string { return x.m.Cfg.Modes }

// Now is the model's clock: a minute per external event, derived from
// the event budget and so never stored or encoded.
func (x *executor) Now() int64 {
	x.readNow()
	return int64(x.s.EventsUsed) * 60
}

func (x *executor) AppState() map[string]ir.Value {
	x.readApp(x.curApp)
	as := &x.s.Apps[x.curApp]
	if as.KV == nil {
		as.KV = map[string]ir.Value{}
	}
	// The caller holds the live map and may write through it.
	x.s.markApp(x.curApp)
	return as.KV
}

func (x *executor) StateSlot(i int) ir.Value {
	x.readApp(x.curApp)
	v := x.s.Apps[x.curApp].Slots[i]
	switch v.Kind {
	case ir.VList, ir.VDevices, ir.VMap:
		// The evaluator mutates container values in place through the
		// returned header (list element writes, map inserts), so a read
		// of a mutable kind must pessimistically dirty the block.
		x.s.markApp(x.curApp)
	}
	return v
}

func (x *executor) SetStateSlot(i int, v ir.Value) {
	x.s.Apps[x.curApp].Slots[i] = v
	x.s.markApp(x.curApp)
}

func (x *executor) SendSMS(phone string) {
	app := x.m.Apps[x.curApp]
	x.notified[x.curApp] = true
	if x.record {
		x.stepf("%s sends SMS to %q", app.App.Name, phone)
	}
	if !x.m.Opts.CheckLeakage {
		return
	}
	if !x.recipientConfigured(phone) {
		x.violate(PropLeakSMS, fmt.Sprintf(
			"%s sends SMS to %q, which is not a configured recipient", app.App.Name, phone))
	}
}

// recipientConfigured checks the SMS recipient against the system's
// phone numbers and the app's own phone-input bindings (§3: recipients
// must match the configured phone numbers or contacts).
func (x *executor) recipientConfigured(phone string) bool {
	for _, p := range x.m.Cfg.Phones {
		if p == phone {
			return true
		}
	}
	app := x.m.Apps[x.curApp]
	for _, in := range app.App.Inputs {
		if in.Kind != ir.InputPhone && in.Kind != ir.InputContact && in.Kind != ir.InputText {
			continue
		}
		if b, ok := app.Bindings[in.Name]; ok && b.Kind == ir.VStr && b.S == phone {
			return true
		}
	}
	return false
}

func (x *executor) SendPush() {
	x.notified[x.curApp] = true
	if x.record {
		x.stepf("%s sends push notification", x.m.Apps[x.curApp].App.Name)
	}
}

func (x *executor) SendNotificationToContacts() {
	x.notified[x.curApp] = true
	if x.record {
		x.stepf("%s notifies contacts", x.m.Apps[x.curApp].App.Name)
	}
}

func (x *executor) HTTPRequest(method, url string) {
	app := x.m.Apps[x.curApp]
	if x.record {
		x.stepf("%s issues %s %s", app.App.Name, method, url)
	}
	if x.m.Opts.CheckLeakage {
		x.violate(PropLeakNetwork, fmt.Sprintf(
			"%s sends data via network interface (%s %s)", app.App.Name, method, url))
	}
}

func (x *executor) Unsubscribe() {
	app := x.m.Apps[x.curApp]
	x.s.Apps[x.curApp].Unsubscribed = true
	x.s.markApp(x.curApp)
	if x.record {
		x.stepf("%s executes unsubscribe()", app.App.Name)
	}
	if x.m.Opts.CheckLeakage {
		x.violate(PropSuspUnsub, fmt.Sprintf(
			"%s executes the security-sensitive command unsubscribe at run time", app.App.Name))
	}
}

func (x *executor) SendEvent(name, value string) {
	app := x.m.Apps[x.curApp]
	if x.record {
		x.stepf("%s raises synthetic event %s=%s", app.App.Name, name, value)
	}
	if x.m.Opts.CheckLeakage && device.IsAttribute(name) {
		x.violate(PropSuspFakeEvent, fmt.Sprintf(
			"%s generates a fake %q event (value %q) with no physical cause",
			app.App.Name, name, value))
	}
	x.enqueue(&cyberEvent{Source: srcSynth, Attr: -1, Name: name, Str: value, Label: app.App.Name})
}

func (x *executor) Schedule(handler string, delaySeconds int64) {
	x.readApp(x.curApp)
	as := &x.s.Apps[x.curApp]
	for i := range as.Timers {
		if as.Timers[i].Handler == handler {
			// Delay is not encoded, but a scratch re-syncs only marked
			// blocks: the overwrite must be undone like any other write.
			as.Timers[i].Delay = delaySeconds // runIn overwrites by default
			x.s.markApp(x.curApp)
			return
		}
	}
	as.Timers = append(as.Timers, Timer{Handler: handler, Delay: delaySeconds})
	x.s.markApp(x.curApp)
	if x.record {
		x.stepf("%s schedules %s in %ds", x.m.Apps[x.curApp].App.Name, handler, delaySeconds)
	}
}

func (x *executor) Unschedule() {
	x.readApp(x.curApp)
	if len(x.s.Apps[x.curApp].Timers) > 0 {
		x.s.Apps[x.curApp].Timers = nil
		x.s.markApp(x.curApp)
	}
}

// Log output is not part of the model state or of trails.
func (x *executor) Log(level string) {}

// ---- helpers ----

func indexOf(values []string, v string) int {
	for i, x := range values {
		if x == v {
			return i
		}
	}
	return -1
}

func decodeAttr(a *device.Attribute, raw int16) ir.Value {
	if a.Numeric {
		return ir.IntV(int64(raw))
	}
	if int(raw) < len(a.Values) {
		return ir.StrV(a.Values[raw])
	}
	return ir.NullV()
}
