// Package model implements IotSan's Model Generator (§8): it combines
// translated apps, the system configuration, and device models into a
// checkable transition system.
//
// The package supports both designs the paper evaluates (§8 "Concurrency
// Model"): the sequential design of Algorithm 1, where each external
// event's cascade of internal events is handled atomically in FIFO
// order, and the concurrent design, where pending handler invocations
// interleave freely (one handler execution per transition). Device and
// communication failures are modeled by enumerating sensor/actuator
// availability per external event.
package model

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"iotsan/internal/config"
	"iotsan/internal/device"
	"iotsan/internal/eval"
	"iotsan/internal/ir"
)

// Design selects the concurrency model (§8).
type Design int

// Designs.
const (
	Sequential Design = iota // Algorithm 1: atomic cascades (default)
	Concurrent               // handler-level interleaving
)

func (d Design) String() string {
	if d == Concurrent {
		return "concurrent"
	}
	return "sequential"
}

// Options configure model generation.
type Options struct {
	Design    Design
	MaxEvents int // external events per execution (paper's "number of events")
	// Failures enumerates device/communication failures: per external
	// event, the sensor may be offline or its report lost; per cascade,
	// actuator commands may be lost (§8).
	Failures bool
	// CheckConflicts enables the free-of-conflicting-commands and
	// free-of-repeated-commands properties.
	CheckConflicts bool
	// CheckLeakage enables the information-leakage and
	// security-sensitive-command properties.
	CheckLeakage bool
	// CheckRobustness enables the device-failure robustness property
	// (only meaningful with Failures).
	CheckRobustness bool
	// Invariants are the safe-physical-state monitors evaluated on every
	// reached state.
	Invariants []Invariant
	// MaxCascade bounds internal event dispatches per external event in
	// the sequential design (livelock guard).
	MaxCascade int
	// UserDeviceEvents adds physical user interaction with actuators to
	// the event space (flipping a switch by hand, using a key in a
	// lock): every enum attribute can change externally, not only those
	// of sensor capabilities. The Output Analyzer enables this so apps
	// triggered by actuator events are reachable standalone.
	UserDeviceEvents bool
	// UserModeEvents adds user-initiated location-mode changes (via the
	// companion app) to the external event space. The Output Analyzer
	// enables this so mode-triggered behaviour is reachable when the app
	// under test is verified standalone (§9 phase 1).
	UserModeEvents bool
	// InspectCascade evaluates invariants after every handler execution
	// inside a cascade (Spin-style statement-level assertion checking),
	// catching transient unsafe states that the cascade later corrects.
	// Off by default: the sequential design treats cascades as atomic.
	InspectCascade bool
	// RelevantAttrs, when non-nil, restricts external event generation
	// to the named attributes (the facade derives the set from the
	// handlers' input events, pruning sensor events no app observes).
	RelevantAttrs map[string]bool
	// Interpreter forces handler execution through the tree-walking
	// interpreter instead of the closure-compiled programs. The two are
	// observationally identical (the differential corpus test enforces
	// it); the interpreter is retained as the oracle and for debugging.
	// New hands it to PrepareApp, which is where programs are compiled.
	Interpreter bool
	// Symmetry computes device orbits at New (symmetry.go): maximal sets
	// of interchangeable devices, proved by the compile-time footprint,
	// subscription, binding, and association checks. The checker's
	// Options.Symmetry then keys its visited store on the canonical
	// (orbit-folded) state encoding. Building the table is cheap; whether
	// the canonical path is used is the checker's decision.
	Symmetry bool
	// Incremental gives every State a per-block hash cache so the
	// engine digest re-encodes only the blocks a transition dirtied
	// (incremental.go). Off by default for direct Model users; the CLI
	// layer enables it unless -incremental=false.
	Incremental bool
	// Faults enables the persistent fault-injection layer: devices can
	// go offline (suppressing their sensed events, swallowing their
	// commands into the in-flight buffer, and serving stale attribute
	// reads to handlers) and later recover; held commands are delivered
	// late or silently dropped. Orthogonal to Failures, which models
	// instantaneous per-transition losses.
	Faults bool
	// MaxFaults bounds the budgeted fault transitions per execution
	// (going offline and dropping a command each cost one; recovery and
	// delivery are free). With MaxFaults 0 the fault machinery is inert
	// and the state space is byte-identical to Faults off.
	MaxFaults int
}

func (o *Options) maxCascade() int {
	if o.MaxCascade <= 0 {
		return 64
	}
	return o.MaxCascade
}

// Invariant is a compiled safe-physical-state property, true in every
// reachable state of a safe system. It comes in two forms. A catalog
// invariant is a boolean function Over the valuation word of an atom
// table (atoms.go): all invariants of a model share one table, a state
// carries its word, and Inspect decides each distinct word once. An
// opaque invariant has only Holds, which Inspect calls on a View of
// every inspected state.
type Invariant struct {
	ID          string
	Description string
	// Holds evaluates an opaque invariant. Nil on a catalog invariant.
	Holds func(v *View) bool
	// Atoms and Over make a catalog invariant: bit i of word is
	// Atoms.Atoms[i] on the state.
	Atoms *AtomTable
	Over  func(word uint64) bool
	// DeviceKey is the Plan.DeviceKey of the device list the invariant
	// was resolved against, when it holds device and attribute indexes
	// (props). Build refuses a model over any other device list — the
	// indexes would read the wrong device and could report a wrong
	// "safe". Empty for an invariant that reads the View by name and so
	// fits any model.
	DeviceKey string
}

// DevInst is one device instance in the model.
type DevInst struct {
	Idx   int
	ID    string
	Label string
	Model *device.Model
	Assoc string
	Attrs []device.Attribute // flattened, deduplicated schema
	// attrIdx indexes Attrs by name; nil for layouts AttrIndex scans.
	attrIdx map[string]int
	// numStrs[i] caches the string form of numeric attribute i's default
	// and generated values, in that order — a handful, scanned (enum
	// attributes render from Attrs[i].Values).
	numStrs [][]numStr
}

// numStr is one precomputed rendering of a numeric attribute value.
type numStr struct {
	raw int16
	str string
}

// attrString renders an attribute value without allocating for the
// precomputed (enum and generated-numeric) cases.
func (d *DevInst) attrString(ai int, raw int16) string {
	a := &d.Attrs[ai]
	if !a.Numeric {
		if int(raw) < len(a.Values) {
			return a.Values[raw]
		}
		return "null"
	}
	for i := range d.numStrs[ai] {
		if ns := &d.numStrs[ai][i]; ns.raw == raw {
			return ns.str
		}
	}
	return strconv.FormatInt(int64(raw), 10)
}

// attrScanMax is the widest layout AttrIndex scans instead of hashing.
const attrScanMax = 8

// AttrIndex returns the index of attr in the instance's layout, or -1.
// Device layouts are small (a few attributes), so a linear scan beats
// hashing the key; the map covers unusually wide layouts.
func (d *DevInst) AttrIndex(attr string) int {
	if len(d.Attrs) <= attrScanMax {
		for i := range d.Attrs {
			if d.Attrs[i].Name == attr {
				return i
			}
		}
		return -1
	}
	if i, ok := d.attrIdx[attr]; ok {
		return i
	}
	return -1
}

// AppInst is one installed app instance with resolved bindings, its
// static state layout, and its closure-compiled programs.
type AppInst struct {
	Idx      int
	App      *ir.App
	Bindings map[string]ir.Value

	// StateKeys/StateIdx are the static persistent-state layout from
	// eval.StateLayout (nil StateIdx = dynamic, KV map retained).
	StateKeys []string
	StateIdx  map[string]int

	// Prog holds the closure-compiled methods; nil when compilation
	// fell back to the interpreter (or Options.Interpreter is set).
	Prog *eval.CompiledApp

	// methodNames/methodIdx give every method a dense index, used to
	// encode timer transitions into replay keys.
	methodNames []string
	methodIdx   map[string]int
}

// Subscription sources.
const (
	srcLocation = -1 // location mode events
	srcApp      = -2 // app touch events
	srcSun      = -3 // sunrise/sunset environment events
	srcTimer    = -4 // timer callbacks
	srcSynth    = -5 // synthetic sendEvent events
)

// resolvedSub is a flattened subscription: which handler of which app a
// given event reaches.
type resolvedSub struct {
	AppIdx  int
	Handler string
	Source  int // device index or one of the src* pseudo-sources
	Attr    string
	Value   string // event value filter, "" = any
	// prog is Handler in the app's compiled program, resolved at Build;
	// nil under the interpreter and for a handler the app does not define.
	prog *eval.Program
}

// Model is the generated system model. It is immutable once Build
// returns: verification reads it from many goroutines (the steal
// checker strategy), so any new field must be fully resolved during
// Build rather than filled in lazily — the pools and the verdict cache,
// which synchronise themselves, are the exceptions. Cfg, Devices, the
// byCap/byAssoc indexes and watch are the Plan's, and everything an
// AppInst points to is PrepareApp's: shared with every other model of
// the plan, read-only.
type Model struct {
	// Cfg is the plan's configuration: the whole system. Apps, not
	// Cfg.Apps, says which instances this model installs.
	Cfg     *config.System
	Devices []*DevInst
	Apps    []*AppInst
	Opts    Options

	subs     []resolvedSub
	external []ExtEvent

	// Dispatch indexes, precomputed at New so event delivery never
	// scans the full subscription table; each lists subscription indices
	// in table order:
	//   devSubs  [device][schema index] → subscriptions on that attribute
	//   subIdx   (pseudo-source, name) → subscriptions (mode, sun)
	//   synthIdx attr → device-sourced subscriptions (sendEvent fakes)
	//   touchIdx app → its app-touch subscriptions
	devSubs  [][][]int32
	subIdx   map[subKey][]int32
	synthIdx map[string][]int32
	touchIdx [][]int32

	// extLabels[evIdx][fm] are the transition labels for every external
	// event × failure mode; timerLabels[app][method][fm] likewise for
	// timer firings. Precomputing them keeps fmt off the hot path.
	// dispPre/dispPost[si] sandwich the runtime event value in a
	// concurrent-design dispatch label ("dispatch attr/" + value + " to
	// App.handler").
	extLabels   [][4]string
	timerLabels [][][4]string
	dispPre     []string
	dispPost    []string
	// faultLabels[d] are the offline/online fault-transition labels per
	// device (deliver/drop labels depend on the held command and are
	// concatenated at emit time — fault transitions are rare).
	faultLabels [][2]string

	// slotTotal is the summed static state-slot count across apps.
	slotTotal int

	// byCap/byAssoc index the (immutable) device inventory by capability
	// and association role (the Plan's indexes).
	byCap   map[string][]*DevInst
	byAssoc map[string][]*DevInst

	// watch holds the View's built-in predicates resolved to state
	// indexes (see view.go), once per Plan.
	watch Watch

	// Opts.Invariants split by form (see Invariant): decided are the
	// catalog invariants, all over the one table atoms (nil without any),
	// with verdicts caching what they say per valuation; opaque are
	// evaluated per state.
	atoms    *AtomTable
	decided  []Invariant
	opaque   []Invariant
	verdicts verdictCache

	// execs pools executors (with their compiled-execution Envs) for
	// Expand and Replay, which draw one per call; a Scratch owns its
	// executor outright.
	execs sync.Pool

	// serials numbers the states Initial and Scratch.Keep hand out (see
	// State.serial); scratches draw from it in blocks.
	serials atomic.Uint64

	// encBufs pools the incremental digest's block-encode scratch
	// buffers (refreshing a dirty block re-encodes just that block into
	// one of these).
	encBufs sync.Pool

	// statePool is the free-list of dead states the checker hands back
	// (checker.StateRecycler): Clone reuses their backing storage, which
	// removes most per-child allocation on the expansion hot path. Zero
	// value works — Get simply returns nil until something is recycled.
	statePool sync.Pool

	// trPool is the matching free-list of successor-slice backing
	// arrays (checker.TransitionRecycler): the engine's eager adapter
	// returns each consumed Expand result and Expand reuses it.
	trPool sync.Pool

	// por is the partial-order-reduction table (concurrent design only;
	// nil otherwise). Built at New; consulted only when the checker runs
	// with Options.POR.
	por *porData

	// sym is the symmetry-reduction table (non-nil only when
	// Options.Symmetry found at least one non-trivial device orbit).
	// Built at New; consulted by CanonicalEncode, which the checker
	// routes its visited-store digests through under its own
	// Options.Symmetry.
	sym *symData
}

// subKey indexes the subscriptions on a pseudo-source by event name.
type subKey struct {
	src  int32
	attr string
}

// ExtEventKind classifies externally generated events.
type ExtEventKind int

// External event kinds.
const (
	EvDevice ExtEventKind = iota // physical event sensed by a device
	EvTouch                      // user taps the app
	EvSun                        // sunrise/sunset
	EvTimer                      // a scheduled timer fires (dynamic)
	EvMode                       // the user changes the location mode manually
)

// ExtEvent is one external event choice for the main loop of Algorithm 1.
type ExtEvent struct {
	Kind    ExtEventKind
	Dev     int    // device index for EvDevice
	AttrIdx int    // attribute index within the device
	Val     int16  // encoded attribute value
	AppIdx  int    // app index for EvTouch / EvTimer
	Handler string // for EvTimer
	Label   string
}

// New generates a model from a validated configuration and the
// translated apps (keyed by app name). It is the one-shot form of the
// plan API (plan.go): prepare this system, prepare every installed
// instance, build all of them.
func New(cfg *config.System, apps map[string]*ir.App, opts Options) (*Model, error) {
	p, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	insts, err := p.PrepareApps(cfg.Apps, apps, opts.Interpreter)
	if err != nil {
		return nil, err
	}
	return p.Build(insts, opts)
}

// buildDispatchIndex precomputes the event → subscriptions indexes
// replacing linear scans of the subscription table during event
// delivery. Per-key lists preserve table order, so dispatch order is
// identical to the scans it replaces. A device subscription on an
// attribute its device's schema lacks is reachable by sendEvent only.
func (m *Model) buildDispatchIndex() {
	nattrs := 0
	for _, dev := range m.Devices {
		nattrs += len(dev.Attrs)
	}
	flat := make([][]int32, nattrs) // one backing for every device's row
	m.devSubs = make([][][]int32, len(m.Devices))
	for d, dev := range m.Devices {
		m.devSubs[d], flat = flat[:len(dev.Attrs):len(dev.Attrs)], flat[len(dev.Attrs):]
	}
	m.subIdx = map[subKey][]int32{}
	m.synthIdx = map[string][]int32{}
	m.touchIdx = make([][]int32, len(m.Apps))
	for si, sub := range m.subs {
		switch {
		case sub.Source >= 0:
			if ai := m.Devices[sub.Source].AttrIndex(sub.Attr); ai >= 0 {
				m.devSubs[sub.Source][ai] = append(m.devSubs[sub.Source][ai], int32(si))
			}
			m.synthIdx[sub.Attr] = append(m.synthIdx[sub.Attr], int32(si))
		case sub.Source == srcApp:
			m.touchIdx[sub.AppIdx] = append(m.touchIdx[sub.AppIdx], int32(si))
		default:
			k := subKey{src: int32(sub.Source), attr: sub.Attr}
			m.subIdx[k] = append(m.subIdx[k], int32(si))
		}
	}
}

// subsFor returns the subscription indices an event can reach before
// value filtering: for a device attribute change — which always carries
// its schema index — two indexings, no hashing; for a synthetic
// sendEvent event, which impersonates devices, every device-sourced
// subscription on the attribute; else the pseudo-source's by name.
func (m *Model) subsFor(ev *cyberEvent) []int32 {
	switch {
	case ev.Attr >= 0:
		return m.devSubs[ev.Source][ev.Attr]
	case ev.Source == srcSynth:
		return m.synthIdx[ev.Name]
	}
	return m.subIdx[subKey{src: int32(ev.Source), attr: ev.Name}]
}

// buildLabels precomputes every transition label (external event ×
// failure mode, and timer × method × failure mode), so the hot path
// never formats strings.
func (m *Model) buildLabels() {
	fms := []failMode{failNone, failSensorOff, failSensorComm, failActuators}
	m.extLabels = make([][4]string, len(m.external))
	for i, ev := range m.external {
		m.extLabels[i][0] = ev.Label
		for _, fm := range fms[1:] {
			m.extLabels[i][fm] = ev.Label + " [" + fm.String() + "]"
		}
	}
	m.timerLabels = make([][][4]string, len(m.Apps))
	for ai, app := range m.Apps {
		m.timerLabels[ai] = make([][4]string, len(app.methodNames))
		for mi, name := range app.methodNames {
			base := "timer: " + app.App.Name + "." + name
			m.timerLabels[ai][mi][0] = base
			for _, fm := range fms[1:] {
				m.timerLabels[ai][mi][fm] = base + " [" + fm.String() + "]"
			}
		}
	}
	m.dispPre = make([]string, len(m.subs))
	m.dispPost = make([]string, len(m.subs))
	for si, sub := range m.subs {
		m.dispPre[si] = "dispatch " + sub.Attr + "/"
		m.dispPost[si] = " to " + m.Apps[sub.AppIdx].App.Name + "." + sub.Handler
	}
	if m.Opts.Faults {
		m.faultLabels = make([][2]string, len(m.Devices))
		for d, di := range m.Devices {
			m.faultLabels[d][0] = "fault: " + di.Label + " goes offline"
			m.faultLabels[d][1] = "fault: " + di.Label + " back online"
		}
	}
}

func labelOf(d config.Device) string {
	if d.Label != "" {
		return d.Label
	}
	return d.ID
}

// resolveSubscriptions flattens app subscriptions to (source, attr,
// value) → handler entries, each with its compiled handler looked up. A
// subscription on a multi-device input yields one entry per bound device.
func (m *Model) resolveSubscriptions() {
	for _, app := range m.Apps {
		for _, sub := range app.App.Subscriptions {
			switch sub.Source {
			case "location":
				switch sub.Attribute {
				case "sunrise", "sunset", "sunriseTime", "sunsetTime":
					m.subs = append(m.subs, resolvedSub{
						AppIdx: app.Idx, Handler: sub.Handler, Source: srcSun,
						Attr: "sun", Value: trimTime(sub.Attribute),
					})
				default:
					m.subs = append(m.subs, resolvedSub{
						AppIdx: app.Idx, Handler: sub.Handler, Source: srcLocation,
						Attr: "mode", Value: sub.Value,
					})
				}
			case "app":
				m.subs = append(m.subs, resolvedSub{
					AppIdx: app.Idx, Handler: sub.Handler, Source: srcApp, Attr: "touch",
				})
			default:
				bound := app.Bindings[sub.Source]
				for _, dv := range devicesOf(bound) {
					m.subs = append(m.subs, resolvedSub{
						AppIdx: app.Idx, Handler: sub.Handler, Source: dv,
						Attr: sub.Attribute, Value: sub.Value,
					})
				}
			}
		}
	}
	for i := range m.subs {
		if prog := m.Apps[m.subs[i].AppIdx].Prog; prog != nil {
			m.subs[i].prog = prog.Methods[m.subs[i].Handler]
		}
	}
}

func trimTime(s string) string {
	if s == "sunriseTime" {
		return "sunrise"
	}
	if s == "sunsetTime" {
		return "sunset"
	}
	return s
}

func devicesOf(v ir.Value) []int {
	switch v.Kind {
	case ir.VDevice:
		return []int{v.Dev()}
	case ir.VDevices, ir.VList:
		var out []int
		for _, e := range v.L() {
			if e.Kind == ir.VDevice {
				out = append(out, e.Dev())
			}
		}
		return out
	}
	return nil
}

// buildExternalEvents enumerates the physical event space the main loop
// permutes (Algorithm 1 line 2): every sensor attribute value of every
// sensor device, app-touch events for apps subscribed to them, and
// sunrise/sunset when subscribed.
func (m *Model) buildExternalEvents() {
	for _, d := range m.Devices {
		for ai, a := range d.Attrs {
			if !m.attrIsSensed(d, a.Name) {
				if !m.Opts.UserDeviceEvents || a.Numeric {
					continue
				}
			}
			if m.Opts.RelevantAttrs != nil && !m.Opts.RelevantAttrs[a.Name] {
				continue
			}
			if a.Numeric {
				for _, gv := range a.GenValues {
					m.external = append(m.external, ExtEvent{
						Kind: EvDevice, Dev: d.Idx, AttrIdx: ai, Val: int16(gv),
						Label: fmt.Sprintf("%s.%s = %d", d.Label, a.Name, gv),
					})
				}
			} else {
				for vi, v := range a.Values {
					m.external = append(m.external, ExtEvent{
						Kind: EvDevice, Dev: d.Idx, AttrIdx: ai, Val: int16(vi),
						Label: fmt.Sprintf("%s.%s = %s", d.Label, a.Name, v),
					})
				}
			}
		}
	}
	touched := map[int]bool{}
	sun := false
	for _, s := range m.subs {
		if s.Source == srcApp && !touched[s.AppIdx] {
			touched[s.AppIdx] = true
			m.external = append(m.external, ExtEvent{
				Kind: EvTouch, AppIdx: s.AppIdx,
				Label: fmt.Sprintf("app touch: %s", m.Apps[s.AppIdx].App.Name),
			})
		}
		if s.Source == srcSun {
			sun = true
		}
	}
	if sun {
		m.external = append(m.external,
			ExtEvent{Kind: EvSun, Val: 0, Label: "sunrise"},
			ExtEvent{Kind: EvSun, Val: 1, Label: "sunset"},
		)
	}
	if m.Opts.UserModeEvents {
		for i, mode := range m.Cfg.Modes {
			m.external = append(m.external, ExtEvent{
				Kind: EvMode, Val: int16(i),
				Label: "user sets mode " + mode,
			})
		}
	}
	sort.SliceStable(m.external, func(i, j int) bool {
		return m.external[i].Label < m.external[j].Label
	})
}

// attrIsSensed reports whether an attribute of this device generates
// external (environment) events: it belongs to a capability flagged as a
// sensor.
func (m *Model) attrIsSensed(d *DevInst, attr string) bool {
	for _, cn := range d.Model.Capabilities {
		c := device.CapabilityByName(cn)
		if c.Sensor && c.Attribute(attr) != nil {
			return true
		}
	}
	return false
}

// ExternalEvents exposes the enumerated event space (for diagnostics).
func (m *Model) ExternalEvents() []ExtEvent { return m.external }

// ModeIndex returns the index of a mode name in the configuration,
// adding semantics for unknown modes (clamped to existing).
func (m *Model) ModeIndex(mode string) int {
	for i, x := range m.Cfg.Modes {
		if x == mode {
			return i
		}
	}
	return -1
}
