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
	"slices"
	"strconv"
	"strings"
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
	// (incremental.go); the transition memo and the leaf lookup run only
	// on top of it. Every product caller sets it: Analyze (unless
	// iotsan.Options.NoIncremental), the Output Analyzer and Table 9.
	// Off, the model digests by flat encode-and-hash, which only the
	// equivalence tests' oracles use.
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
	// Arenas, when non-nil, lends the memo of the first scratch a search
	// over the model makes the arenas an earlier search left, and Reclaim
	// takes them back (Arenas). The iotsan group scheduler sets it, one
	// per worker; it changes no result.
	Arenas *Arenas
}

// maxCascade bounds internal event dispatches per external event in the
// sequential design (livelock guard).
const maxCascade = 64

// Invariant is a compiled safe-physical-state property G p, true in
// every reachable state of a safe system: p is a boolean function Over
// the valuation word of an atom table (atoms.go), bit i of the word
// being Atoms.Atoms[i] on the state. All invariants of a model share one
// table, a state carries its word, and Inspect decides each distinct
// word once. The table holds device and attribute indexes, so Build
// refuses a model over any other device list than the table's: the
// indexes would read the wrong device and could report a wrong "safe".
type Invariant struct {
	ID          string
	Description string
	Atoms       *AtomTable
	Over        func(word uint64) bool
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
	// encode timer transitions into replay keys; timerLabels[i] labels
	// the firing of method i as a timer.
	methodNames []string
	methodIdx   map[string]int
	timerLabels []string
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
// which synchronise themselves, are the exceptions. Cfg and Devices are
// the Plan's, and everything an AppInst points to is PrepareApp's:
// shared with every other model of the plan, read-only.
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

	// extLabels[evIdx][fm] are the transition labels of every external
	// event under each failure mode fm > failNone, timerLabels[app][method][fm]
	// likewise for timer firings. Only Options.Failures builds them: with
	// no failure the label is ExtEvent.Label or the AppInst's (extLabel,
	// timerLabel). Precomputing them keeps fmt off the hot path.
	// dispLabels[si] are the concurrent design's dispatch labels of
	// subscription si, one per value its event can carry (see dispLabel).
	extLabels   [][4]string
	timerLabels [][][4]string
	dispLabels  [][]valueLabel
	// faultLabels[d] are the offline/online fault-transition labels per
	// device (deliver/drop labels depend on the held command and are
	// concatenated at emit time — fault transitions are rare).
	faultLabels [][2]string

	// slotTotal is the summed static state-slot count across apps.
	slotTotal int

	// atoms is the one table every invariant of Opts.Invariants is over
	// (nil without any), and verdicts the cache of what they say per
	// valuation, shared by every model of the same catalog (catalog).
	atoms    *AtomTable
	verdicts atomic.Pointer[verdictCache]

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
	EvMode                       // the user changes the location mode manually
)

// ExtEvent is one external event choice for the main loop of Algorithm 1.
type ExtEvent struct {
	Kind    ExtEventKind
	Dev     int   // device index for EvDevice
	AttrIdx int   // attribute index within the device
	Val     int16 // encoded attribute value
	AppIdx  int   // app index for EvTouch
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

// buildLabels precomputes every transition label the plan and the
// instances do not already hold (external event and timer firing ×
// failure mode under Failures, dispatch and fault labels), so the hot
// path never formats strings.
func (m *Model) buildLabels() {
	if m.Opts.Failures {
		fms := fmAll[1:]
		m.extLabels = make([][4]string, len(m.external))
		for i, ev := range m.external {
			for _, fm := range fms {
				m.extLabels[i][fm] = ev.Label + " [" + fm.String() + "]"
			}
		}
		m.timerLabels = make([][][4]string, len(m.Apps))
		for ai, app := range m.Apps {
			m.timerLabels[ai] = make([][4]string, len(app.timerLabels))
			for mi, base := range app.timerLabels {
				for _, fm := range fms {
					m.timerLabels[ai][mi][fm] = base + " [" + fm.String() + "]"
				}
			}
		}
	}
	if m.Opts.Design == Concurrent {
		m.dispLabels = make([][]valueLabel, len(m.subs))
		for si := range m.subs {
			for _, v := range m.subValues(&m.subs[si]) {
				m.dispLabels[si] = append(m.dispLabels[si], valueLabel{v, m.dispLabelOf(si, v)})
			}
		}
	}
	if m.Opts.Faults {
		m.faultLabels = make([][2]string, len(m.Devices))
		for d, di := range m.Devices {
			m.faultLabels[d][0] = "fault: " + di.Label + " goes offline"
			m.faultLabels[d][1] = "fault: " + di.Label + " back online"
		}
	}
}

// extLabel is the transition label of external event evIdx under fm.
func (m *Model) extLabel(evIdx int, fm failMode) string {
	if fm == failNone {
		return m.external[evIdx].Label
	}
	return m.extLabels[evIdx][fm]
}

// timerLabel is the transition label of app ai's method mi firing as a
// timer under fm.
func (m *Model) timerLabel(ai, mi int, fm failMode) string {
	if fm == failNone {
		return m.Apps[ai].timerLabels[mi]
	}
	return m.timerLabels[ai][mi][fm]
}

// valueLabel is the label of a transition that carries one event value.
type valueLabel struct {
	val, label string
}

// subValues lists the event values the model itself can deliver to sub:
// its value filter when it has one, else the enum values or precomputed
// numeric renderings of a device attribute, the modes, or the sun
// phases. Handler-chosen values — a synthetic event's, a number a
// command sets — are not listed.
func (m *Model) subValues(sub *resolvedSub) []string {
	if sub.Value != "" {
		return []string{sub.Value}
	}
	switch sub.Source {
	case srcLocation:
		return m.Cfg.Modes
	case srcSun:
		return []string{"sunrise", "sunset"}
	case srcApp:
		return []string{"touched"}
	}
	if sub.Source < 0 {
		return nil
	}
	d := m.Devices[sub.Source]
	ai := d.AttrIndex(sub.Attr)
	if ai < 0 {
		return nil
	}
	if !d.Attrs[ai].Numeric {
		return d.Attrs[ai].Values
	}
	var out []string
	for _, ns := range d.numStrs[ai] {
		out = append(out, ns.str)
	}
	return out
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
// permutes (Algorithm 1 line 2): the plan's device events that the
// options admit, app-touch events for apps subscribed to them,
// sunrise/sunset when subscribed, and user mode changes when enabled —
// in label order, a device event first among equal labels.
func (m *Model) buildExternalEvents(p *Plan) {
	var other []ExtEvent
	touched := map[int]bool{}
	sun := false
	for _, s := range m.subs {
		if s.Source == srcApp && !touched[s.AppIdx] {
			touched[s.AppIdx] = true
			other = append(other, ExtEvent{
				Kind: EvTouch, AppIdx: s.AppIdx,
				Label: "app touch: " + m.Apps[s.AppIdx].App.Name,
			})
		}
		if s.Source == srcSun {
			sun = true
		}
	}
	if sun {
		other = append(other,
			ExtEvent{Kind: EvSun, Val: 0, Label: "sunrise"},
			ExtEvent{Kind: EvSun, Val: 1, Label: "sunset"},
		)
	}
	if m.Opts.UserModeEvents {
		for i, mode := range m.Cfg.Modes {
			other = append(other, ExtEvent{
				Kind: EvMode, Val: int16(i),
				Label: "user sets mode " + mode,
			})
		}
	}
	slices.SortStableFunc(other, func(a, b ExtEvent) int { return strings.Compare(a.Label, b.Label) })

	// Relevance is decided once per attribute, not per event.
	relevant := make([]bool, len(p.devAttrs))
	for k, name := range p.devAttrs {
		relevant[k] = m.Opts.RelevantAttrs == nil || m.Opts.RelevantAttrs[name]
	}
	admits := func(e *devEvent) bool { return relevant[e.attr] && (!e.user || m.Opts.UserDeviceEvents) }
	n := len(other)
	for i := range p.devEvents {
		if admits(&p.devEvents[i]) {
			n++
		}
	}
	m.external = make([]ExtEvent, 0, n)
	j := 0
	for i := range p.devEvents {
		e := &p.devEvents[i]
		if !admits(e) {
			continue
		}
		for j < len(other) && other[j].Label < e.Label {
			m.external = append(m.external, other[j])
			j++
		}
		m.external = append(m.external, e.ExtEvent)
	}
	m.external = append(m.external, other[j:]...)
}

// attrIsSensed reports whether an attribute of this device generates
// external (environment) events: it belongs to a capability flagged as a
// sensor.
func attrIsSensed(d *DevInst, attr string) bool {
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
