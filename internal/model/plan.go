package model

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"iotsan/internal/config"
	"iotsan/internal/device"
	"iotsan/internal/eval"
	"iotsan/internal/ir"
)

// Plan is the half of model generation that depends on the system's
// device list alone: the device table with its capability and
// association indexes, and the device half of the external event space. One Plan serves
// every model over those devices — each related set of one Analyze
// call, each candidate configuration of one attribution run — and the
// invariant catalog resolves its atoms against it (props.CompileCatalog)
// before any model exists.
//
// Everything reachable from a Plan is read-only once Prepare returns,
// and everything reachable from an AppInst once PrepareApp returns, so
// concurrently built and concurrently searched models share them freely.
// The sharing rests on one fact: every model built from a Plan keeps
// every device of the system, at the same index. Device indexes are
// baked into app bindings (ir.DeviceV), compiled programs, invariant
// atoms (AttrRef) and the state layout; a change that drops a group's
// unrelated devices has to give up the shared Plan or renumber all four.
type Plan struct {
	// Cfg is the configuration the plan was prepared from. Models read
	// its modes, phones and the devices' initial values; its Apps list is
	// not consulted (Build is told which instances to install).
	Cfg     *config.System
	Devices []*DevInst

	devIdx  map[string]int
	byCap   map[string][]*DevInst
	byAssoc map[string][]*DevInst
	// devKey identifies the device list by content: the id, model and
	// association role of every device, in order — everything an atom's
	// resolution reads. Plans prepared from equal device lists have equal
	// keys, so invariants compiled by the one-shot props.CompileInvariants
	// fit a model built by the one-shot New.
	devKey string

	// devEvents is the device half of every model's external event space
	// (Algorithm 1 line 2): each value an external event can give each
	// attribute of each device, labelled and stable-sorted by label. Build
	// keeps the entries its options admit. devAttrs names the attributes
	// they set, indexed by devEvent.attr.
	devEvents []devEvent
	devAttrs  []string

	// Counts tallies the work done against this plan; the compile-once
	// gate reads it. PrepareApp and props.CompileCatalog add to it, from
	// as many goroutines at once as prepare against the plan.
	Counts PlanCounts
}

// PlanCounts is Plan.Counts.
type PlanCounts struct {
	Programs   atomic.Int64 // eval.Compile runs (one per PrepareApp without the interpreter)
	AtomTables atomic.Int64 // invariant atom tables props resolved against the device table
}

// Prepare validates cfg and builds its device table.
func Prepare(cfg *config.System) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{
		Cfg:     cfg,
		Devices: make([]*DevInst, len(cfg.Devices)),
		devIdx:  make(map[string]int, len(cfg.Devices)),
		byCap:   map[string][]*DevInst{},
		byAssoc: map[string][]*DevInst{},
	}
	var key strings.Builder
	// Devices of one model share their (immutable) schema.
	schemas := map[*device.Model]*DevInst{}
	for i, d := range cfg.Devices {
		dm := device.ModelByName(d.Model)
		inst := &DevInst{Idx: i, ID: d.ID, Label: labelOf(d), Model: dm, Assoc: d.Association}
		if first := schemas[dm]; first != nil {
			inst.Attrs, inst.attrIdx, inst.numStrs = first.Attrs, first.attrIdx, first.numStrs
		} else {
			inst.setSchema(dm.Attributes())
			schemas[dm] = inst
		}
		p.Devices[i] = inst
		p.devIdx[d.ID] = i
		for _, cn := range dm.Capabilities {
			p.byCap[cn] = append(p.byCap[cn], inst)
		}
		if d.Association != "" {
			p.byAssoc[d.Association] = append(p.byAssoc[d.Association], inst)
		}
		key.WriteString(d.ID)
		key.WriteByte(0)
		key.WriteString(d.Model)
		key.WriteByte(0)
		key.WriteString(d.Association)
		key.WriteByte(1)
	}
	p.devKey = key.String()
	p.buildDeviceEvents()
	return p, nil
}

// devEvent is one entry of Plan.devEvents: the event, the attribute it
// sets (an index into Plan.devAttrs, for Options.RelevantAttrs), and
// whether it is a user's physical interaction with an actuator, which
// only Options.UserDeviceEvents admits.
type devEvent struct {
	ExtEvent
	attr int32
	user bool
}

// buildDeviceEvents fills Plan.devEvents and Plan.devAttrs: every value
// of every sensed attribute (the generated values of a numeric one), and
// every value of an unsensed enum attribute, marked user. A first pass
// picks the attributes and sizes the table and its label text; the
// second writes every label into one string and slices the events'
// labels from it.
func (p *Plan) buildDeviceEvents() {
	type source struct {
		d    *DevInst
		ai   int
		attr int32
		user bool
	}
	var srcs []source
	n, size := 0, 0
	attrID := map[string]int32{}
	for _, d := range p.Devices {
		for ai, a := range d.Attrs {
			user := !attrIsSensed(d, a.Name)
			if user && a.Numeric {
				continue
			}
			id, ok := attrID[a.Name]
			if !ok {
				id = int32(len(p.devAttrs))
				attrID[a.Name] = id
				p.devAttrs = append(p.devAttrs, a.Name)
			}
			srcs = append(srcs, source{d, ai, id, user})
			prefix := len(d.Label) + len(". = ") + len(a.Name)
			if a.Numeric {
				n += len(a.GenValues)
				size += len(a.GenValues) * (prefix + len("-32768")) // a hint: Grow is not a cap
				continue
			}
			n += len(a.Values)
			for _, v := range a.Values {
				size += prefix + len(v)
			}
		}
	}

	evs := make([]devEvent, 0, n)
	ends := make([]int, 0, n) // ends[i] is where event i's label ends in text
	var text strings.Builder
	text.Grow(size)
	var num [20]byte
	for _, src := range srcs {
		a := &src.d.Attrs[src.ai]
		ev := devEvent{ExtEvent: ExtEvent{Kind: EvDevice, Dev: src.d.Idx, AttrIdx: src.ai}, attr: src.attr, user: src.user}
		k := len(a.Values)
		if a.Numeric {
			k = len(a.GenValues)
		}
		for vi := range k {
			text.WriteString(src.d.Label)
			text.WriteByte('.')
			text.WriteString(a.Name)
			text.WriteString(" = ")
			if a.Numeric {
				ev.Val = int16(a.GenValues[vi])
				text.Write(strconv.AppendInt(num[:0], int64(a.GenValues[vi]), 10))
			} else {
				ev.Val = int16(vi)
				text.WriteString(a.Values[vi])
			}
			evs = append(evs, ev)
			ends = append(ends, text.Len())
		}
	}
	labels, start := text.String(), 0
	for i, end := range ends {
		evs[i].Label, start = labels[start:end], end
	}

	// Sort positions, not the wide entries themselves.
	order := make([]int32, len(evs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return strings.Compare(evs[a].Label, evs[b].Label) })
	p.devEvents = make([]devEvent, len(evs))
	for i, k := range order {
		p.devEvents[i] = evs[k]
	}
}

// setSchema installs the flattened attribute schema and its derived
// lookup tables.
func (d *DevInst) setSchema(attrs []device.Attribute) {
	d.Attrs = attrs
	d.numStrs = make([][]numStr, len(attrs))
	if len(attrs) > attrScanMax {
		d.attrIdx = make(map[string]int, len(attrs))
	}
	for j, a := range attrs {
		if d.attrIdx != nil {
			d.attrIdx[a.Name] = j
		}
		if a.Numeric {
			for _, v := range append([]int{a.Default}, a.GenValues...) {
				d.numStrs[j] = append(d.numStrs[j], numStr{int16(v), strconv.FormatInt(int64(v), 10)})
			}
		}
	}
}

// ByAssociation returns the devices carrying the given association role
// (§7 device association info). The returned slice is the plan's index —
// callers must not mutate it.
func (p *Plan) ByAssociation(assoc string) []*DevInst { return p.byAssoc[assoc] }

// ByCapability returns the devices exposing a capability. The returned
// slice is the plan's index — callers must not mutate it.
func (p *Plan) ByCapability(capName string) []*DevInst { return p.byCap[capName] }

// PrepareApp resolves one installed instance against the device table:
// its bindings, dense method indexes, static state layout and — unless
// interpreter is set — its closure-compiled program. The result is the
// immutable part of an AppInst; Build gives each model that installs it
// a private header carrying the instance's position in that model.
func (p *Plan) PrepareApp(inst config.AppInstance, app *ir.App, interpreter bool) (*AppInst, error) {
	bound := map[string]ir.Value{}
	for _, in := range app.Inputs {
		b, ok := inst.Bindings[in.Name]
		if !ok {
			if in.Default.Kind != ir.VNull {
				bound[in.Name] = in.Default
			} else {
				bound[in.Name] = ir.NullV()
			}
			continue
		}
		if in.Kind == ir.InputDevice {
			var devs []ir.Value
			for _, id := range b.DeviceIDs {
				di, ok := p.devIdx[id]
				if !ok {
					return nil, fmt.Errorf("model: app %q input %q: unknown device %q", inst.App, in.Name, id)
				}
				devs = append(devs, ir.DeviceV(di))
			}
			if in.Multiple {
				bound[in.Name] = ir.DevicesV(devs)
			} else if len(devs) > 0 {
				bound[in.Name] = devs[0]
			} else {
				bound[in.Name] = ir.NullV()
			}
		} else {
			bound[in.Name] = config.BindingValue(b.Value)
		}
	}
	a := &AppInst{Idx: -1, App: app, Bindings: bound}

	names := make([]string, 0, len(app.Methods))
	for name := range app.Methods {
		names = append(names, name)
	}
	sort.Strings(names)
	a.methodNames = names
	a.methodIdx = make(map[string]int, len(names))
	a.timerLabels = make([]string, len(names))
	for i, n := range names {
		a.methodIdx[n] = i
		a.timerLabels[i] = "timer: " + app.Name + "." + n
	}

	if keys, ok := eval.StateLayout(app); ok {
		a.StateKeys = keys
		a.StateIdx = make(map[string]int, len(keys))
		for i, k := range keys {
			a.StateIdx[k] = i
		}
	}
	if !interpreter {
		p.Counts.Programs.Add(1)
		ca := eval.Compile(app, a.Bindings, a.StateIdx)
		if ca.Err == nil {
			a.Prog = ca
		}
		// On compile failure the app runs under the interpreter with the
		// same state layout — no mixed-mode execution.
	}
	return a, nil
}

// PrepareApps is PrepareApp over a list of installed instances, whose
// translations apps holds by app name.
func (p *Plan) PrepareApps(insts []config.AppInstance, apps map[string]*ir.App, interpreter bool) ([]*AppInst, error) {
	out := make([]*AppInst, len(insts))
	for i, inst := range insts {
		app := apps[inst.App]
		if app == nil {
			return nil, fmt.Errorf("model: app %q not translated", inst.App)
		}
		var err error
		if out[i], err = p.PrepareApp(inst, app, interpreter); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Build generates the model that installs apps — instances PrepareApp
// returned for this plan, in installation order — over the plan's
// devices. Only what depends on the set of installed apps or on opts is
// computed here: subscriptions, the external event space (the plan's
// device events that opts.RelevantAttrs and opts.UserDeviceEvents
// admit, plus the apps' touch, sun and mode events), dispatch indexes,
// the labels neither the plan nor the instances hold, and the POR and
// symmetry tables. Build only reads the plan and the instances, so several
// goroutines may Build from one plan at once. opts.Interpreter is not
// consulted: each instance runs the program PrepareApp gave it.
func (p *Plan) Build(apps []*AppInst, opts Options) (*Model, error) {
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 3
	}
	m := &Model{
		Cfg: p.Cfg, Devices: p.Devices, Opts: opts,
		Apps: make([]*AppInst, len(apps)),
	}
	for _, inv := range opts.Invariants {
		switch {
		case inv.Atoms == nil || inv.Over == nil:
			return nil, fmt.Errorf("model: invariant %s has nothing to evaluate", inv.ID)
		case inv.Atoms.devKey != p.devKey:
			return nil, fmt.Errorf("model: invariant %s was compiled against a different device list than this model's", inv.ID)
		case m.atoms != nil && m.atoms != inv.Atoms:
			return nil, fmt.Errorf("model: invariant %s is over a second atom table; a model's invariants share one", inv.ID)
		}
		m.atoms = inv.Atoms
	}
	m.encBufs.New = func() any {
		b := make([]byte, 0, 256)
		return &b
	}
	for i, a := range apps {
		hdr := *a
		hdr.Idx = i
		m.Apps[i] = &hdr
		m.slotTotal += len(a.StateKeys)
	}

	m.resolveSubscriptions()
	m.buildExternalEvents(p)
	m.buildDispatchIndex()
	m.buildLabels()
	m.execs.New = func() any { return m.newExecutor() }
	if opts.Design == Concurrent {
		m.buildPOR()
	}
	if opts.Symmetry {
		m.buildSymmetry()
	}
	return m, nil
}
