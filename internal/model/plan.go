package model

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"iotsan/internal/config"
	"iotsan/internal/device"
	"iotsan/internal/eval"
	"iotsan/internal/ir"
)

// Plan is the half of model generation that depends on the system's
// device list alone: the device table with its capability and
// association indexes, and the View's built-in predicates resolved
// against it. One Plan serves every model over those devices — each
// related set of one Analyze call, each candidate configuration of one
// attribution run — and the invariant catalog resolves its atoms against
// it (props.CompileCatalog) before any model exists.
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
	watch   Watch
	devKey  string

	// Counts tallies the work done against this plan; the compile-once
	// gate reads it. Prepare-time bookkeeping, written only by the
	// goroutine that prepares (PrepareApp, props.CompileCatalog).
	Counts PlanCounts
}

// PlanCounts is Plan.Counts.
type PlanCounts struct {
	Programs   int // eval.Compile runs (one per PrepareApp without the interpreter)
	AtomTables int // invariant atom tables props resolved against the device table
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
	p.watch = p.resolveViewWatch()
	return p, nil
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

// DeviceKey identifies the plan's device list by content: the id, model
// and association role of every device, in order — everything an
// invariant atom's resolution reads. Two plans prepared from equal
// device lists have equal keys, which is what lets invariants compiled
// by the one-shot props.CompileInvariants meet a model built by the
// one-shot New. See Invariant.DeviceKey.
func (p *Plan) DeviceKey() string { return p.devKey }

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
	for i, n := range names {
		a.methodIdx[n] = i
	}

	if keys, ok := eval.StateLayout(app); ok {
		a.StateKeys = keys
		a.StateIdx = make(map[string]int, len(keys))
		for i, k := range keys {
			a.StateIdx[k] = i
		}
	}
	if !interpreter {
		p.Counts.Programs++
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
// computed here: subscriptions, the external event space (it reads
// opts.RelevantAttrs), dispatch indexes, labels and the POR and symmetry
// tables. Build only reads the plan and the instances, so several
// goroutines may Build from one plan at once. opts.Interpreter is not
// consulted: each instance runs the program PrepareApp gave it.
func (p *Plan) Build(apps []*AppInst, opts Options) (*Model, error) {
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 3
	}
	m := &Model{
		Cfg: p.Cfg, Devices: p.Devices, Opts: opts,
		Apps:  make([]*AppInst, len(apps)),
		byCap: p.byCap, byAssoc: p.byAssoc, watch: p.watch,
	}
	m.decided = make([]Invariant, 0, len(opts.Invariants))
	for _, inv := range opts.Invariants {
		switch {
		case inv.DeviceKey != "" && inv.DeviceKey != p.devKey, inv.Atoms != nil && inv.Atoms.devKey != p.devKey:
			return nil, fmt.Errorf("model: invariant %s was compiled against a different device list than this model's", inv.ID)
		case inv.Atoms == nil && inv.Holds == nil, inv.Atoms != nil && inv.Over == nil:
			return nil, fmt.Errorf("model: invariant %s has nothing to evaluate", inv.ID)
		case inv.Atoms == nil:
			m.opaque = append(m.opaque, inv)
			continue
		case m.atoms != nil && m.atoms != inv.Atoms:
			return nil, fmt.Errorf("model: invariant %s is over a second atom table; a model's catalog invariants share one", inv.ID)
		}
		m.atoms = inv.Atoms
		m.decided = append(m.decided, inv)
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
	m.buildExternalEvents()
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
