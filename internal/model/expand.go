package model

import (
	"fmt"
	"slices"

	"iotsan/internal/checker"
)

// System adapts the model to the checker's transition-system interface.
//
// The adapter satisfies the checker's concurrency contract: a Model is
// immutable after New (subscriptions, the external event space, the
// device registry, and the compiled programs are all resolved at
// construction), and Expand/Inspect mutate only executor-local data and
// fresh clones of the argument state. The steal checker strategy may
// therefore call Expand and Inspect concurrently on distinct states.
//
// The adapter also implements checker.Replayer: transitions are emitted
// in lazy-trail form (precomputed label, no step log, a replay key),
// and the micro-steps are regenerated by deterministic re-execution
// only when a counter-example trail is materialized.
//
// And it implements checker.Stepper, which is how the engine actually
// generates successors: Enabled lists a state's transitions as stubs,
// Step runs one of them in the calling worker's Scratch, and Keep
// clones the result out only when the visited store admitted it (see
// scratch.go). Predict lets the engine skip the Step of a successor
// whose digest a scratch's transition memo can tell, and the Step that
// confirms a prediction is served from the same memo: once an entry's
// first confirming Step has run for real, later ones splice the blocks
// it wrote onto the parent and run no handler (memo.go), and InspectLeaf
// answers for a predicted leaf with no Step at all (leaf.go). The model's
// reducer reads only len(trs) and the state, as the hook requires.
func (m *Model) System() checker.System { return sysAdapter{m} }

type sysAdapter struct{ m *Model }

func (a sysAdapter) Initial() checker.State { return a.m.Initial() }

func (a sysAdapter) Expand(s checker.State) []checker.Transition {
	return a.m.Expand(s.(*State))
}

func (a sysAdapter) Enabled(s checker.State, buf []checker.Transition) []checker.Transition {
	return a.m.Enabled(s.(*State), buf)
}

func (a sysAdapter) NewScratch() checker.Scratch { return a.m.NewScratch() }

func (a sysAdapter) Step(sc checker.Scratch, parent checker.State, stub *checker.Transition) (tr checker.Transition) {
	sc.(*Scratch).step(parent.(*State), stub, &tr)
	return tr
}

func (a sysAdapter) Keep(sc checker.Scratch, _ checker.State) checker.State {
	return sc.(*Scratch).Keep()
}

// Predict implements checker.Predictor through the scratch's transition
// memo (memo.go).
func (a sysAdapter) Predict(sc checker.Scratch, parent checker.State, stub *checker.Transition) (uint64, uint64, []checker.Violation, bool) {
	return sc.(*Scratch).Predict(parent.(*State), stub)
}

// InspectLeaf implements checker.Predictor's leaf lookup (leaf.go).
func (a sysAdapter) InspectLeaf(sc checker.Scratch, parent checker.State) ([]checker.Violation, bool) {
	return sc.(*Scratch).InspectLeaf(parent.(*State))
}

func (a sysAdapter) Inspect(s checker.State) []checker.Violation {
	return a.m.Inspect(s.(*State))
}

func (a sysAdapter) Replay(from checker.State, key uint64) (string, []string, checker.State) {
	return a.m.Replay(from.(*State), key)
}

// Reduce implements checker.Reducer: partial-order reduction over the
// concurrent design's pending-dispatch interleavings (see por.go).
func (a sysAdapter) Reduce(s checker.State, trs []checker.Transition) []int {
	return a.m.Reduce(s.(*State), trs)
}

// CanonicalEncode implements checker.CanonicalEncoder: the symmetry
// layer's orbit-folded state encoding (see symmetry.go). Without a
// symmetry table it degrades to the raw encoding, so the checker may
// hold Options.Symmetry unconditionally.
func (a sysAdapter) CanonicalEncode(s checker.State, buf []byte) []byte {
	return a.m.CanonicalEncode(s.(*State), buf)
}

// HasSymmetry reports whether the model computed any non-trivial
// device orbit — when false, CanonicalEncode is the identity and the
// checker skips the canonical path entirely.
func (a sysAdapter) HasSymmetry() bool { return a.m.sym != nil }

// IncrementalDigest implements checker.IncrementalDigester: the
// block-hash digest over the state's incremental cache (see
// incremental.go).
func (a sysAdapter) IncrementalDigest(s checker.State, canonical bool) (uint64, uint64) {
	return a.m.IncrementalDigest(s.(*State), canonical)
}

// HasIncremental reports whether states carry the block-hash cache
// (Options.Incremental) — when false, the checker keeps the flat
// encode-and-hash digest.
func (a sysAdapter) HasIncremental() bool { return a.m.Opts.Incremental }

// Recycle implements checker.StateRecycler: dead states go onto the
// model's free-list and Clone reuses their backing storage.
//
//iotsan:retires s
func (a sysAdapter) Recycle(s checker.State) {
	if st, ok := s.(*State); ok && st.pool != nil {
		st.pool.Put(st)
	}
}

// RecycleTransitions implements checker.TransitionRecycler: consumed
// successor slices feed later Expand calls. Entries are overwritten by
// append, so only the backing array survives the handoff.
//
//iotsan:retires trs
func (a sysAdapter) RecycleTransitions(trs []checker.Transition) {
	if cap(trs) == 0 {
		return
	}
	trs = trs[:0]
	a.m.trPool.Put(&trs)
}

// CertifiesProgress implements checker.ProgressCertifier. The reducer's
// subsets consist solely of pure-local dispatches in the queue-drain
// phase. Each such dispatch strictly shrinks the pending queue (a pure
// handler enqueues nothing), EventsUsed is frozen in that phase, and by
// the spawn-threat side condition no remaining transition can enqueue a
// subset class again — so the count of subset-class pending entries is
// a well-founded measure that every subset transition decreases and no
// other transition increases. Fault transitions preserve the measure
// too: outages, recoveries, and drops enqueue nothing, and a delivery
// can only enqueue trigger-closure classes, which the reducer's
// fault-threat side condition keeps disjoint from every subset. No
// cycle of the reduced graph can traverse a subset transition, so the
// checker needs no visited-state proviso (see por.go). The root
// walker's progress check measures exactly this on every reduced
// expansion it meets.
func (a sysAdapter) CertifiesProgress() bool { return true }

// Replay keys identify a transition of a given source state: the
// external-event/failure-mode choice, a timer firing, a pending
// dispatch (concurrent design), or a fault transition. Bit 63 marks a
// valid key so the zero value stays "no key".
const (
	keyMark     = uint64(1) << 63
	keyKindPos  = 61
	keyKindFlt  = uint64(0)
	keyKindExt  = uint64(1)
	keyKindTmr  = uint64(2)
	keyKindDisp = uint64(3)
)

// Fault sub-operations, encoded in bits 59-60 of a kind-0 replay key.
// The payload (bits 0-58) is the device index for offline/online and
// the positional in-flight index for deliver/drop — positional like
// dispKey, and stable because replay re-expands from the same state.
const (
	fltOffline = 0 // device goes offline (costs 1 fault)
	fltOnline  = 1 // device comes back online, reports resync (free)
	fltDeliver = 2 // held command delivered to its now-online target (free)
	fltDrop    = 3 // held command silently dropped (costs 1 fault)
)

func extKey(evIdx int, fm failMode) uint64 {
	return keyMark | keyKindExt<<keyKindPos | uint64(evIdx)<<2 | uint64(fm)
}

func tmrKey(appIdx, methodIdx int, fm failMode) uint64 {
	return keyMark | keyKindTmr<<keyKindPos | uint64(appIdx)<<32 | uint64(methodIdx)<<2 | uint64(fm)
}

func dispKey(i int) uint64 {
	return keyMark | keyKindDisp<<keyKindPos | uint64(i)
}

func fltKey(op, idx int) uint64 {
	return keyMark | keyKindFlt<<keyKindPos | uint64(op)<<59 | uint64(idx)
}

// tmrKeyless names a timer firing whose scheduled handler is not a
// method of the app — it has no methodIdx to put in a replay key — by
// the timer's position in the app's pending list. The mark bit stays
// clear: the key identifies the stub to Step, which returns the
// transition with Key 0 and its steps recorded, and Replay rejects it.
func tmrKeyless(appIdx, pos int, fm failMode) uint64 {
	return keyKindTmr<<keyKindPos | uint64(appIdx)<<32 | uint64(pos)<<2 | uint64(fm)
}

// Enabled appends one stub per enabled transition of s to out, in the
// order Expand returns them: Label, Key and Fault set, Next nil. It is
// the non-deterministic choice of the next external physical event
// (Algorithm 1 line 2), crossed with failure scenarios when enabled; in
// the concurrent design, also the choice of which pending handler
// invocation to dispatch next. Nothing is executed: step runs the one
// cascade a stub names. A buffer without capacity is allocated once,
// at stubBound, rather than grown by doubling from empty.
func (m *Model) Enabled(s *State, out []checker.Transition) []checker.Transition {
	if cap(out) == 0 {
		out = make([]checker.Transition, 0, m.stubBound(s))
	}
	if m.Opts.Design == Concurrent {
		// Interleaving choices: dispatch any pending handler invocation.
		for i := range s.Queue {
			out = appendStub(out, m.dispLabel(s.Queue[i]), dispKey(i), false)
		}
	}

	if m.Opts.Faults {
		// Fault transitions come right after the dispatches — before the
		// event-budget cutoff, so outages can still resolve (delivery or
		// drop of held commands) in the drain phase. The POR layer relies
		// on this layout: transitions 0..len(Queue)-1 are dispatches,
		// then the fault choices.
		out = m.appendFaultStubs(s, out)
	}

	if s.EventsUsed >= m.Opts.MaxEvents {
		return out
	}

	fms := fmNone[:]
	if m.Opts.Failures {
		fms = fmAll[:]
	}

	for evIdx := range m.external {
		ev := &m.external[evIdx]
		if ev.Kind == EvDevice {
			// Skip non-events: the generated value equals the current one.
			if s.Devices[ev.Dev].Attrs[ev.AttrIdx] == ev.Val {
				continue
			}
		}
		if ev.Kind == EvMode && s.Mode == uint8(ev.Val) {
			continue
		}
		for _, fm := range fms {
			if ev.Kind != EvDevice && (fm == failSensorOff || fm == failSensorComm) {
				continue // sensor failures apply to sensed events only
			}
			out = appendStub(out, m.extLabel(evIdx, fm), extKey(evIdx, fm), false)
		}
	}

	// Scheduled timers are external choices too: they may fire at any
	// point between other events.
	for ai := range s.Apps {
		for ti, t := range s.Apps[ai].Timers {
			mi, ok := m.Apps[ai].methodIdx[t.Handler]
			for _, fm := range fms {
				if fm == failSensorOff || fm == failSensorComm {
					continue
				}
				if ok {
					out = appendStub(out, m.timerLabel(ai, mi, fm), tmrKey(ai, mi, fm), false)
				} else {
					out = appendStub(out, m.keylessTimerLabel(ai, t.Handler, fm), tmrKeyless(ai, ti, fm), false)
				}
			}
		}
	}
	return out
}

// stubBound is an upper bound on the stubs Enabled lists for s: every
// dispatch and fault choice that applies, and, below the event bound,
// every external event and timer crossed with every failure mode.
func (m *Model) stubBound(s *State) int {
	n := 0
	if m.Opts.Design == Concurrent {
		n += len(s.Queue)
	}
	if m.Opts.Faults {
		n += len(s.Devices) + 2*len(s.InFlight)
	}
	if s.EventsUsed < m.Opts.MaxEvents {
		timers := 0
		for ai := range s.Apps {
			timers += len(s.Apps[ai].Timers)
		}
		fms := len(fmNone)
		if m.Opts.Failures {
			fms = len(fmAll)
		}
		n += (len(m.external) + timers) * fms
	}
	return n
}

// appendStub appends one stub, written in place: a Transition is twelve
// words, and building one to copy it in is most of what a stub costs.
func appendStub(out []checker.Transition, label string, key uint64, fault bool) []checker.Transition {
	out = slices.Grow(out, 1)[:len(out)+1]
	tr := &out[len(out)-1]
	tr.Label, tr.Key, tr.Fault = label, key, fault
	tr.Steps, tr.Next, tr.Violations = nil, nil, nil
	return out
}

var (
	fmNone = [1]failMode{failNone}
	fmAll  = [4]failMode{failNone, failSensorOff, failSensorComm, failActuators}
)

// appendFaultStubs enumerates the persistent-fault choices of a state:
// any online device may go offline (budget permitting), any offline
// device may recover, and any held command may be delivered to its
// recovered target or silently dropped (budget permitting).
func (m *Model) appendFaultStubs(s *State, out []checker.Transition) []checker.Transition {
	stub := func(op, idx int) {
		out = appendStub(out, m.faultLabel(s, op, idx), fltKey(op, idx), true)
	}
	budget := int(s.FaultsUsed) < m.Opts.MaxFaults
	for d := range s.Devices {
		if s.Devices[d].Online {
			if budget {
				stub(fltOffline, d)
			}
		} else {
			stub(fltOnline, d)
		}
	}
	for i := range s.InFlight {
		if s.Devices[s.InFlight[i].Dev].Online {
			stub(fltDeliver, i)
		}
		if budget {
			stub(fltDrop, i)
		}
	}
	return out
}

// Labels that are not precomputed at New: they depend on the state (the
// queued event value, the held command) or are rare enough to assemble
// on demand. Enabled puts them in the stub and step reuses the stub's,
// so a transition assembles its label once.

// dispLabel is the label of dispatching p: interned at Build for every
// value subValues lists, concatenated for any other.
func (m *Model) dispLabel(p Pending) string {
	for _, l := range m.dispLabels[p.SubIdx] {
		if l.val == p.Raw {
			return l.label
		}
	}
	return m.dispLabelOf(p.SubIdx, p.Raw)
}

func (m *Model) dispLabelOf(si int, raw string) string {
	sub := &m.subs[si]
	return "dispatch " + sub.Attr + "/" + raw + " to " + m.Apps[sub.AppIdx].App.Name + "." + sub.Handler
}

func (m *Model) keylessTimerLabel(appIdx int, handler string, fm failMode) string {
	label := "timer: " + m.Apps[appIdx].App.Name + "." + handler
	if fm != failNone {
		label += " [" + fm.String() + "]"
	}
	return label
}

func (m *Model) faultLabel(s *State, op, idx int) string {
	switch op {
	case fltOffline:
		return m.faultLabels[idx][0]
	case fltOnline:
		return m.faultLabels[idx][1]
	}
	rec := s.InFlight[idx]
	verb := "fault: deliver "
	if op == fltDrop {
		verb = "fault: drop "
	}
	return verb + m.Devices[rec.Dev].Label + "." + rec.Cmd + "()"
}

// step executes the transition key names on ns — a state whose content
// equals the source state's: a fresh clone of it (Expand, Replay) or a
// scratch synced to it (Scratch.Step) — with x as the executor, and
// writes the transition to *tr (an out-parameter: a Transition is
// twelve words, and this is the per-successor path). label is the
// stub's label, or "" to have it assembled here (Replay knows only the
// key). The transition's Next is ns, and its Violations are lent from
// x. It reports false, with ns and *tr untouched, when key does not
// name a transition of that state.
//
// ns also starts out with the source state's atom valuation; whatever
// the transition wrote, the atoms reading it are stale on ns afterwards
// (AtomTable.staleTouched) — here, for the scratch, Expand and Replay
// alike, so that no path hands out a successor carrying its parent's
// word as fresh.
func (m *Model) step(ns *State, x *executor, key uint64, label string, record bool, tr *checker.Transition) bool {
	ok := m.apply(ns, x, key, label, record, tr)
	if ok && m.atoms != nil {
		m.atoms.staleTouched(ns, ns.dirtyMask)
	}
	return ok
}

func (m *Model) apply(ns *State, x *executor, key uint64, label string, record bool, tr *checker.Transition) bool {
	fm := failMode(key & 3)
	switch key >> keyKindPos & 3 {
	case keyKindTmr:
		// Checked before the mark bit: a keyless timer stub carries none.
		appIdx := int(key >> 32 & (1<<29 - 1))
		idx := int(key >> 2 & (1<<30 - 1))
		if appIdx >= len(m.Apps) {
			break
		}
		if key&keyMark == 0 {
			if idx >= len(ns.Apps[appIdx].Timers) {
				break
			}
			m.applyTimer(ns, x, appIdx, ns.Apps[appIdx].Timers[idx].Handler, -1, fm, label, record, tr)
			return true
		}
		if idx >= len(m.Apps[appIdx].methodNames) {
			break
		}
		m.applyTimer(ns, x, appIdx, m.Apps[appIdx].methodNames[idx], idx, fm, label, record, tr)
		return true
	case keyKindExt:
		evIdx := int(key >> 2 & (1<<59 - 1))
		if key&keyMark == 0 || evIdx >= len(m.external) {
			break
		}
		m.applyExternal(ns, x, evIdx, fm, record, tr)
		return true
	case keyKindDisp:
		i := int(key & (1<<61 - 1))
		if key&keyMark == 0 || i >= len(ns.Queue) {
			break
		}
		m.dispatchPending(ns, x, i, label, record, tr)
		return true
	case keyKindFlt:
		op := int(key >> 59 & 3)
		idx := int(key & (1<<59 - 1))
		if key&keyMark == 0 {
			break
		}
		if op == fltOffline || op == fltOnline {
			if idx >= len(ns.Devices) {
				break
			}
		} else if idx >= len(ns.InFlight) {
			break
		}
		m.applyFault(ns, x, op, idx, label, record, tr)
		return true
	}
	return false
}

// Expand returns the successor transitions of a state, each executed on
// its own fresh clone: Enabled, then step into s.Clone() per stub. The
// search engine does not come through here — it steps one successor at
// a time into a worker's Scratch and clones only the states its store
// admits — but Expand is the reference every walk oracle and the
// engine's eager adapter use, and it shares nothing with the scratch
// re-sync: a mark the scratch path misses shows up as a difference
// between the two.
func (m *Model) Expand(s *State) []checker.Transition {
	var out []checker.Transition
	if v := m.trPool.Get(); v != nil {
		out = (*v.(*[]checker.Transition))[:0]
	}
	out = m.Enabled(s, out)
	x := m.execs.Get().(*executor)
	for i := range out {
		tr := &out[i] // the result overwrites its stub
		m.step(s.Clone(), x, tr.Key, tr.Label, false, tr)
		tr.Violations = append([]checker.Violation(nil), tr.Violations...)
	}
	m.execs.Put(x)
	return out
}

// Replay re-executes the transition identified by key from the given
// state with step recording enabled, returning the trail label, the
// micro-steps, and the successor state (which feeds the next step of a
// forward trail replay): step into a clone of s, which takes its
// storage from the model's free-list when the engine has recycled an
// earlier replayed state. Execution is deterministic, so the
// regenerated steps are exactly those an eagerly recorded transition
// would have carried.
func (m *Model) Replay(s *State, key uint64) (string, []string, checker.State) {
	if key&keyMark == 0 {
		return "", nil, nil
	}
	x := m.execs.Get().(*executor)
	var tr checker.Transition
	ok := m.step(s.Clone(), x, key, "", true, &tr)
	m.execs.Put(x)
	if !ok {
		return "", nil, nil
	}
	return tr.Label, tr.Steps, tr.Next
}

// applyFault executes one fault transition. Fault transitions consume
// no external-event budget and never reset the cascade command log:
// they model the environment misbehaving between platform events.
//
//iotsan:transition
//iotsan:allow readmark -- fault transitions exist only under Options.Faults, where no transition memo runs (memo.go)
func (m *Model) applyFault(ns *State, x *executor, op, idx int, label string, record bool, tr *checker.Transition) {
	if label == "" {
		label = m.faultLabel(ns, op, idx)
	}
	x.reset(ns, failNone, record)
	switch op {
	case fltOffline:
		ns.FaultsUsed++
		ns.markHeader()
		d := &ns.Devices[idx]
		d.Online = false
		d.LastReport = ns.EventsUsed
		ns.markDevice(idx)
		x.step(label)
	case fltOnline:
		d := &ns.Devices[idx]
		d.Online = true
		d.LastReport = 0
		copy(d.Reported, d.Attrs)
		ns.markDevice(idx)
		x.step(label)
		x.step(m.Devices[idx].Label + " reports resynchronize")
	case fltDeliver:
		rec := ns.InFlight[idx]
		ns.InFlight = append(ns.InFlight[:idx], ns.InFlight[idx+1:]...)
		ns.markCmds()
		x.deliverCommand(rec)
		if m.Opts.Design == Sequential {
			x.drain()
		} else {
			x.finishCascade()
		}
	case fltDrop:
		ns.FaultsUsed++
		ns.markHeader()
		rec := ns.InFlight[idx]
		ns.InFlight = append(ns.InFlight[:idx], ns.InFlight[idx+1:]...)
		ns.markCmds()
		if m.Opts.CheckRobustness && !rec.Notified {
			x.violate(PropRobustness, fmt.Sprintf(
				"%s's command %s.%s() is silently dropped during a device outage and the user is never notified",
				m.Apps[rec.App].App.Name, m.Devices[rec.Dev].Label, rec.Cmd))
		}
		x.step(label)
	}
	x.finish(tr, ns, label, fltKey(op, idx), true)
}

// applyExternal executes one external (non-timer) event choice on ns.
// In the sequential design the full cascade runs to quiescence inside
// this transition (Algorithm 1 lines 3-6). With record=false the step
// log is skipped; Replay re-executes with record=true when a trail is
// materialized.
//
//iotsan:transition
func (m *Model) applyExternal(ns *State, x *executor, evIdx int, fm failMode, record bool, tr *checker.Transition) {
	ev := &m.external[evIdx]
	m.beginTransition(ns, x, fm, record)

	switch ev.Kind {
	case EvDevice:
		x.sensorUpdate(ev.Dev, ev.AttrIdx, ev.Val)
	case EvTouch:
		x.deliverTouch(ev.AppIdx)
	case EvSun:
		phase := "sunrise"
		if ev.Val == 1 {
			phase = "sunset"
		}
		x.enqueue(&cyberEvent{Source: srcSun, Attr: -1, Name: "sun", Str: phase, Label: "location"})
	case EvMode:
		x.SetLocationMode(m.Cfg.Modes[ev.Val])
	}

	m.endTransition(x, ev.Kind == EvDevice && fm == failSensorOff)
	x.finish(tr, ns, m.extLabel(evIdx, fm), extKey(evIdx, fm), false)
}

// applyTimer executes a timer-firing choice on ns. methodIdx is -1 when
// the scheduled handler does not name a method; the transition then has
// no replay key and carries its steps eagerly.
//
//iotsan:transition
func (m *Model) applyTimer(ns *State, x *executor, appIdx int, handler string, methodIdx int, fm failMode, label string, record bool, tr *checker.Transition) {
	var key uint64
	if methodIdx >= 0 {
		label = m.timerLabel(appIdx, methodIdx, fm)
		key = tmrKey(appIdx, methodIdx, fm)
	} else {
		if label == "" {
			label = m.keylessTimerLabel(appIdx, handler, fm)
		}
		record = true // not replayable: record eagerly
	}

	m.beginTransition(ns, x, fm, record)
	x.readApp(appIdx)
	if removeTimer(&ns.Apps[appIdx], handler) {
		ns.markApp(appIdx)
	}
	x.fireTimer(appIdx, handler)
	m.endTransition(x, false)
	x.finish(tr, ns, label, key, false)
}

// beginTransition opens an external-event transition on ns: the event
// budget advances, the cascade command log resets (truncated, so the
// backing array the clone or the scratch already owns is reused), and
// the executor binds to ns.
//
//iotsan:transition
//iotsan:allow readmark -- the budget advances on the parent's own header and the command log is cleared: a transition memo keys neither (memo.go)
func (m *Model) beginTransition(ns *State, x *executor, fm failMode, record bool) {
	ns.EventsUsed++
	ns.markHeader()
	if len(ns.Cmds) > 0 {
		ns.Cmds = ns.Cmds[:0]
		ns.markCmds()
	}
	x.reset(ns, fm, record)
}

// endTransition drains the cascade per the design. unsensed marks a
// sensed event lost to an offline sensor, which in the concurrent
// design ends the transition without a cascade to finish.
func (m *Model) endTransition(x *executor, unsensed bool) {
	if m.Opts.Design == Sequential {
		x.drain()
	} else if !unsensed {
		x.finishCascade()
	}
}

// finish writes the transition the executor just ran on ns to *tr.
// Violations are lent (see executor.violations); the step log, recorded
// only for Replay and keyless timers, is handed off.
func (x *executor) finish(tr *checker.Transition, ns *State, label string, key uint64, fault bool) {
	tr.Label, tr.Key, tr.Fault, tr.Next, tr.Violations = label, key, fault, ns, x.violations()
	tr.Steps = nil
	if x.record {
		tr.Steps = x.takeSteps()
	}
}

// deliverTouch routes an app-touch event to the app's touch handlers.
func (x *executor) deliverTouch(appIdx int) {
	ev := cyberEvent{Source: srcApp, Attr: -1, Name: "touch", Str: "touched", Label: "app"}
	for _, si := range x.m.touchIdx[appIdx] {
		sub := &x.m.subs[si]
		x.readApp(sub.AppIdx)
		if x.s.Apps[sub.AppIdx].Unsubscribed {
			continue
		}
		if x.m.Opts.Design == Concurrent {
			x.readQueue()
			x.s.Queue = append(x.s.Queue, Pending{SubIdx: int(si), Source: srcApp, Raw: "touched"})
			x.s.markQueue()
			continue
		}
		x.runHandler(sub, &ev)
	}
}

// removeTimer splices handler's pending timer out of as.Timers,
// reporting whether one was found. The //iotsan:writes annotation
// shifts the markApp obligation to the call sites (which only need the
// mark when the splice actually happened, and all mark accordingly).
//
//iotsan:writes app
func removeTimer(as *AppState, handler string) bool {
	for i := range as.Timers {
		if as.Timers[i].Handler == handler {
			as.Timers = append(as.Timers[:i], as.Timers[i+1:]...)
			return true
		}
	}
	return false
}

// dispatchPending runs one queued handler invocation on ns (concurrent
// design: handler-level interleaving, §8 "Concurrency Model"). The label
// is resolved eagerly (dispLabel) — trails must keep their labels even
// when a broken replay chain degrades their steps.
//
//iotsan:transition
//iotsan:allow readmark -- concurrent design only, where no transition memo runs (memo.go)
func (m *Model) dispatchPending(ns *State, x *executor, i int, label string, record bool, tr *checker.Transition) {
	p := ns.Queue[i]
	if label == "" {
		label = m.dispLabel(p)
	}
	ns.Queue = append(ns.Queue[:i], ns.Queue[i+1:]...)
	ns.markQueue()

	x.reset(ns, failNone, record)
	ev := m.pendingEvent(&p)
	x.runHandler(&m.subs[p.SubIdx], &ev)
	x.noteInFlight()
	x.finish(tr, ns, label, dispKey(i), false)
}

// pendingEvent reconstructs the cyber event payload of a queued
// invocation: a numeric device attribute by reference (Raw was rendered
// from Val when it was queued), anything else as its queued string.
func (m *Model) pendingEvent(p *Pending) cyberEvent {
	attr := m.subs[p.SubIdx].Attr
	if p.Source >= 0 {
		d := m.Devices[p.Source]
		if ai := d.AttrIndex(attr); ai >= 0 && d.Attrs[ai].Numeric {
			return attrEvent(d, ai, p.Val)
		}
		return cyberEvent{Source: p.Source, Attr: -1, Name: attr, Str: p.Raw, Label: d.Label}
	}
	return cyberEvent{Source: p.Source, Attr: -1, Name: attr, Str: p.Raw, Label: "event"}
}
