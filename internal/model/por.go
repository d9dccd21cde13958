package model

import (
	"sync"

	"iotsan/internal/checker"
	"iotsan/internal/depgraph"
	"iotsan/internal/eval"
	"iotsan/internal/smartapp"
)

// Partial-order reduction for the concurrent design (§8).
//
// In the concurrent design every pending handler invocation is a
// separate transition, so n queued handlers generate up to n!
// interleavings — the state explosion of Table 7b. Most of those
// interleavings are equivalent: dispatching two handlers that touch
// disjoint state reaches the same successor in either order. The
// reducer prunes the equivalent orders with persistent sets in the
// style of Godefroid (the technique Spin — the backend IotSan targets —
// applies as its partial-order reduction): at an expansion it selects a
// subset P of the pending dispatches such that
//
//   - every transition in P is "pure-local" (writes confined to its own
//     app instance): invisible to every safety property, raising no
//     order-dependent transition violations, and enqueueing nothing;
//   - P is closed under the static dependence relation — any pending
//     dispatch whose handler class is dependent on a member of P is
//     itself in P;
//   - no class reachable by the remaining dispatches' spawn chains
//     (commands → subscribers, synthetic events, mode changes) is
//     dependent on P — so nothing that could become enabled before P
//     executes can interact with it.
//
// Exploring only P from the state then preserves every distinct
// violation: the pruned interleavings reach property-equivalent states
// through the kept ones. Reduction is attempted only in the queue-drain
// phase (EventsUsed ≥ MaxEvents, when external events and timers are
// exhausted and the enabled set is exactly the pending queue); before
// that phase the environment can enable arbitrary transitions and no
// small persistent set exists under a static relation. No transition is
// postponed forever: the three conditions make the count of pending
// entries of P's classes a measure that every P-transition lowers and
// no other transition raises, which is the progress certificate the
// checker relies on instead of a visited-state proviso
// (sysAdapter.CertifiesProgress; the root walker's progress check
// measures it on every reduced expansion it meets).
//
// The dependence relation is seeded from the same overlaps/conflicts
// predicates dependency analysis uses (depgraph.Independent) over the
// read/write sets the eval package extracts at compile time, refined
// with the model-level interference channels the event signatures
// cannot see: shared app instances, the order-sensitive command log,
// queue-append ordering, and subscription re-enqueueing.

// porClass is one handler equivalence class: every pending dispatch
// that runs the same handler of the same app instance behaves
// identically for dependence purposes.
type porClass struct {
	appIdx  int
	handler string
}

// DispatchedHandler names what a pending entry runs: its app instance's
// index in Apps and the handler — the pair that makes one reduction
// class.
func (m *Model) DispatchedHandler(p Pending) (app int, handler string) {
	sub := &m.subs[p.SubIdx]
	return sub.AppIdx, sub.Handler
}

// Independent reports whether the static dependence relation calls the
// classes of two pending entries independent: the claim, which every
// persistent set rests on, that dispatching them in either order
// reaches the same state. It is false outside the concurrent design.
// The root walker's commute check runs both orders to test the claim.
func (m *Model) Independent(p, q Pending) bool {
	if m.por == nil || m.por.nclass == 0 {
		return false
	}
	return !m.por.dep[m.por.subClass[p.SubIdx]].has(m.por.subClass[q.SubIdx])
}

// porData is the static reduction table, precomputed at New for
// concurrent-design models.
type porData struct {
	nclass   int
	subClass []int32 // subscription index → class id
	classes  []porClass
	pure     []bool    // class writes nothing outside its own app
	dep      []porBits // dep[c]: classes dependent with c (symmetric, self-inclusive)
	spawnClo []porBits // transitive closure of the spawn relation
	words    int

	// Fault-injection refinements (built only under Options.Faults).
	// readFree[c] marks classes that read no device attributes: fault
	// transitions flip devices between ground-truth and stale reads and
	// delivery writes device attributes, so only read-free classes
	// commute with them. trigClo[attr] is the set of classes an event on
	// attr can transitively enqueue (trigger classes plus their spawn
	// closure) — the classes a delivery of a held command on attr
	// threatens to enable.
	readFree []bool
	trigClo  map[string]porBits

	scratch sync.Pool // *porScratch
}

// porScratch is one Reduce call's working set: the queue's classes and
// the class bitsets of the candidate search.
type porScratch struct {
	qc                                 []int32
	tried, set, depOfSet, best, threat porBits
}

// porBits is a fixed-width bitset over class ids.
type porBits []uint64

func (b porBits) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b porBits) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b porBits) orInto(o porBits) {
	for w := range b {
		b[w] |= o[w]
	}
}

func (b porBits) intersects(o porBits) bool {
	for w := range b {
		if b[w]&o[w] != 0 {
			return true
		}
	}
	return false
}

func (b porBits) equal(o porBits) bool {
	for w := range b {
		if b[w] != o[w] {
			return false
		}
	}
	return true
}

func (p *porData) newBits() porBits { return make(porBits, p.words) }

func (p *porData) newScratch() any {
	w := p.words
	b := make(porBits, 5*w)
	return &porScratch{
		tried: b[0*w : 1*w : 1*w], set: b[1*w : 2*w : 2*w],
		depOfSet: b[2*w : 3*w : 3*w], best: b[3*w : 4*w : 4*w],
		threat: b[4*w : 5*w : 5*w],
	}
}

// buildPOR precomputes the class table, the dependence matrix, and the
// spawn closure. Called from New for concurrent-design models; the
// checker's Options.POR gates whether any of it is consulted.
func (m *Model) buildPOR() {
	p := &porData{subClass: make([]int32, len(m.subs))}
	classOf := map[porClass]int32{}
	for si, sub := range m.subs {
		c := porClass{appIdx: sub.AppIdx, handler: sub.Handler}
		id, ok := classOf[c]
		if !ok {
			id = int32(len(p.classes))
			classOf[c] = id
			p.classes = append(p.classes, c)
		}
		p.subClass[si] = id
	}
	p.nclass = len(p.classes)
	p.words = (p.nclass + 63) / 64
	p.scratch.New = p.newScratch
	if p.nclass == 0 {
		m.por = p
		return
	}

	// Per-app effects tables: reuse the compile-time extraction when the
	// app compiled; interpreter-mode apps get a standalone pass over the
	// same AST.
	effByApp := make([]map[string]*eval.Effects, len(m.Apps))
	for i, app := range m.Apps {
		if app.Prog != nil && app.Prog.Effects != nil {
			effByApp[i] = app.Prog.Effects
		} else {
			effByApp[i] = eval.AppEffects(app.App)
		}
	}
	unknownEffects := &eval.Effects{Unknown: true}
	eff := make([]*eval.Effects, p.nclass)
	triggers := make([][]string, p.nclass) // attributes whose events enqueue the class
	for i, c := range p.classes {
		if e := effByApp[c.appIdx][c.handler]; e != nil {
			eff[i] = e
		} else {
			eff[i] = unknownEffects
		}
		p.pure = append(p.pure, eff[i].PureLocal())
	}
	for si, sub := range m.subs {
		triggers[p.subClass[si]] = append(triggers[p.subClass[si]], sub.Attr)
	}

	rw := make([]depgraph.RW, p.nclass)
	for i := range p.classes {
		rw[i] = effectsRW(eff[i])
	}

	// Direct spawn relation: class c can enqueue class d when one of c's
	// output attributes (command targets, synthetic event names, mode
	// changes) matches one of d's trigger attributes. Attribute-level
	// and value-insensitive — an over-approximation of the runtime
	// subscription filters, which is the sound direction.
	spawn := make([]porBits, p.nclass)
	outputs := make([][]string, p.nclass)
	for i := range p.classes {
		spawn[i] = p.newBits()
		outputs[i] = eff[i].OutputAttrs()
		if eff[i].Unknown {
			// Unbounded outputs: may spawn anything.
			for j := 0; j < p.nclass; j++ {
				spawn[i].set(int32(j))
			}
			continue
		}
		for j := 0; j < p.nclass; j++ {
			if attrsIntersect(outputs[i], triggers[j]) {
				spawn[i].set(int32(j))
			}
		}
	}
	// Transitive closure (spawned handlers spawn further handlers).
	for changed := true; changed; {
		changed = false
		for i := 0; i < p.nclass; i++ {
			next := p.newBits()
			copy(next, spawn[i])
			for j := 0; j < p.nclass; j++ {
				if spawn[i].has(int32(j)) {
					next.orInto(spawn[j])
				}
			}
			if !next.equal(spawn[i]) {
				spawn[i] = next
				changed = true
			}
		}
	}
	p.spawnClo = spawn

	if m.Opts.Faults {
		p.readFree = make([]bool, p.nclass)
		for i := range p.classes {
			p.readFree[i] = !eff[i].Unknown && len(eff[i].ReadAttrs) == 0
		}
		trig := map[string]porBits{}
		for si, sub := range m.subs {
			b := trig[sub.Attr]
			if b == nil {
				b = p.newBits()
				trig[sub.Attr] = b
			}
			b.set(p.subClass[si])
		}
		p.trigClo = make(map[string]porBits, len(trig))
		for a, b := range trig {
			clo := p.newBits()
			copy(clo, b)
			for j := 0; j < p.nclass; j++ {
				if b.has(int32(j)) {
					clo.orInto(spawn[j])
				}
			}
			p.trigClo[a] = clo
		}
	}

	// Dependence matrix.
	p.dep = make([]porBits, p.nclass)
	for i := range p.dep {
		p.dep[i] = p.newBits()
	}
	for i := 0; i < p.nclass; i++ {
		p.dep[i].set(int32(i)) // a class never commutes with itself (shared app state)
		for j := i + 1; j < p.nclass; j++ {
			if p.classDep(i, j, eff, rw, spawn) {
				p.dep[i].set(int32(j))
				p.dep[j].set(int32(i))
			}
		}
	}
	m.por = p
}

// classDep decides static dependence between two handler classes: the
// seeded read/write independence plus the model-level channels.
func (p *porData) classDep(i, j int, eff []*eval.Effects, rw []depgraph.RW, spawn []porBits) bool {
	ci, cj := p.classes[i], p.classes[j]
	ei, ej := eff[i], eff[j]
	switch {
	case ci.appIdx == cj.appIdx:
		// Shared app instance: persistent state, timers, subscriptions.
		return true
	case ei.Unknown || ej.Unknown:
		return true
	case ei.Unsubscribes || ej.Unsubscribes:
		// Unsubscribing changes which future enqueues reach the app —
		// order-sensitive against any event producer.
		return true
	case !depgraph.Independent(rw[i], rw[j]):
		return true
	case porEnqueues(ei) && porEnqueues(ej):
		// Both append to the pending queue (and, for commands, to the
		// order-sensitive command log): appends do not commute.
		return true
	case spawn[i].has(int32(j)) || spawn[j].has(int32(i)):
		// One can enqueue new instances of the other: a fresh pending
		// dispatch of a class is dependent with the pending dispatches
		// of the same class.
		return true
	}
	return false
}

// porEnqueues reports whether the class can append to the pending
// queue: actuator commands (attribute-change events), synthetic events,
// or mode changes.
func porEnqueues(e *eval.Effects) bool {
	return e.Commands || e.SendsEvent || e.WritesMode
}

// effectsRW converts a compile-time footprint into the event-signature
// form the depgraph independence seed consumes. Mode reads/writes ride
// along as the "mode" pseudo-attribute, exactly as dependency analysis
// models them.
func effectsRW(e *eval.Effects) depgraph.RW {
	var rw depgraph.RW
	for a := range e.ReadAttrs {
		rw.Reads = append(rw.Reads, smartapp.EventSig{Attr: a})
	}
	if e.ReadsMode {
		rw.Reads = append(rw.Reads, smartapp.EventSig{Attr: "mode"})
	}
	for a := range e.WriteAttrs {
		rw.Writes = append(rw.Writes, smartapp.EventSig{Attr: a})
	}
	if e.WritesMode {
		rw.Writes = append(rw.Writes, smartapp.EventSig{Attr: "mode"})
	}
	return rw
}

func attrsIntersect(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// Reduce implements checker.Reducer: it returns the indices of a
// persistent subset of the enabled transitions, or nil when no
// reduction applies. It is a pure function of the state, so every
// search strategy prunes the identical interleavings. It works in pooled
// scratch, so the returned slice is its only allocation.
//
// Reduction applies only in the concurrent design's queue-drain phase,
// where Expand's transition list is exactly the pending queue in order
// (transition i dispatches Queue[i] — the correspondence this method
// relies on).
func (m *Model) Reduce(s *State, trs []checker.Transition) []int {
	p := m.por
	if p == nil || p.nclass == 0 || m.Opts.Design != Concurrent {
		return nil
	}
	if s.EventsUsed < m.Opts.MaxEvents || len(s.Queue) < 2 {
		return nil
	}
	// In the drain phase Expand emits the pending dispatches in queue
	// order followed by exactly the fault transitions (zero whenever
	// fault injection is inert, so the faults-off shape is unchanged).
	nf := 0
	for i := range trs {
		if trs[i].Fault {
			nf++
		}
	}
	if len(trs) != len(s.Queue)+nf {
		return nil
	}
	sc := p.scratch.Get().(*porScratch)
	defer p.scratch.Put(sc)

	// Fault transitions stay outside every persistent set: they remain
	// enabled (pure dispatches cannot command a device or change its
	// online status) and the set must commute with them. A delivery can
	// enqueue the subscribers of the held command's attribute, so those
	// classes threaten the set exactly like spawn chains do.
	if nf > 0 {
		clear(sc.threat)
		for i := range s.InFlight {
			if b := p.trigClo[s.InFlight[i].Attr]; b != nil {
				sc.threat.orInto(b)
			}
		}
	}

	qc := sc.qc[:0]
	for _, pe := range s.Queue {
		qc = append(qc, p.subClass[pe.SubIdx])
	}
	sc.qc = qc

	bestLen, bestFirst := -1, -1
	clear(sc.tried)
	for k := 0; k < len(qc); k++ {
		ck := qc[k]
		if sc.tried.has(ck) || !p.pure[ck] {
			continue
		}
		if nf > 0 && !p.readFree[ck] {
			continue // outages/deliveries can change what the class reads
		}
		sc.tried.set(ck)
		if !p.closeSet(ck, qc, sc.set, sc.depOfSet, nf > 0) {
			continue
		}
		if nf > 0 && sc.threat.intersects(sc.depOfSet) {
			continue // a delivery could enable a dispatch dependent on the set
		}
		n, first := 0, -1
		for i, c := range qc {
			if sc.set.has(c) {
				n++
				if first < 0 {
					first = i
				}
			}
		}
		if n >= len(qc) {
			continue // the closure swallowed the whole queue
		}
		if bestLen < 0 || n < bestLen || (n == bestLen && first < bestFirst) {
			bestLen, bestFirst = n, first
			sc.best, sc.set = sc.set, sc.best
		}
	}
	if bestLen < 0 {
		return nil
	}
	out := make([]int, 0, bestLen)
	for i, c := range qc {
		if sc.best.has(c) {
			out = append(out, i)
		}
	}
	return out
}

// closeSet grows {seed} to a dependence-closed set of pure classes over
// the classes present in the queue qc, written to set, then verifies the
// persistence side conditions. It reports false when the closure pulls
// in an impure (or, under active fault injection, device-reading) class
// or when a class spawnable by the remaining dispatches is dependent on
// the set. The classes dependent on the set are left in depOfSet, which
// lets the caller check further threats (fault deliveries) against it.
func (p *porData) closeSet(seed int32, qc []int32, set, depOfSet porBits, faultsActive bool) bool {
	clear(set)
	set.set(seed)
	copy(depOfSet, p.dep[seed])
	for changed := true; changed; {
		changed = false
		for _, c := range qc {
			if set.has(c) || !depOfSet.has(c) {
				continue
			}
			if !p.pure[c] {
				return false // a dependent pending dispatch is visible/impure
			}
			if faultsActive && !p.readFree[c] {
				return false
			}
			set.set(c)
			depOfSet.orInto(p.dep[c])
			changed = true
		}
	}
	// Spawn threat: classes the remaining dispatches can transitively
	// enqueue must all be independent of the set — otherwise a sequence
	// of non-set transitions could enable a dependent dispatch before
	// the set executes.
	for _, c := range qc {
		if set.has(c) {
			continue
		}
		if p.spawnClo[c].intersects(depOfSet) {
			return false
		}
	}
	return true
}
