package model

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"iotsan/internal/checker"
)

// Scratch is one search worker's successor generator (checker.Stepper):
// a private working state and executor that run one transition at a
// time, so a successor the visited store has already seen costs its
// cascade and the blocks that cascade touched — never a copy of the
// state vector. Only Keep, which the engine calls once the store
// reports a successor new and the successor has transitions to expand,
// clones the whole state out.
//
// The working state is kept equal to the state being expanded by
// undoing each step: every write the executors make is paired with a
// block mark (the dirty-mask contract, incremental.go), the marks
// accumulate in the working state's touchMask, and the next Step copies
// exactly those blocks — content and cached block hash — back from the
// immutable parent. A Scratch is not safe for concurrent use; the
// states it steps from are only read.
type Scratch struct {
	m *Model
	s *State // the working state
	x *executor

	// The chain of handed-out states the working state descends from:
	// s equals the state numbered serials[len-1] except in the blocks of
	// s.touchMask, and that state differs from the one before it in the
	// blocks of its masks window (hw words each). A depth-first search
	// walks this chain up and down, so stepping a frame's next child
	// after its previous child's subtree re-syncs by the union of the
	// masks in between instead of a full copy.
	serials []uint64
	masks   []uint64
	hw      int

	nextSerial, endSerial uint64 // the block of serials drawn from the model

	fullSyncs, splices int
	leafWord           uint64 // the last looked-up leaf's (LeafWord)

	// enc is the encode buffer the working state's blocks are re-hashed
	// in after a step (refresh): the successor path takes nothing from
	// the model's pool.
	enc []byte

	// memo predicts the digests of transitions like ones this scratch
	// has stepped, and splices the successors it has confirmed (memo.go).
	memo memo

	// check re-steps every splice (CheckSplices); nil in a search.
	check *spliceCheck
}

// FullSyncs returns how many times a Step had to copy the whole parent
// into the scratch because it was not on the chain. A depth-first
// search makes one (the root); the frontier strategy one per
// expansion whose parent is not the state kept last.
func (sc *Scratch) FullSyncs() int { return sc.fullSyncs }

// Splices returns how many Steps the scratch served from its memo
// without running a handler (splice); the rest ran their cascade.
func (sc *Scratch) Splices() int { return sc.splices }

// serialBlock is how many serials a scratch draws from the model's
// counter at a time, keeping the shared atomic off the per-state path.
const serialBlock = 1 << 10

// NewScratch returns a scratch for one worker of a search over m.
func (m *Model) NewScratch() *Scratch {
	s := m.Initial()
	hw := maskWords(s.nBlocks())
	s.touchMask = make([]uint64, hw)
	sc := &Scratch{m: m, s: s, x: m.newExecutor(), hw: hw}
	o := &m.Opts
	sc.memo.on = o.Design == Sequential && o.Incremental && !o.Faults && !o.InspectCascade
	if sc.memo.on && spliceChecks.Load() {
		sc.check = &spliceCheck{}
	}
	return sc
}

// Step runs the transition stub names — one of Enabled(parent) — from
// parent and returns it. Next is the scratch's working state and
// Violations the executor's own storage: both are valid until the next
// Step or Keep on this scratch. In that window Next may be digested,
// inspected and listed (Enabled, Reduce) like any state — the caches
// those settle are re-synced from the parent by the next Step — but
// must not be retained, recycled or written otherwise: Keep is how a
// successor outlives the window. A step whose successor the memo has
// confirmed is spliced rather than run (splice); it is the same state.
func (sc *Scratch) Step(parent *State, stub *checker.Transition) (tr checker.Transition) {
	sc.step(parent, stub, &tr)
	return tr
}

func (sc *Scratch) step(parent *State, stub *checker.Transition, tr *checker.Transition) {
	sc.syncTo(parent)
	mm := &sc.memo
	e := mm.confirming(parent, stub)
	if e != nil && (e.use == memoRehash || e.use == memoSplice) {
		sc.splice(parent, stub, e, tr)
		return
	}
	record := e == nil && mm.records(parent, stub)
	if record {
		sc.x.reads, sc.x.hdrReads = mm.readMask(sc.m, sc.hw), 0
	}
	sc.m.step(sc.s, sc.x, stub.Key, stub.Label, false, tr)
	sc.refresh()
	switch {
	case record:
		mm.record(sc.s, parent, stub.Key, sc.x, tr.Violations)
		sc.x.reads = nil
	case e != nil && e.use == memoStep:
		mm.capture(sc.m, sc.s, e)
	}
}

// refresh settles the working state's block cache after a real step, in
// the scratch's own encode buffer. The engine digests every successor
// it steps, so this is the refresh that digest would make.
func (sc *Scratch) refresh() {
	if !sc.s.cacheSettled() {
		sc.enc = refreshDirty(sc.s, sc.enc)
	}
}

// splice serves the confirming step of entry e from p without running
// it: the working state, synced to p, takes the header the step gives
// and the contents of every block it wrote, as the memo captured them.
// On the entry's first splice the blocks are re-hashed from those
// contents, so the engine's check of this step holds the captured bytes
// to the prediction; after that they take the captured hashes and the
// fold the prediction, and the step encodes nothing. Either way the
// spliced blocks are touched — the next re-sync undoes them — and the
// atoms reading them go stale, as after a real step.
//
//iotsan:allow dirtymark -- installs captured blocks with their cached hashes, or marks them dirty for the re-hash
func (sc *Scratch) splice(p *State, stub *checker.Transition, e *memoEntry, tr *checker.Transition) {
	s, mm := sc.s, &sc.memo
	nDev, nApp, touch := len(s.Devices), len(s.Apps), s.touchMask
	rehash := e.use == memoRehash
	s.Mode, s.EventsUsed = mm.hitMode, p.EventsUsed+1
	touch[0] |= 1
	for i := e.content; i < e.content+e.nContent; i++ {
		cb := &mm.blocks[i]
		b := int(cb.b)
		switch {
		case b <= nDev:
			d := &s.Devices[b-1]
			d.Online, d.LastReport = cb.flag, cb.last
			copy(d.Attrs, mm.cattrs[cb.off:])
		case b <= nDev+nApp:
			a := &s.Apps[b-1-nDev]
			a.Unsubscribed = cb.flag
			for j, v := range mm.cslots[cb.off : cb.off+cb.n] {
				a.Slots[j] = v.Clone()
			}
			a.Timers = append(a.Timers[:0], mm.ctimers[cb.toff:cb.toff+cb.tn]...)
			s.setDevRef(b-1-nDev, cb.ref)
		case b == s.queueBlock():
			s.Queue = append(s.Queue[:0], mm.cqueue[cb.off:cb.off+cb.n]...)
		default:
			s.Cmds = append(s.Cmds[:0], mm.ccmds[cb.off:cb.off+cb.n]...)
		}
		if !rehash {
			s.blockHash[b] = cb.hash
		}
		touch[b>>6] |= 1 << uint(b&63)
	}
	if rehash {
		copy(s.dirtyMask, touch)
		sc.enc = refreshDirty(s, sc.enc)
		e.use = memoSplice
		mm.leafSets(sc.m, e)
	} else {
		s.blockHash[0], s.fold = mm.hitHeader, mm.hitFold
	}
	if sc.m.atoms != nil {
		sc.m.atoms.staleTouched(s, touch)
	}
	sc.recordLeaf(p, s, mm.hitEntry, e)
	x := sc.x
	x.viols = append(x.viols[:0], mm.viols[e.viols:e.viols+e.nViols]...)
	label, key, fault := stub.Label, stub.Key, stub.Fault
	tr.Label, tr.Steps, tr.Key, tr.Next, tr.Violations, tr.Fault = label, nil, key, s, x.violations(), fault
	sc.splices++
	if c := sc.check; c != nil {
		c.verify(sc, p, stub, tr)
		if c.leafErr != "" {
			c.fail(sc, tr, "leaf-check", fmt.Sprintf("transition %q %s", stub.Label, c.leafErr))
			c.leafErr = ""
		}
	}
}

// Keep clones the successor of the last Step out of the scratch — from
// the model's free-list of recycled states when it has one — and
// returns the clone, which the caller owns. The scratch stays equal to
// it, so a depth-first search that descends into the kept state steps
// its children with no copy at all.
func (sc *Scratch) Keep() *State {
	n := sc.s.Clone()
	if sc.nextSerial == sc.endSerial {
		sc.endSerial = sc.m.serials.Add(serialBlock)
		sc.nextSerial = sc.endSerial - serialBlock
	}
	sc.nextSerial++
	n.serial = sc.nextSerial
	if n.cacheSettled() {
		sc.serials = append(sc.serials, n.serial)
		sc.masks = append(sc.masks, sc.s.touchMask...)
		clear(sc.s.touchMask)
	}
	return n
}

// cacheSettled reports whether no block hash of s is stale. A settled
// cache never changes again (refreshBlocks finds nothing to do), which
// is what lets a scratch trust the hashes it inherited from a state on
// its chain; a state whose cache could still be refreshed under it —
// one nobody has digested yet — is re-copied in full on every step
// instead of being put on the chain.
func (s *State) cacheSettled() bool {
	for _, w := range s.dirtyMask {
		if w != 0 {
			return false
		}
	}
	return true
}

// syncTo makes the working state equal to p. When p is on the chain,
// that is a copy of the blocks touched since the scratch last equalled
// p; otherwise the whole state is copied and the chain restarts at p.
func (sc *Scratch) syncTo(p *State) {
	k := -1
	if p.serial != 0 {
		for k = len(sc.serials) - 1; k >= 0 && sc.serials[k] != p.serial; k-- {
		}
	}
	if k < 0 {
		sc.fullSyncs++
		touch := sc.s.touchMask
		sc.s = p.cloneInto(sc.s)
		sc.s.touchMask = touch
		clear(touch)
		sc.serials, sc.masks = sc.serials[:0], sc.masks[:0]
		if p.serial != 0 && p.cacheSettled() {
			sc.serials = append(sc.serials, p.serial)
			sc.masks = append(sc.masks, touch...) // entry 0's window is never read
		}
		return
	}
	mask := sc.s.touchMask
	for j := (k + 1) * sc.hw; j < len(sc.masks); j++ {
		mask[j%sc.hw] |= sc.masks[j]
	}
	sc.serials, sc.masks = sc.serials[:k+1], sc.masks[:(k+1)*sc.hw]
	sc.resync(p, mask)
	clear(mask)
}

// resync copies the blocks in mask — content and cached hash — from p,
// a state on the chain, into the working state. p's cache is settled,
// so the copied blocks are clean; every block outside mask already
// matches p, cache entry included, so p's fold is the working state's.
//
//iotsan:allow dirtymark -- restores the parent's already-hashed blocks together with their cache entries
func (sc *Scratch) resync(p *State, mask []uint64) {
	s := sc.s
	nDev, nApp := len(s.Devices), len(s.Apps)
	cached := s.blockHash != nil
	for wi, word := range mask {
		for w := word; w != 0; w &= w - 1 {
			b := wi<<6 + bits.TrailingZeros64(w)
			switch {
			case b == 0:
				s.Mode, s.EventsUsed, s.FaultsUsed = p.Mode, p.EventsUsed, p.FaultsUsed
			case b <= nDev:
				sd, pd := &s.Devices[b-1], &p.Devices[b-1]
				sd.Online, sd.LastReport = pd.Online, pd.LastReport
				copy(sd.Attrs, pd.Attrs)
				copy(sd.Reported, pd.Reported)
			case b <= nDev+nApp:
				copyApp(&s.Apps[b-1-nDev], &p.Apps[b-1-nDev])
			case b == s.queueBlock():
				s.Queue = append(s.Queue[:0], p.Queue...)
			default:
				s.Cmds = append(s.Cmds[:0], p.Cmds...)
				s.InFlight = append(s.InFlight[:0], p.InFlight...)
			}
			if cached {
				s.blockHash[b] = p.blockHash[b]
			}
		}
		if cached {
			s.dirtyMask[wi] &^= word
		}
	}
	if cached {
		copy(s.devRefMask, p.devRefMask)
		s.fold = p.fold
	}
	// The atom valuation is p's as well — p's current one: Inspect may
	// have settled it since the scratch last equalled p.
	s.atoms, s.atomFresh = p.atoms, p.atomFresh
}

// spliceChecks arms the splice check of every scratch made while it is
// set (CheckSplices).
var spliceChecks atomic.Bool

// CheckSplices arms the splice check for the scratches made from now on,
// or disarms it: such a scratch re-steps every transition it splices on
// a shadow copy of the parent and compares the spliced successor's
// encoding (of the blocks either step wrote: the rest is the parent's on
// both), block hashes, fold and violations with the real step's. A
// mismatch is added to the step's violations as a "splice-check"
// violation naming the transition, so the engine's check of the step
// fails the run with it (Result.Err). Every leaf lookup (InspectLeaf) is
// re-stepped the same way, and a lookup whose digest, leafness, atom word
// or violations differ from the real step's is refused and reported as
// a "leaf-check" violation of the confirming splice, which fails the run
// alike (spliceCheck.leaf). It is a test hook, not an option: the tests
// of the root package arm it for their whole run, which puts every new
// state a memo-on cell of the verdict matrix stores through a real step,
// as before splicing and looking up.
func CheckSplices(on bool) { spliceChecks.Store(on) }

// spliceCheck is one scratch's shadow state and executor for the splice
// check, and the difference a refused leaf lookup left for the
// confirming splice to report.
type spliceCheck struct {
	shadow  *State
	x       *executor
	a, b    []byte
	mask    []uint64
	leafErr string
}

// shadowOf makes the shadow state a copy of p.
func (c *spliceCheck) shadowOf(m *Model, p *State) {
	if c.x == nil {
		c.x = m.newExecutor()
	}
	c.shadow = p.cloneInto(c.shadow)
}

// verify re-steps the transition sc has just spliced into tr from p.
func (c *spliceCheck) verify(sc *Scratch, p *State, stub *checker.Transition, tr *checker.Transition) {
	m := sc.m
	c.shadowOf(m, p)
	var want checker.Transition
	m.step(c.shadow, c.x, stub.Key, stub.Label, false, &want)
	s, sh := sc.s, c.shadow
	// Outside the blocks either side wrote, both hold p's contents.
	c.mask = append(c.mask[:0], s.touchMask...)
	for wi, w := range sh.dirtyMask {
		c.mask[wi] |= w
	}
	m.refreshBlocks(sh)
	var what string
	for wi, w := range c.mask {
		for ; w != 0 && what == ""; w &= w - 1 {
			b := wi<<6 + bits.TrailingZeros64(w)
			c.a, _ = encodeBlock(s, b, c.a[:0])
			if c.b, _ = encodeBlock(sh, b, c.b[:0]); !bytes.Equal(c.a, c.b) {
				what = fmt.Sprintf("encoding of block %d", b)
			}
		}
	}
	switch {
	case what != "":
	case !slices.Equal(s.blockHash, sh.blockHash) || !slices.Equal(s.devRefMask, sh.devRefMask):
		what = "block hashes"
	case s.fold != sh.fold:
		what = "fold"
	case !slices.Equal(tr.Violations, want.Violations):
		what = "violations"
	default:
		return
	}
	c.fail(sc, tr, "splice-check", fmt.Sprintf("transition %q (key %#x): the spliced successor differs from a real step in its %s", stub.Label, stub.Key, what))
}

// fail adds a check's violation to the spliced step's.
func (c *spliceCheck) fail(sc *Scratch, tr *checker.Transition, property, detail string) {
	x := sc.x
	x.viols = append(x.viols, checker.Violation{Property: property, Detail: detail})
	tr.Violations = x.viols
}
