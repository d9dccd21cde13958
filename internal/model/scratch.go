package model

import (
	"math/bits"

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

	fullSyncs int

	// memo predicts the digests of transitions like ones this scratch
	// has stepped (memo.go).
	memo memo
}

// FullSyncs returns how many times a Step had to copy the whole parent
// into the scratch because it was not on the chain. A depth-first
// search makes one (the root); the frontier strategy one per
// expansion whose parent is not the state kept last.
func (sc *Scratch) FullSyncs() int { return sc.fullSyncs }

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
	return sc
}

// Step runs the transition stub names — one of Enabled(parent) — from
// parent and returns it. Next is the scratch's working state and
// Violations the executor's own storage: both are valid until the next
// Step or Keep on this scratch. In that window Next may be digested,
// inspected and listed (Enabled, Reduce) like any state — the caches
// those settle are re-synced from the parent by the next Step — but
// must not be retained, recycled or written otherwise: Keep is how a
// successor outlives the window.
func (sc *Scratch) Step(parent *State, stub *checker.Transition) (tr checker.Transition) {
	sc.step(parent, stub, &tr)
	return tr
}

func (sc *Scratch) step(parent *State, stub *checker.Transition, tr *checker.Transition) {
	sc.syncTo(parent)
	if !sc.memo.records(parent, stub) {
		sc.m.step(sc.s, sc.x, stub.Key, stub.Label, false, tr)
		return
	}
	sc.x.reads, sc.x.hdrReads = sc.memo.readMask(sc.m, sc.hw), 0
	sc.m.step(sc.s, sc.x, stub.Key, stub.Label, false, tr)
	sc.m.refreshBlocks(sc.s)
	sc.memo.record(sc.s, parent, stub.Key, sc.x, tr.Violations)
	sc.x.reads = nil
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
