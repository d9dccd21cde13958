package model

import (
	"fmt"
	"slices"

	"iotsan/internal/checker"
)

// Leaves by lookup.
//
// At the event bound most stored states are leaves: a successor of a
// parent with EventsUsed+1 ≥ MaxEvents has no transitions in the
// sequential design without Faults, which is the only design the memo
// runs in. All the engine wants of such a state is its digest, which
// the memo predicts, and its state violations, which are a function of
// its atom word. So once an entry is past its two checked uses
// (memoSplice), the word of its leaf successor from a settled parent is
// told without stepping, splicing or settling anything:
//
//	word = parent word &^ A_e | bits
//
//   - A_e (memoEntry.latoms) is the atoms the entry can change: those
//     reading a device block it writes, and the mode atoms when it
//     changes a keyed mode. Every other atom reads only what the entry
//     leaves as the parent had it, so it keeps the parent's value.
//   - bits are the values of A_e on a spliced successor, settled,
//     recorded under the key (entry, hash of the parent's blocks in
//     X_e): X_e (leafDevs) is the devices outside the written set that
//     A_e reads. The written blocks are the entry's captured contents and
//     the mode its successor's, so an A_e atom is a function of the X_e
//     blocks alone — unless it reads a mode the entry does not key, and
//     such an entry is never looked up (noLeaf).
//
// The bits of a new key come from the next splice of a leaf successor
// under it: the entry's first splice, whose re-hash the engine checks,
// or the confirming splice after a lookup missed. They live in a flat
// open-addressed table in the memo's arenas, bounded like the entries,
// and the verdict of the word comes from the catalog's verdict cache.
// CheckSplices re-steps every lookup on a shadow state (spliceCheck.leaf).

// leafCap bounds the keys a memo's leaf table records; a full table
// goes on answering from what it holds.
const leafCap = memoCap

// memoLeaf is one recorded key of the leaf table: an entry (1-based; 0
// is an empty slot), the hash of the parent blocks it read, and the
// values its successor gave the entry's atoms.
type memoLeaf struct {
	h    uint64
	bits uint64
	e    int32
}

// leafSets records A_e and X_e for entry e, whose blocks the memo has
// just captured: called at its first splice.
func (mm *memo) leafSets(m *Model, e *memoEntry) {
	t := m.atoms
	if t == nil {
		return
	}
	nDev := len(m.Devices)
	written := mm.footprint[:0] // device blocks, ascending
	for _, cb := range mm.blocks[e.content : e.content+e.nContent] {
		if b := cb.b; b >= 1 && int(b) <= nDev {
			written = append(written, b)
		}
	}
	mm.footprint = written
	for _, b := range written {
		e.latoms |= t.readers[b]
	}
	sh := &mm.shapes[e.shape-1]
	if sh.mode && e.next != e.mode {
		e.latoms |= t.readers[0]
	} else if !sh.mode && e.latoms&t.readers[0] != 0 {
		e.noLeaf = true
		return
	}
	e.ldevs = int32(len(mm.leafDevs))
	for b := 1; b <= nDev; b++ {
		if t.readers[b]&e.latoms != 0 && !slices.Contains(written, int32(b)) {
			mm.leafDevs = append(mm.leafDevs, int32(b))
		}
	}
	e.nldevs = int32(len(mm.leafDevs)) - e.ldevs
}

// leafHash is the leaf table's key for entry ei from parent p: the
// entry and p's hashes of its X_e blocks.
func (mm *memo) leafHash(ei int32, e *memoEntry, p *State) uint64 {
	h := uint64(ei+1) * mixMult
	for _, b := range mm.leafDevs[e.ldevs : e.ldevs+e.nldevs] {
		h = (h ^ p.blockHash[b]) * mixMult
	}
	return splitmix64(h)
}

// leafSlot returns the slot of key (ei, h) in the leaf table: the one
// holding it, or the empty one it belongs in. The table has one.
func (mm *memo) leafSlot(ei int32, h uint64) *memoLeaf {
	mask := uint64(len(mm.leaves) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if l := &mm.leaves[i]; l.e == 0 || l.e == ei+1 && l.h == h {
			return l
		}
	}
}

// leafBits returns the bits recorded under (ei, h).
func (mm *memo) leafBits(ei int32, h uint64) (uint64, bool) {
	if mm.nLeaves == 0 {
		return 0, false
	}
	l := mm.leafSlot(ei, h)
	return l.bits, l.e != 0
}

// recordLeaf records the A_e bits of s, the scratch's successor of p
// through entry ei just spliced, when it is a leaf the table has no key
// for. It settles s's atoms to read them, which is the work the engine's
// Inspect of s would do next.
func (sc *Scratch) recordLeaf(p, s *State, ei int32, e *memoEntry) {
	mm, t := &sc.memo, sc.m.atoms
	if t == nil || e.noLeaf || p.EventsUsed+1 < sc.m.Opts.MaxEvents || mm.nLeaves >= leafCap {
		return
	}
	h := mm.leafHash(ei, e, p)
	if 2*(mm.nLeaves+1) > len(mm.leaves) {
		old := mm.leaves
		mm.leaves = make([]memoLeaf, max(64, 2*len(old)))
		for _, l := range old {
			if l.e != 0 {
				*mm.leafSlot(l.e-1, l.h) = l
			}
		}
	}
	l := mm.leafSlot(ei, h)
	if l.e != 0 {
		return
	}
	*l = memoLeaf{h: h, bits: t.settle(s) & e.latoms, e: ei + 1}
	mm.nLeaves++
}

// InspectLeaf answers checker.Predictor.InspectLeaf: the state
// violations of the successor the last Predict answered for from p,
// when that successor is a leaf whose atom word the memo can tell (see
// above) — without stepping it. It reports false, leaving the
// prediction to be confirmed by Step, when it cannot tell. The
// violations are the catalog's shared verdict: callers must not write
// to them.
func (sc *Scratch) InspectLeaf(p *State) ([]checker.Violation, bool) {
	mm := &sc.memo
	if p.serial == 0 || p.serial != mm.hitSerial || p.EventsUsed+1 < sc.m.Opts.MaxEvents {
		return nil, false
	}
	ei := mm.hitEntry
	e := &mm.entries[ei]
	if e.use != memoSplice || e.noLeaf {
		return nil, false
	}
	var word uint64
	var viols []checker.Violation
	if t := sc.m.atoms; t != nil {
		if p.atomFresh != t.all {
			return nil, false
		}
		bits, ok := mm.leafBits(ei, mm.leafHash(ei, e, p))
		if !ok {
			return nil, false
		}
		word = p.atoms&^e.latoms | bits
		viols = sc.m.verdictOf(word)
	}
	if sc.check != nil && !sc.check.leaf(sc, p, word, viols) {
		return nil, false
	}
	mm.hitSerial = 0
	sc.leafWord = word
	return viols, true
}

// LeafWord returns the atom word of the last leaf InspectLeaf answered
// for. For tests: the engine reads only the violations.
func (sc *Scratch) LeafWord() uint64 { return sc.leafWord }

// leaf re-steps the transition whose leaf successor sc is about to
// answer for from p, with word and viols, on a shadow copy of p, and
// compares the digest the memo predicted, that the state is a leaf, its
// atom word from scratch and the violations a plain loop over the
// invariants gives for that word. On a difference it reports false, so
// the engine confirms the prediction, and leaves the difference for the
// confirming splice to add as a "leaf-check" violation: the engine's
// check of that step then fails the run.
func (c *spliceCheck) leaf(sc *Scratch, p *State, word uint64, viols []checker.Violation) bool {
	m, mm := sc.m, &sc.memo
	c.shadowOf(m, p)
	var tr checker.Transition
	m.step(c.shadow, c.x, mm.hitKey, "", false, &tr)
	m.refreshBlocks(c.shadow)
	var want uint64
	var wantViols []checker.Violation
	if m.atoms != nil {
		want = m.atoms.Valuation(c.shadow)
		for i := range m.Opts.Invariants {
			if inv := &m.Opts.Invariants[i]; !inv.Over(want) {
				wantViols = append(wantViols, checker.Violation{Property: inv.ID, Detail: inv.Description})
			}
		}
	}
	var what string
	switch {
	case c.shadow.fold != mm.hitFold:
		what = "digest"
	case len(m.Enabled(c.shadow, nil)) != 0:
		what = "transitions: it is no leaf"
	case word != want:
		what = fmt.Sprintf("atom word: looked up %#x, evaluated %#x", word, want)
	case !slices.Equal(viols, wantViols):
		what = fmt.Sprintf("violations: looked up %v, evaluated %v", viols, wantViols)
	default:
		return true
	}
	c.leafErr = fmt.Sprintf("key %#x: the looked-up leaf differs from a real step in its %s", mm.hitKey, what)
	return false
}
