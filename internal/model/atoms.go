package model

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"iotsan/internal/checker"
)

// Atom is one named predicate of an invariant catalog: a pure function
// of the device attributes in Reads and, with ReadsMode, of the
// location mode — and of nothing else in the state. The declaration is
// load-bearing: a state inherits its parent's atom values and Inspect
// re-evaluates only the atoms that read a block the transition touched,
// so a read missing from the declaration is a stale value and can be a
// wrong "safe". Build an atom's Holds from the very refs it declares.
type Atom struct {
	Name      string
	Holds     func(s *State) bool
	Reads     []AttrRef
	ReadsMode bool
}

// MaxAtoms is how many atoms one table holds: a valuation is one word.
const MaxAtoms = 64

// AtomTable is the slot-indexed atom table of one invariant catalog,
// resolved against one Plan's devices. The valuation of a state is the
// word whose bit i is Atoms[i].Holds(state); every invariant of the
// catalog is a boolean function of that word (Invariant.Over), so the
// whole catalog's answer is too. Immutable once NewAtomTable returns.
type AtomTable struct {
	Atoms []Atom

	devKey string
	all    uint64 // one bit per atom
	// readers[b] is the atoms whose value block b can change: block 0 is
	// the header (mode atoms), block 1+d device d. No atom reads an app,
	// queue or command-log block.
	readers []uint64
}

// NewAtomTable builds the table of atoms, which must have been resolved
// against p's devices.
func (p *Plan) NewAtomTable(atoms []Atom) (*AtomTable, error) {
	if len(atoms) > MaxAtoms {
		return nil, fmt.Errorf("model: %d atoms do not fit one %d-bit valuation", len(atoms), MaxAtoms)
	}
	t := &AtomTable{Atoms: atoms, devKey: p.devKey, readers: make([]uint64, 1+len(p.Devices))}
	for i, a := range atoms {
		bit := uint64(1) << uint(i)
		t.all |= bit
		if a.ReadsMode {
			t.readers[0] |= bit
		}
		for _, r := range a.Reads {
			t.readers[1+r.Dev] |= bit
		}
	}
	return t, nil
}

// Valuation evaluates every atom on s from scratch: the reference the
// per-state word is tested against.
func (t *AtomTable) Valuation(s *State) uint64 {
	var word uint64
	for i := range t.Atoms {
		if t.Atoms[i].Holds(s) {
			word |= 1 << uint(i)
		}
	}
	return word
}

// AtomWord returns the valuation the state carries and which of its
// bits are known current: after Inspect, the settled word and every atom
// of the table. For tests — Inspect is the only reader that matters.
func (s *State) AtomWord() (word, fresh uint64) { return s.atoms, s.atomFresh }

// settle re-evaluates the atoms of s that are not known fresh and
// returns the state's valuation, now recorded on it as fresh. Like
// refreshBlocks it writes to the state, so it runs where the engine
// inspects: on the one worker that owns s, before s is published.
func (t *AtomTable) settle(s *State) uint64 {
	word := s.atoms
	for stale := t.all &^ s.atomFresh; stale != 0; stale &= stale - 1 {
		i := bits.TrailingZeros64(stale)
		if t.Atoms[i].Holds(s) {
			word |= 1 << uint(i)
		} else {
			word &^= 1 << uint(i)
		}
	}
	s.atoms, s.atomFresh = word, t.all
	return word
}

// staleTouched withdraws the freshness of every atom that reads a block
// in s's dirty mask: the blocks a transition into s wrote, on top of
// whatever was already stale on the state it started from. Only ever
// clears bits, so an atom nobody settled on the parent stays stale on
// the child. Without a block cache nothing records what was written and
// every atom goes stale.
func (t *AtomTable) staleTouched(s *State) {
	if s.dirtyMask == nil {
		s.atomFresh = 0
		return
	}
	for wi, word := range s.dirtyMask {
		for ; word != 0; word &= word - 1 {
			if b := wi<<6 + bits.TrailingZeros64(word); b < len(t.readers) {
				s.atomFresh &^= t.readers[b]
			}
		}
	}
}

// verdict is what the catalog says about every state whose valuation is
// word. Immutable once published.
type verdict struct {
	word  uint64
	viols []checker.Violation
}

// verdictCache maps a valuation to its verdict, exactly (the key is the
// whole word), for one Model. A search reaches a few hundred to a few
// thousand distinct valuations over hundreds of thousands of states, so
// nearly every Inspect is a hit, and a hit is atomic loads only: slots
// are filled once and never rewritten, and a table that fills up is
// replaced by a larger copy with one pointer store. Misses serialise on
// mu.
type verdictCache struct {
	table atomic.Pointer[verdictTable]
	mu    sync.Mutex
	n     int // verdicts published; guarded by mu
}

type verdictTable struct {
	slots []atomic.Pointer[verdict] // power-of-two length, at most half full
	shift uint
}

func newVerdictTable(logSize uint) *verdictTable {
	return &verdictTable{slots: make([]atomic.Pointer[verdict], 1<<logSize), shift: 64 - logSize}
}

// find returns word's verdict and, when it has none yet, the slot it
// belongs in.
func (t *verdictTable) find(word uint64) (*verdict, *atomic.Pointer[verdict]) {
	mask := uint64(len(t.slots) - 1)
	for i := word * mixMult >> t.shift; ; i = (i + 1) & mask {
		slot := &t.slots[i]
		if v := slot.Load(); v == nil || v.word == word {
			return v, slot
		}
	}
}

func (c *verdictCache) get(word uint64) *verdict {
	if t := c.table.Load(); t != nil {
		v, _ := t.find(word)
		return v
	}
	return nil
}

// decideOnce runs the catalog over a valuation the cache missed and
// publishes the verdict — unless another worker got there first — and
// returns the published one.
func (m *Model) decideOnce(word uint64) *verdict {
	c := &m.verdicts
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.table.Load()
	if t == nil {
		t = newVerdictTable(6)
		c.table.Store(t)
	}
	v, slot := t.find(word)
	if v != nil {
		return v
	}
	v = &verdict{word: word}
	for i := range m.decided {
		if inv := &m.decided[i]; !inv.Over(word) {
			v.viols = append(v.viols, checker.Violation{Property: inv.ID, Detail: inv.Description})
		}
	}
	// Capacity = length: appending to a verdict's violations, as Inspect
	// does for opaque invariants, copies instead of writing into it.
	v.viols = v.viols[:len(v.viols):len(v.viols)]
	if c.n++; 2*c.n > len(t.slots) {
		grown := newVerdictTable(65 - t.shift)
		for i := range t.slots {
			if old := t.slots[i].Load(); old != nil {
				_, s := grown.find(old.word)
				s.Store(old)
			}
		}
		c.table.Store(grown)
		_, slot = grown.find(word)
	}
	slot.Store(v)
	return v
}

// VerdictsDecided returns how many distinct valuations the model's
// catalog has been run over so far: Inspect's misses.
func (m *Model) VerdictsDecided() int {
	m.verdicts.mu.Lock()
	defer m.verdicts.mu.Unlock()
	return m.verdicts.n
}

// Inspect evaluates the safe-physical-state invariants on a state (§8
// "Safety Properties"). The catalog's part is refresh, look up, decide
// on a miss: settle the state's atom word, and run the invariants'
// formulas over it only the first time this model meets that word. The
// violations of catalog invariants come first, in Options.Invariants
// order, then those of the opaque ones, which are evaluated on a View of
// every inspected state. The result may be shared with other states of
// the same valuation: callers must not write to it.
func (m *Model) Inspect(s *State) []checker.Violation {
	var out []checker.Violation
	if m.atoms != nil {
		word := m.atoms.settle(s)
		v := m.verdicts.get(word)
		if v == nil {
			v = m.decideOnce(word)
		}
		out = v.viols
	}
	if len(m.opaque) == 0 {
		return out
	}
	view := &View{M: m, S: s}
	for i := range m.opaque {
		if inv := &m.opaque[i]; !inv.Holds(view) {
			out = append(out, checker.Violation{Property: inv.ID, Detail: inv.Description})
		}
	}
	return out
}
