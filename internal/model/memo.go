package model

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync/atomic"

	"iotsan/internal/checker"
	"iotsan/internal/ir"
)

// Transition memo: step by lookup, apply by lookup.
//
// Most successors a search generates are duplicates, and each still
// runs its whole cascade and re-hashes what it wrote before the visited
// store rejects it. But a transition is a function of what it reads: a
// parent that agrees with a recorded run on every block that run read
// makes the same reads, so it writes the same blocks with the same
// contents (by induction over the run's steps). So after a real step a
// scratch records one entry:
//
//   - key: the stub, plus the parent's cached hash of every block the
//     step read or wrote — the executors report reads through the read
//     helpers below, the read half of the mark contract, and writes
//     through the mark helpers (incremental.go);
//   - value: the change the written blocks make to the fold, the new
//     command-log block, the new mode and the edge violations.
//
// Predict then returns a successor's digest and edge violations with
// one table probe per footprint shape the stub has shown, and the
// engine skips Step for a successor the store has already seen.
//
// A successor the store reports new is stepped: the engine calls Step
// and requires the digest and violations it gives to equal the
// prediction (checker.Predictor). The same argument licenses storing
// the written contents too, so a confirming Step is served three ways
// over an entry's life:
//
//   - first use: the scratch steps for real, and once the step is
//     settled the memo captures every block it wrote — contents and
//     hash — into flat arenas (capture), so the engine's check of this
//     step is the check of what was captured;
//   - second use: the scratch splices the captured contents onto the
//     parent and re-hashes them (Scratch.splice), so the engine's check
//     now holds the captured bytes themselves to the prediction;
//   - every later use: the splice copies the captured hashes too and
//     sets the fold to the prediction. No handler runs and nothing is
//     encoded.
//
// And from a later use on, a successor at the event bound — a leaf — is
// not stepped at all: the engine asks InspectLeaf, which tells its atom
// word, and so its verdict, from the parent's and what the entry's
// earlier splices recorded (leaf.go).
//
// An entry that writes a dynamic (KV-map) app is never captured and
// keeps being stepped.
//
// The header is keyed field by field. Mode is keyed when the step read
// or changed it. EventsUsed is keyed only when a handler read the clock
// (Now); otherwise the step's +1 is applied to the parent's own header.
// The command-log block is never keyed: beginTransition clears the log,
// so a cascade reads only the commands it issued itself, and the
// in-flight buffer that shares the block is empty without Faults.
//
// The memo runs only where the engine digest is the raw block fold and
// every transition begins with beginTransition: the sequential design,
// with Incremental on, without Faults or InspectCascade (whose
// mid-cascade Inspect reads the whole state), and for keyed stubs (a
// keyless timer records its steps, which a prediction cannot give). The
// engine asks on either strategy, but not under a symmetry fold (a
// canonical digest is not a fold of raw block hashes), and a scratch it
// never asks records nothing. Steps from the initial state are not
// recorded, so a one-event search does no memo work. The arenas are
// sized at the first recording: allocated then, or taken over from the
// search the worker ran before (Arenas) and allocated only where they
// are too small.

// Header fields a transition read (executor.hdrReads).
const (
	readModeBit = 1 << iota
	readNowBit
)

// readBlock records a read of block b while the step is being recorded.
func (x *executor) readBlock(b int) {
	if x.reads != nil {
		x.reads[b>>6] |= 1 << uint(b&63)
	}
}

// The read helpers below are the read half of the mark contract: every
// read of block-backed State storage in transition code — an executor
// method, or a function annotated //iotsan:transition — must be paired
// with the matching helper in the same function. A missed read is a
// memo key too short: the memo would predict, and splice, the successor
// of a parent that differs from the recorded one in the unmarked block.
// The
// //iotsan:reads annotations teach the readmark analyzer
// (internal/analysis) the read→helper map.

//iotsan:reads device
func (x *executor) readDevice(d int) { x.readBlock(1 + d) }

//iotsan:reads app
func (x *executor) readApp(i int) { x.readBlock(1 + len(x.s.Devices) + i) }

//iotsan:reads queue
func (x *executor) readQueue() { x.readBlock(x.s.queueBlock()) }

//iotsan:reads cmds
func (x *executor) readCmds() { x.readBlock(x.s.cmdsBlock()) }

//iotsan:reads header
func (x *executor) readMode() { x.hdrReads |= readModeBit }

//iotsan:reads header
func (x *executor) readNow() { x.hdrReads |= readNowBit }

// memoCap bounds a memo's entries. A full memo records nothing more and
// goes on predicting from what it holds. memoInit is how many entries
// the first recording makes room for at once: a search that records
// fewer allocates nothing more, whatever its size, and one whose memo
// took over larger arenas allocates nothing for them.
const (
	memoCap  = 1 << 15
	memoInit = 1 << 8
)

// memo is one scratch's transition memo: insert-only, in flat arenas,
// for one search.
type memo struct {
	on    bool // the model's transitions can be memoized (NewScratch)
	armed bool // the engine has asked for a prediction: real steps record

	memoArenas
	nLeaves int // keys in leaves

	pt parentTerms

	// hitSerial and hitKey name the last (parent, stub) Predict answered
	// for: the engine steps it only to confirm the prediction. hitEntry
	// is the entry Predict answered from, and hitMode, hitHeader and
	// hitFold the successor's mode, header-block hash and digest, which a
	// splice installs.
	hitSerial, hitKey uint64
	hitEntry          int32
	hitMode           uint8
	hitHeader         uint64
	hitFold           [2]uint64
}

// memoArenas are the arrays a memo records into. A search's memo starts
// with none, or with the arenas of the search its worker ran before
// (Arenas), emptied.
type memoArenas struct {
	reads       []uint64 // the executor's read mask while a step records; empty until the first recording
	heads       []int32  // a stub's newest shape, 1-based, by stubSlot
	timerBase   []int32  // each app's first timer slot in heads
	shapes      []memoShape
	shapeBlocks []int32 // every shape's blocks, ascending
	entries     []memoEntry
	slots       []int32  // open addressing over entries by fingerprint, 1-based
	hashes      []uint64 // every entry's parent block hashes, in its shape's block order
	viols       []checker.Violation

	// The captured contents of every entry's written blocks (capture):
	// one memoBlock per block, its contents in the arena of its kind.
	blocks  []memoBlock
	cattrs  []int16
	cslots  []ir.Value
	ctimers []Timer
	cqueue  []Pending
	ccmds   []CmdRec

	// The leaf lookup's arenas (leaf.go): every entry's read devices, and
	// the recorded atom bits of its leaf successors by parent.
	leafDevs []int32
	leaves   []memoLeaf

	footprint []int32 // a recording's footprint, reused
}

// reset empties the arenas for another search and keeps their arrays:
// the two probe tables are cleared, the rest cut to length 0 (the
// captured slot values cleared first, so the arena holds on to nothing
// they reference). The arrays sized to a model are resized at the next
// search's first recording.
func (a *memoArenas) reset() {
	clear(a.slots)
	clear(a.leaves)
	clear(a.cslots)
	a.reads, a.heads, a.timerBase = a.reads[:0], a.heads[:0], a.timerBase[:0]
	a.shapes, a.shapeBlocks, a.entries = a.shapes[:0], a.shapeBlocks[:0], a.entries[:0]
	a.hashes, a.viols = a.hashes[:0], a.viols[:0]
	a.blocks, a.cattrs, a.cslots = a.blocks[:0], a.cattrs[:0], a.cslots[:0]
	a.ctimers, a.cqueue, a.ccmds = a.ctimers[:0], a.cqueue[:0], a.ccmds[:0]
	a.leafDevs, a.footprint = a.leafDevs[:0], a.footprint[:0]
}

// Arenas hands a finished search's memo arenas to the next search over
// a model built with them (Options.Arenas): the iotsan group scheduler
// gives each of its workers one, so the memo of every related set after
// a worker's first records into the arrays the last one grew, and
// allocates only where it outgrows them. The first scratch a search
// makes borrows them; Reclaim, once the search is over, takes them back
// emptied. An Arenas serves one search at a time; the zero value holds
// nothing.
type Arenas struct {
	held memoArenas
	lent atomic.Pointer[memo] // the memo holding them, until Reclaim
}

// lend gives the held arenas to mm, the memo of a new scratch, unless a
// scratch of this search already has them.
func (a *Arenas) lend(mm *memo) {
	if a != nil && a.lent.CompareAndSwap(nil, mm) {
		mm.memoArenas, a.held = a.held, memoArenas{}
	}
}

// Reclaim takes the arenas back from the search that borrowed them, and
// empties them; it drops them instead when they grew past room for
// keptEntries entries or keptLeafSlots leaf slots. Call it once that
// search has returned (checker.Run): its trails are materialised and
// its scratches dead.
func (a *Arenas) Reclaim() {
	if a == nil {
		return
	}
	if mm := a.lent.Swap(nil); mm != nil {
		a.held, mm.memoArenas = mm.memoArenas, memoArenas{}
		if cap(a.held.entries) > keptEntries || len(a.held.leaves) > keptLeafSlots {
			a.held = memoArenas{}
		}
		a.held.reset()
	}
}

// keptEntries and keptLeafSlots bound the arenas an Arenas keeps, the
// largest of them about 100 KB each: the memo of every market_t5
// related set fits (at most 302 entries and 2,048 leaf slots).
const (
	keptEntries   = 1 << 10
	keptLeafSlots = 1 << 12
)

// memoShape is one footprint a stub's steps have shown: the blocks they
// read or wrote, and which header fields are keyed.
type memoShape struct {
	next      int32 // the stub's previous shape, 1-based (0 = none)
	off, n    int32 // shapeBlocks[off : off+n]
	mode, now bool
}

// memoEntry is one recorded transition.
type memoEntry struct {
	stub   uint64
	fp     uint64
	delta  [2]uint64 // written blocks' fold change plus the new command-log term
	events int       // the parent's EventsUsed, when the shape keys the clock
	shape  int32
	hashes int32 // the key's parent block hashes: hashes[hashes : hashes+shape.n]
	viols  int32 // the edge violations: viols[viols : viols+nViols]
	nViols int32
	mode   uint8 // the parent's mode, when the shape keys it
	next   uint8 // the successor's mode
	use    uint8 // how the next confirming Step is served: memoStep, memoRehash, memoSplice or memoNever
	// The written blocks, once captured: blocks[content : content+nContent].
	content, nContent int32
	// What a leaf lookup of the entry's successor needs, set at its first
	// splice (leafSets, leaf.go): latoms the atoms the entry can change,
	// the device blocks outside its written set that they read at
	// leafDevs[ldevs : ldevs+nldevs], and noLeaf when it is never looked up.
	latoms        uint64
	ldevs, nldevs int32
	noLeaf        bool
}

// How an entry's next confirming Step is served.
const (
	memoStep   = iota // stepped for real, and captured once settled
	memoRehash        // spliced, with the captured blocks re-hashed
	memoSplice        // spliced, with the captured hashes
	memoNever         // stepped for real: the entry writes what a splice does not copy
)

// memoBlock is one block a captured entry writes: its index and hash
// after the step, and where its contents sit in the memo's arenas.
type memoBlock struct {
	hash   uint64
	b      int32
	off, n int32 // device attrs, app slots, queue or command-log window
	toff   int32 // an app's timers: ctimers[toff : toff+tn]
	tn     int32
	last   int  // a device's LastReport
	flag   bool // a device's Online, an app's Unsubscribed
	ref    bool // an app's devRefMask bit
}

// parentTerms caches the fold terms that depend on the parent, keyed by
// its serial: states are recycled, so a pointer could name another
// state later.
type parentTerms struct {
	serial     uint64
	base       [2]uint64 // the parent's fold without its header and command-log terms
	same       [2]uint64 // the header term of a successor that keeps the parent's mode
	sameHeader uint64    // and that successor's header-block hash
}

// confirming returns the entry the last Predict answered from, when
// the step of stub from p is the one it answered for, and nil otherwise.
// A step is confirming once: the answer is spent.
func (mm *memo) confirming(p *State, stub *checker.Transition) *memoEntry {
	if p.serial == 0 || p.serial != mm.hitSerial || stub.Key != mm.hitKey {
		return nil
	}
	mm.hitSerial = 0
	return &mm.entries[mm.hitEntry]
}

// records reports whether the step of stub from p is to be recorded.
func (mm *memo) records(p *State, stub *checker.Transition) bool {
	return mm.armed && stub.Key&keyMark != 0 && p.EventsUsed > 0 && len(mm.entries) < memoCap && p.cacheSettled()
}

// stubSlot numbers the keyed stubs a memo serves densely: an external
// event under each failure mode, then each app's methods fired as
// timers under each.
func (mm *memo) stubSlot(key uint64) int {
	fm := int(key & 3)
	switch key >> keyKindPos & 3 {
	case keyKindExt:
		return int(key>>2&(1<<59-1))<<2 | fm
	case keyKindTmr:
		return int(mm.timerBase[key>>32&(1<<29-1)]) + int(key>>2&(1<<30-1))<<2 | fm
	}
	return -1
}

// readMask returns the zeroed read mask of a recorded step, making
// room for the memo at the first: the arenas a previous search left
// (Arenas) are reused wherever they are large enough.
func (mm *memo) readMask(m *Model, hw int) []uint64 {
	if len(mm.reads) == 0 {
		mm.reads = zeroed(mm.reads, hw)
		mm.timerBase = zeroed(mm.timerBase, len(m.Apps))
		n := 4 * len(m.external)
		for i, a := range m.Apps {
			mm.timerBase[i] = int32(n)
			n += 4 * len(a.methodNames)
		}
		mm.heads = zeroed(mm.heads, n)
		mm.shapes = slices.Grow(mm.shapes, memoInit)
		mm.shapeBlocks = slices.Grow(mm.shapeBlocks, 4*memoInit)
		mm.entries = slices.Grow(mm.entries, memoInit)
		if len(mm.slots) == 0 {
			mm.slots = make([]int32, 2*memoInit)
		}
		mm.hashes = slices.Grow(mm.hashes, 4*memoInit)
		mm.viols = slices.Grow(mm.viols, memoInit/4)
	}
	clear(mm.reads)
	return mm.reads
}

// zeroed returns n zero elements in s's array, or in a new one when s's
// is too small.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Predict returns the digest and edge violations of stub's successor
// from p, when the scratch's memo holds a transition whose footprint p
// matches. The violations are the memo's storage, lent as
// checker.Predictor lends them: valid until the next Predict or Keep on
// this scratch. It never predicts where the memo does not run; its first
// call arms recording.
func (sc *Scratch) Predict(p *State, stub *checker.Transition) (h1, h2 uint64, viols []checker.Violation, ok bool) {
	mm := &sc.memo
	if !mm.on || stub.Key&keyMark == 0 {
		return 0, 0, nil, false
	}
	mm.armed = true
	if len(mm.entries) == 0 || !p.cacheSettled() {
		return 0, 0, nil, false
	}
	slot := mm.stubSlot(stub.Key)
	if slot < 0 {
		return 0, 0, nil, false
	}
	for si := mm.heads[slot]; si != 0; si = mm.shapes[si-1].next {
		ei := mm.find(mm.fingerprint(stub.Key, si, p), stub.Key, si, p)
		if ei < 0 {
			continue
		}
		e := &mm.entries[ei]
		t := mm.parentTerms(p)
		hdr, hh, mode := t.same, t.sameHeader, p.Mode
		if mm.shapes[si-1].mode && e.next != p.Mode {
			mode = e.next
			hh = headerHash(mode, p.EventsUsed+1, p.FaultsUsed)
			hdr[0], hdr[1] = foldTerms(0, hh)
		}
		if e.nViols > 0 {
			viols = mm.viols[e.viols : e.viols+e.nViols : e.viols+e.nViols]
		}
		h1, h2 = t.base[0]+e.delta[0]+hdr[0], t.base[1]+e.delta[1]+hdr[1]
		mm.hitSerial, mm.hitKey, mm.hitEntry = p.serial, stub.Key, ei
		mm.hitMode, mm.hitHeader, mm.hitFold = mode, hh, [2]uint64{h1, h2}
		return h1, h2, viols, true
	}
	return 0, 0, nil, false
}

// record adds the step just taken from p into s, the scratch's working
// state with its blocks refreshed, under key, unless the memo holds it.
func (mm *memo) record(s, p *State, key uint64, x *executor, viols []checker.Violation) {
	cmds := s.cmdsBlock()
	blocks := mm.footprint[:0]
	for wi, w := range s.touchMask {
		for w |= mm.reads[wi]; w != 0; w &= w - 1 {
			if b := wi<<6 + bits.TrailingZeros64(w); b != 0 && b != cmds {
				blocks = append(blocks, int32(b))
			}
		}
	}
	mm.footprint = blocks
	si := mm.shape(key, blocks, x.hdrReads&readModeBit != 0 || s.Mode != p.Mode, x.hdrReads&readNowBit != 0)
	fp := mm.fingerprint(key, si, p)
	if mm.find(fp, key, si, p) >= 0 {
		return
	}
	e := memoEntry{stub: key, fp: fp, shape: si, hashes: int32(len(mm.hashes)), events: p.EventsUsed, mode: p.Mode, next: s.Mode}
	for _, b := range blocks {
		mm.hashes = append(mm.hashes, p.blockHash[b])
		if s.touchMask[b>>6]&(1<<uint(b&63)) != 0 {
			n1, n2 := foldTerms(int(b), s.blockHash[b])
			o1, o2 := foldTerms(int(b), p.blockHash[b])
			e.delta[0] += n1 - o1
			e.delta[1] += n2 - o2
		}
	}
	c1, c2 := foldTerms(cmds, s.blockHash[cmds])
	e.delta[0] += c1
	e.delta[1] += c2
	e.viols, e.nViols = int32(len(mm.viols)), int32(len(viols))
	mm.viols = append(mm.viols, viols...)
	mm.entries = append(mm.entries, e)
	mm.insert(fp)
}

// capture stores what the step just taken wrote into s, the scratch's
// working state with its blocks refreshed, as the contents of entry e,
// which that step was the first use of: every written block but the
// header — contents, hash and, for an app, its device-reference bit —
// and the command-log block always, since a splice must clear the
// parent's log whether or not this step wrote it. An entry that writes a
// dynamic app, whose KV map a splice does not copy, is left to be
// stepped. (Fault state — Reported, InFlight — needs no copy: the memo
// does not run under Faults.)
func (mm *memo) capture(m *Model, s *State, e *memoEntry) {
	e.use = memoNever
	nDev, nApp, cmds := len(s.Devices), len(s.Apps), s.cmdsBlock()
	for wi, w := range s.touchMask {
		for ; w != 0; w &= w - 1 {
			if b := wi<<6 + bits.TrailingZeros64(w); b > nDev && b <= nDev+nApp && m.Apps[b-1-nDev].StateIdx == nil {
				return
			}
		}
	}
	e.content = int32(len(mm.blocks))
	for wi, w := range s.touchMask {
		for ; w != 0; w &= w - 1 {
			b := wi<<6 + bits.TrailingZeros64(w)
			if b == 0 || b == cmds {
				continue
			}
			cb := memoBlock{hash: s.blockHash[b], b: int32(b)}
			switch {
			case b <= nDev:
				d := &s.Devices[b-1]
				cb.flag, cb.last, cb.off = d.Online, d.LastReport, int32(len(mm.cattrs))
				mm.cattrs = append(mm.cattrs, d.Attrs...)
			case b <= nDev+nApp:
				a := &s.Apps[b-1-nDev]
				cb.flag, cb.ref = a.Unsubscribed, s.appHasDevRef(b-1-nDev)
				cb.off, cb.n = int32(len(mm.cslots)), int32(len(a.Slots))
				for _, v := range a.Slots {
					mm.cslots = append(mm.cslots, v.Clone())
				}
				cb.toff, cb.tn = int32(len(mm.ctimers)), int32(len(a.Timers))
				mm.ctimers = append(mm.ctimers, a.Timers...)
			default: // the queue
				cb.off, cb.n = int32(len(mm.cqueue)), int32(len(s.Queue))
				mm.cqueue = append(mm.cqueue, s.Queue...)
			}
			mm.blocks = append(mm.blocks, cb)
		}
	}
	mm.blocks = append(mm.blocks, memoBlock{hash: s.blockHash[cmds], b: int32(cmds), off: int32(len(mm.ccmds)), n: int32(len(s.Cmds))})
	mm.ccmds = append(mm.ccmds, s.Cmds...)
	e.nContent = int32(len(mm.blocks)) - e.content
	e.use = memoRehash
}

// shape returns the 1-based index of key's shape over blocks, adding it
// when the stub has not shown it yet.
func (mm *memo) shape(key uint64, blocks []int32, mode, now bool) int32 {
	slot := mm.stubSlot(key)
	head := mm.heads[slot]
	for si := head; si != 0; si = mm.shapes[si-1].next {
		sh := &mm.shapes[si-1]
		if sh.mode == mode && sh.now == now && slices.Equal(mm.shapeBlocks[sh.off:sh.off+sh.n], blocks) {
			return si
		}
	}
	mm.shapes = append(mm.shapes, memoShape{next: head, off: int32(len(mm.shapeBlocks)), n: int32(len(blocks)), mode: mode, now: now})
	mm.shapeBlocks = append(mm.shapeBlocks, blocks...)
	si := int32(len(mm.shapes))
	mm.heads[slot] = si
	return si
}

// fingerprint hashes the key p presents to shape si of stub key. It
// only spreads entries over the slot table: find compares whole keys.
func (mm *memo) fingerprint(key uint64, si int32, p *State) uint64 {
	sh := &mm.shapes[si-1]
	h := (key ^ uint64(si)) * mixMult
	if sh.mode {
		h = (h ^ uint64(p.Mode)) * mixMult
	}
	if sh.now {
		h = (h ^ uint64(p.EventsUsed)) * mixMult
	}
	for _, b := range mm.shapeBlocks[sh.off : sh.off+sh.n] {
		h = (h ^ p.blockHash[b]) * mixMult
	}
	return splitmix64(h)
}

// find returns the index of the entry of shape si of stub key whose key
// p matches, or -1.
func (mm *memo) find(fp, key uint64, si int32, p *State) int32 {
	sh := &mm.shapes[si-1]
	mask := uint64(len(mm.slots) - 1)
	for i := fp & mask; mm.slots[i] != 0; i = (i + 1) & mask {
		e := &mm.entries[mm.slots[i]-1]
		if e.fp != fp || e.stub != key || e.shape != si || sh.mode && e.mode != p.Mode || sh.now && e.events != p.EventsUsed {
			continue
		}
		if mm.keyMatches(e, sh, p) {
			return mm.slots[i] - 1
		}
	}
	return -1
}

func (mm *memo) keyMatches(e *memoEntry, sh *memoShape, p *State) bool {
	hs := mm.hashes[e.hashes : e.hashes+sh.n]
	for i, b := range mm.shapeBlocks[sh.off : sh.off+sh.n] {
		if p.blockHash[b] != hs[i] {
			return false
		}
	}
	return true
}

// insert adds the newest entry to the slot table, doubling it first
// when it would be more than half full.
func (mm *memo) insert(fp uint64) {
	if 2*len(mm.entries) <= len(mm.slots) {
		mm.place(fp, int32(len(mm.entries)))
		return
	}
	mm.slots = make([]int32, max(64, 2*len(mm.slots)))
	for i := range mm.entries {
		mm.place(mm.entries[i].fp, int32(i+1))
	}
}

func (mm *memo) place(fp uint64, ei int32) {
	mask := uint64(len(mm.slots) - 1)
	i := fp & mask
	for mm.slots[i] != 0 {
		i = (i + 1) & mask
	}
	mm.slots[i] = ei
}

// parentTerms returns p's fold terms, computing them on a new parent.
func (mm *memo) parentTerms(p *State) *parentTerms {
	t := &mm.pt
	if p.serial != 0 && t.serial == p.serial {
		return t
	}
	c := p.cmdsBlock()
	h1, h2 := foldTerms(0, p.blockHash[0])
	c1, c2 := foldTerms(c, p.blockHash[c])
	t.base = [2]uint64{p.fold[0] - h1 - c1, p.fold[1] - h2 - c2}
	t.sameHeader = headerHash(p.Mode, p.EventsUsed+1, p.FaultsUsed)
	t.same[0], t.same[1] = foldTerms(0, t.sameHeader)
	t.serial = p.serial
	return t
}

// headerHash returns the hash of a header block holding these fields.
//
//iotsan:digest-funnel
func headerHash(mode uint8, events int, faults int32) uint64 {
	var b [1 + 2*binary.MaxVarintLen64]byte
	return fnv1a64(appendHeader(b[:0], mode, events, faults))
}
