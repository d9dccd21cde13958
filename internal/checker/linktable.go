package checker

import (
	"math/bits"
	"sync"
)

// linkExpanded is the low bit of a slot's meta, depth<<1 | linkExpanded:
// it marks a state whose counted expansion is claimed, arbitrating
// between the one expansion that feeds the explored/matched counters
// and the depth-relaxation re-expansions that only propagate improved
// depths.
//
// depth, the rest of the meta, is the minimal known depth of the state:
// that of whichever path stored it first, lowered whenever a shorter
// path re-encounters it, so the final depths are the order-independent
// shortest-distance fixpoint.
const linkExpanded = 1

// linkShard is one lock stripe: an open-addressed, linear-probe table
// laid out and grown like digestSet (Fibonacci-multiply slot index,
// doubling at 75 % load, nothing allocated before the first insert) in
// one cache line, so neighbouring shards' mutexes never false-share.
//
// words is the whole table in one pointer-free allocation — the
// collector never scans it — made per growth: n key words (0 = empty),
// then n/2 words that pack each slot's meta, two 32-bit halves to a
// word. That is 12 bytes a slot. The zero key lives in the header.
//
//iotsan:padded
type linkShard struct {
	mu    sync.Mutex
	words []uint64
	zmeta uint64 // the zero key's meta, when zero is set
	n     int32  // non-zero keys stored
	shift uint8  // 64 - log2(slots)
	zero  bool   // the zero key is stored
	_     [18]byte
}

// linkTable is the frontier strategy's one concurrent table: visited
// set, minimal depths and expansion claims of every stored state, one
// lock and one probe per operation, striped over 256 shards by h1's top
// byte. It is the frontier strategy's visited store (newStore returns
// it), the only one that strategy runs on. It keeps no trails: those
// ride on the deque entries (stealEntry.path).
type linkTable struct {
	shards [256]linkShard
}

// metaRef addresses one slot's meta: the 32-bit half of *w at bit s.
type metaRef struct {
	w *uint64
	s uint
}

func (m metaRef) get() uint32 { return uint32(*m.w >> m.s) }

func (m metaRef) set(v uint32) { *m.w = *m.w&^(0xffffffff<<m.s) | uint64(v)<<m.s }

// slots is the shard's slot count, 0 before the first insert.
func (sh *linkShard) slots() int { return len(sh.words) / 3 * 2 }

// meta addresses slot i's meta in a shard table words.
func meta(words []uint64, i uint64) metaRef {
	return metaRef{&words[uint64(len(words)/3*2)+i/2], uint(i&1) * 32}
}

// probe walks h's probe sequence to the slot that holds h or, failing
// that, the empty slot where h belongs. h is non-zero and the table
// allocated; the load bound guarantees an empty slot exists.
func (sh *linkShard) probe(h uint64) (i uint64, found bool) {
	mask := uint64(sh.slots() - 1)
	for i = h * slotMix >> sh.shift; ; i = (i + 1) & mask {
		switch sh.words[i] {
		case h:
			return i, true
		case 0:
			return i, false
		}
	}
}

// grow doubles the shard's table (or allocates the first one) and
// re-inserts every key with its meta.
func (sh *linkShard) grow() {
	old, slots := sh.words, sh.slots()
	n := max(2*slots, digestSetMinSlots)
	sh.words = make([]uint64, n+n/2)
	sh.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for i, k := range old[:slots] {
		if k != 0 {
			j, _ := sh.probe(k)
			sh.words[j] = k
			meta(sh.words, j).set(meta(old, uint64(i)).get())
		}
	}
}

// find locks h's shard and returns it with h's meta; ok is false when
// h is not stored. The caller unlocks.
func (t *linkTable) find(h uint64) (sh *linkShard, m metaRef, ok bool) {
	sh = &t.shards[h>>56]
	sh.mu.Lock()
	switch {
	case h == 0:
		return sh, metaRef{w: &sh.zmeta}, sh.zero
	case len(sh.words) == 0:
		return sh, metaRef{}, false
	}
	i, ok := sh.probe(h)
	return sh, meta(sh.words, i), ok
}

// admit offers the state h, reached at depth. A state not yet stored
// is: fresh. Otherwise, with relax set, a depth below the recorded one
// replaces it — the CAS-min of the strategy's deterministic clipping —
// and improved tells the caller to re-enqueue the state, so the shorter
// distance reaches its descendants (and a state first stored at the
// depth bound gets expanded after all).
func (t *linkTable) admit(h uint64, depth int32, relax bool) (fresh, improved bool) {
	sh := &t.shards[h>>56]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := metaRef{w: &sh.zmeta}
	if h == 0 {
		fresh, sh.zero = !sh.zero, true
	} else {
		if int(sh.n) >= sh.slots()/4*3 {
			sh.grow()
		}
		i, found := sh.probe(h)
		m, fresh = meta(sh.words, i), !found
		if fresh {
			sh.words[i] = h
			sh.n++
		}
	}
	if fresh {
		m.set(uint32(depth) << 1)
		return true, false
	}
	if v := m.get(); relax && depth < int32(v>>1) {
		m.set(uint32(depth)<<1 | v&linkExpanded)
		return false, true
	}
	return false, false
}

// seen and size make the table the visited store of the frontier
// search: the strategy admits successors through admit, and seen serves
// the root.
func (t *linkTable) seen(d digest) bool {
	fresh, _ := t.admit(d.h1, 0, false)
	return !fresh
}

func (t *linkTable) size() (n int) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += int(sh.n)
		if sh.zero {
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// claimExpansion reads the minimal depth of h — stored: a state is
// admitted before it is queued — and, unless the depth sits at or
// beyond bound, where the state must stay unexpanded so a later
// relaxation below the bound can still claim it, claims the counted
// expansion, under one shard lock (this runs once per pop). counted
// reports whether this caller won the claim: exactly one expansion of
// each state feeds the explored/matched counters; later re-expansions
// (depth relaxation) run with counting suppressed.
func (t *linkTable) claimExpansion(h uint64, bound int32) (depth int32, counted bool) {
	sh, m, _ := t.find(h)
	defer sh.mu.Unlock()
	v := m.get()
	depth = int32(v >> 1)
	if counted = depth < bound && v&linkExpanded == 0; counted {
		m.set(v | linkExpanded)
	}
	return depth, counted
}

// scan walks the final depths after the search drains: the deepest
// stored state's minimal depth, and whether any state sits at or beyond
// bound (stored but never expanded — the deterministic truncation
// signal: the fixpoint does not depend on the order paths arrived in).
func (t *linkTable) scan(bound int32) (maxDepth int32, clipped bool) {
	see := func(v uint32) {
		d := int32(v >> 1)
		maxDepth = max(maxDepth, d)
		clipped = clipped || d >= bound
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if sh.zero {
			see(uint32(sh.zmeta))
		}
		for j, k := range sh.words[:sh.slots()] {
			if k != 0 {
				see(meta(sh.words, uint64(j)).get())
			}
		}
		sh.mu.Unlock()
	}
	return maxDepth, clipped
}
