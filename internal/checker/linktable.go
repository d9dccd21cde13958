package checker

import (
	"math/bits"
	"slices"
	"sync"
)

// link is one slot of the link table: a stored state's fingerprint and
// its incoming search-tree edge. The work-stealing strategy cannot
// thread a trail through a stack, so a violation's trail is rebuilt by
// walking these links back to the root. The slot is pointer-free — the
// collector never scans the table — and holds no text: a lazy edge's
// label and steps are regenerated by replaying key forward from the
// root if a trail through it is ever materialized; an edge that cannot
// be replayed keeps them as a TrailStep in the shard's text slice.
//
// depth is the minimal known depth of the state: that of whichever
// path stored it first, lowered whenever a shorter path re-encounters
// it, so the final depths are the order-independent shortest-distance
// fixpoint. parent and key stay the first writer's — a genuine path,
// not necessarily a shortest one — and name an entry inserted earlier,
// which keeps the links acyclic.
type link struct {
	h      uint64 // h1 of the state
	parent uint64 // h1 of the predecessor state
	key    uint64 // Transition.Key of the edge
	depth  int32
	meta   uint32 // linkOccupied | linkExpanded | (1 + index into text)<<linkTextShift
}

const (
	linkOccupied = 1 << iota // the slot holds an entry; a zero slot is empty
	// linkExpanded marks a state whose counted expansion is claimed: it
	// arbitrates between the one expansion that feeds the
	// explored/matched counters and the depth-relaxation re-expansions
	// that only propagate improved depths.
	linkExpanded
	linkTextShift = iota
)

// linkShard is one lock stripe: an open-addressed, linear-probe table
// laid out and grown like digestSet (Fibonacci-multiply slot index,
// doubling at 75 % load, nothing allocated before the first insert) in
// one cache line, so neighbouring shards' mutexes never false-share.
//
//iotsan:padded
type linkShard struct {
	mu    sync.Mutex
	slots []link      // power-of-two length
	text  []TrailStep // Label and Steps of the edges that cannot be replayed
	n     int32       // entries stored
	shift uint8       // 64 - log2(len(slots))
	_     [3]byte
}

// linkTable is the frontier strategy's one concurrent table: visited
// set, parent links, depths and expansion claims of every stored state,
// one lock and one probe per operation, striped over 256 shards by h1's
// top byte. It is the frontier strategy's visited store (newStore
// returns it), the only one that strategy runs on.
type linkTable struct {
	shards [256]linkShard
	// lazy is set when the system is a Replayer: an edge with a replay
	// key and no eager steps then stores no text.
	lazy bool
}

// slot walks h's probe sequence to the slot that holds h or, failing
// that, the empty slot where h belongs. The table is allocated and the
// load bound guarantees an empty slot exists.
func (sh *linkShard) slot(h uint64) *link {
	mask := uint64(len(sh.slots) - 1)
	for i := h * slotMix >> sh.shift; ; i = (i + 1) & mask {
		if s := &sh.slots[i]; s.meta&linkOccupied == 0 || s.h == h {
			return s
		}
	}
}

// grow doubles the shard's table (or allocates the first one) and
// re-inserts every entry.
func (sh *linkShard) grow() {
	old := sh.slots
	sh.slots = make([]link, max(2*len(old), digestSetMinSlots))
	sh.shift = uint8(64 - bits.TrailingZeros(uint(len(sh.slots))))
	for i := range old {
		if old[i].meta&linkOccupied != 0 {
			*sh.slot(old[i].h) = old[i]
		}
	}
}

// find locks h's shard and returns it with h's entry, nil when h is not
// stored. The caller unlocks.
func (t *linkTable) find(h uint64) (*linkShard, *link) {
	sh := &t.shards[h>>56]
	sh.mu.Lock()
	if len(sh.slots) != 0 {
		if s := sh.slot(h); s.meta&linkOccupied != 0 {
			return sh, s
		}
	}
	return sh, nil
}

// admit offers the state h, reached at depth through tr from parent
// (tr nil: the root, which has no edge). A state not yet stored is,
// with that edge: fresh. Otherwise, with relax set, a depth below the
// recorded one replaces it — the CAS-min of the strategy's
// deterministic clipping — and improved tells the caller to re-enqueue
// the state, so the shorter distance reaches its descendants (and a
// state first stored at the depth bound gets expanded after all).
func (t *linkTable) admit(h, parent uint64, depth int32, tr *Transition, relax bool) (fresh, improved bool) {
	sh := &t.shards[h>>56]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if int(sh.n) >= len(sh.slots)/4*3 {
		sh.grow()
	}
	s := sh.slot(h)
	if s.meta&linkOccupied != 0 {
		if improved = relax && depth < s.depth; improved {
			s.depth = depth
		}
		return false, improved
	}
	*s = link{h: h, parent: parent, depth: depth, meta: linkOccupied}
	if tr != nil {
		s.key = tr.Key
		if !t.lazy || tr.Key == 0 || tr.Steps != nil {
			sh.text = append(sh.text, TrailStep{Label: tr.Label, Steps: tr.Steps})
			s.meta |= uint32(len(sh.text)) << linkTextShift
		}
	}
	sh.n++
	return true, false
}

// seen and size make the table the visited store of the frontier
// search: the strategy admits successors through admit, and seen serves
// the root.
func (t *linkTable) seen(d digest) bool {
	fresh, _ := t.admit(d.h1, 0, 0, nil, false)
	return !fresh
}

func (t *linkTable) size() (n int) {
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += int(t.shards[i].n)
		t.shards[i].mu.Unlock()
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
	sh, s := t.find(h)
	defer sh.mu.Unlock()
	if counted = s.depth < bound && s.meta&linkExpanded == 0; counted {
		s.meta |= linkExpanded
	}
	return s.depth, counted
}

// scan walks the final depths after the search drains: the deepest
// stored state's minimal depth, and whether any state sits at or beyond
// bound (stored but never expanded — the deterministic truncation
// signal: the fixpoint does not depend on the order paths arrived in).
func (t *linkTable) scan(bound int32) (maxDepth int32, clipped bool) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for j := range sh.slots {
			if s := &sh.slots[j]; s.meta&linkOccupied != 0 {
				maxDepth = max(maxDepth, s.depth)
				clipped = clipped || s.depth >= bound
			}
		}
		sh.mu.Unlock()
	}
	return maxDepth, clipped
}

// brokenTrail heads a trail whose links ended before the root: an
// engine bug that must show, as the lazy steps behind it cannot replay.
const brokenTrail = "<trail incomplete: parent links end before the initial state>"

// trailTo rebuilds the trail from the root to the state h by walking
// parent links down to the depth-0 entry; the first step carries root,
// the initial state, so lazy steps can be materialized by forward
// replay. The walk is the first-found path, which can be longer than
// the state's (minimal) depth and than Options.MaxDepth.
func (t *linkTable) trailTo(h uint64, root State) []TrailStep {
	var rev []TrailStep
	for walking := true; walking; {
		sh, s := t.find(h)
		walking = s != nil && s.depth != 0
		if s == nil {
			rev = append(rev, TrailStep{Label: brokenTrail})
		} else if walking {
			var step TrailStep
			if i := s.meta >> linkTextShift; i != 0 {
				step = sh.text[i-1]
			}
			step.Key = s.key
			rev = append(rev, step)
			h = s.parent
		}
		sh.mu.Unlock()
	}
	slices.Reverse(rev)
	if len(rev) > 0 {
		rev[0].From = root
	}
	return rev
}
