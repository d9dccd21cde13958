package checker

import (
	"sync"
	"sync/atomic"
)

// parentEdge is the incoming search-tree edge of a stored state: the
// work-stealing strategy cannot thread a trail through a stack, so every
// newly stored state records a link (state hash → parent hash +
// transition label/steps) and a violation's trail is reconstructed by
// walking the links back to the root. For lazy-trail systems, steps
// stays nil and key carries the replay handle instead: the edge then
// costs one word plus a (shared) label string, and the step strings are
// only produced — by replaying forward from the root state — if a trail
// through this edge is materialized. No per-edge state is retained.
//
// depth is the minimal known depth of the state: the depth of whichever
// path stored the state first, lowered through relax whenever a shorter
// path re-encounters the state, so the final depths are the
// order-independent shortest-distance fixpoint.
// expanded marks states whose counted expansion has been claimed; it
// arbitrates between the one expansion that contributes to the
// explored/matched counters and the depth-relaxation re-expansions that
// only propagate improved depths.
// provisional marks an entry created by relax before the storing
// worker's put landed: the visited store admits a state (seen) strictly
// before its parent edge is recorded, so a shorter path can re-encounter
// the state inside that window. The depth-only provisional entry
// preserves the improvement; put then merges the real edge into it.
type parentEdge struct {
	parent      uint64 // h1 of the predecessor state (rootHash for the root)
	label       string
	steps       []string
	key         uint64
	depth       int32
	expanded    bool
	provisional bool
}

// parentShards stripes the parent-link table; writes happen once per
// stored state, reads only during trail reconstruction.
const parentShards = 64

type parentStore struct {
	root         uint64
	rootState    State // initial state: forward replay of lazy trails starts here
	rootExpanded atomic.Bool
	shards       [parentShards]struct {
		mu sync.Mutex
		m  map[uint64]parentEdge
	}
}

func newParentStore(root uint64, rootState State) *parentStore {
	p := &parentStore{root: root, rootState: rootState}
	for i := range p.shards {
		p.shards[i].m = make(map[uint64]parentEdge)
	}
	return p
}

func (p *parentStore) put(h uint64, edge parentEdge) {
	sh := &p.shards[h>>58&(parentShards-1)]
	sh.mu.Lock()
	if ex, ok := sh.m[h]; !ok { // first writer wins: keep the search tree acyclic
		sh.m[h] = edge
	} else if ex.provisional {
		// A relax raced into the seen→put window and left a depth-only
		// placeholder: merge the real edge in, keeping the minimum depth
		// (and the expanded claim, if a re-enqueued copy already ran).
		if ex.depth < edge.depth {
			edge.depth = ex.depth
		}
		edge.expanded = ex.expanded
		sh.m[h] = edge
	}
	sh.mu.Unlock()
}

func (p *parentStore) get(h uint64) (parentEdge, bool) {
	sh := &p.shards[h>>58&(parentShards-1)]
	sh.mu.Lock()
	e, ok := sh.m[h]
	sh.mu.Unlock()
	return e, ok
}

// relax lowers the recorded depth of h to depth if that improves it —
// the CAS-min of the work-stealing strategy's deterministic clipping.
// It reports whether the depth improved; a caller seeing an improvement
// re-enqueues the state so the shorter distance propagates to its
// descendants (and so a state first stored at the depth bound becomes
// expandable once a shorter path reaches it).
func (p *parentStore) relax(h uint64, depth int32) bool {
	if h == p.root {
		return false // the root's depth 0 cannot improve
	}
	sh := &p.shards[h>>58&(parentShards-1)]
	sh.mu.Lock()
	e, ok := sh.m[h]
	if !ok {
		// The storing worker admitted h to the visited store but its
		// put has not landed yet. Record the depth provisionally so the
		// improvement cannot be lost to the race; no re-enqueue is
		// needed — the storing worker enqueues the state right after
		// its put, and that pop reads the merged (minimal) depth.
		sh.m[h] = parentEdge{depth: depth, provisional: true}
		sh.mu.Unlock()
		return false
	}
	improved := depth < e.depth
	if improved {
		e.depth = depth
		sh.m[h] = e
	}
	sh.mu.Unlock()
	return improved
}

// claimExpansion reads h's minimal depth and — unless the depth sits at
// or beyond bound, where the state must stay unexpanded so a later
// relaxation below the bound can still claim it — marks the counted
// expansion as claimed, all under one shard lock (this runs once per
// pop on the steal hot path). counted reports whether this caller won
// the claim: exactly one expansion of each state contributes to the
// explored/matched counters; later re-expansions (depth relaxation)
// run with counting suppressed.
func (p *parentStore) claimExpansion(h uint64, bound int32) (depth int32, counted bool) {
	if h == p.root {
		return 0, p.rootExpanded.CompareAndSwap(false, true)
	}
	sh := &p.shards[h>>58&(parentShards-1)]
	sh.mu.Lock()
	e, ok := sh.m[h]
	if !ok {
		sh.mu.Unlock()
		return 0, false
	}
	depth = e.depth
	if depth < bound && !e.expanded {
		e.expanded = true
		sh.m[h] = e
		counted = true
	}
	sh.mu.Unlock()
	return depth, counted
}

// scan walks the final depth table after the search drains, returning
// the deepest stored state's minimal depth and whether any state sits
// at or beyond the bound (stored but never expanded — the deterministic
// truncation signal: the minimal-depth fixpoint does not depend on the
// order in which paths reached each state).
func (p *parentStore) scan(bound int32) (maxDepth int32, clipped bool) {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			if e.depth > maxDepth {
				maxDepth = e.depth
			}
			if e.depth >= bound {
				clipped = true
			}
		}
		sh.mu.Unlock()
	}
	return maxDepth, clipped
}

// trailTo reconstructs the trail from the root to the state with hash h
// by walking parent links. maxLen bounds the walk against hash-collision
// cycles. When the walk reaches the root, the first step carries the
// initial state so lazy steps can be materialized by forward replay.
func (p *parentStore) trailTo(h uint64, maxLen int) []TrailStep {
	var rev []TrailStep
	for h != p.root && len(rev) <= maxLen {
		e, ok := p.get(h)
		if !ok {
			break
		}
		rev = append(rev, TrailStep{Label: e.label, Steps: e.steps, Key: e.key})
		h = e.parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if len(rev) > 0 && h == p.root {
		rev[0].From = p.rootState
	}
	return rev
}
