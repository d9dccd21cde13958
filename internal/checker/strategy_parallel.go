package checker

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelBFS is the parallel frontier strategy: a level-synchronous
// breadth-first search in the spirit of Holzmann's multi-core Spin.
// Each level, workers claim frontier states through an atomic cursor
// (dynamic load balancing — no per-worker partition can go idle while
// others still hold work), expand them concurrently via System.Expand,
// and deduplicate successors through the sharded visited store. The
// per-worker next-frontier slices are merged between levels, which
// doubles as the termination barrier.
//
// Trails cannot be threaded through a stack here, so every newly stored
// state records a parent link (state hash → parent hash + transition
// label/steps); on a violation the trail is reconstructed by walking
// the links back to the root. The distinct-violation set matches
// sequential DFS whenever the search is not truncated; the trail
// witnessing a violation is whichever path reached it first.
type parallelBFS struct {
	workers int
}

// frontierEntry is one state awaiting expansion, with its fingerprint
// (the key of its parent link).
type frontierEntry struct {
	state State
	d     digest
}

// parentEdge is the incoming BFS-tree edge of a stored state. For
// lazy-trail systems, steps stays nil and key carries the replay
// handle instead: the edge then costs one word plus a (shared) label
// string, and the step strings are only produced — by replaying
// forward from the root state — if a trail through this edge is
// materialized. No per-edge state is retained.
//
// depth is the minimal known depth of the state. The level-synchronous
// strategy stores exact BFS levels; the work-stealing strategy stores
// the depth of whichever path stored the state first and then lowers it
// through relax whenever a shorter path re-encounters the state, so the
// final depths are the order-independent shortest-distance fixpoint.
// expanded marks states whose counted expansion has been claimed
// (work-stealing only); it arbitrates between the one expansion that
// contributes to the explored/matched counters and the depth-relaxation
// re-expansions that only propagate improved depths.
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
	if ex, ok := sh.m[h]; !ok { // first writer wins: keep the BFS tree acyclic
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

func (s *parallelBFS) search(e *engine) {
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if b := e.opts.Budget; b != nil {
		// Under a shared budget the caller's admission token covers the
		// first worker; claim as many of the remaining workers-1 as the
		// pool can spare right now and hold them for the whole run (the
		// level-synchronous crew is fixed; only the steal strategy grows
		// dynamically).
		claimed := 0
		for claimed < workers-1 && b.TryAcquire() {
			claimed++
		}
		workers = 1 + claimed
		defer func() {
			for i := 0; i < claimed; i++ {
				b.Release()
			}
		}()
	}

	// One expander per worker for the whole search: the goroutines are
	// per level, the scratch states and buffers are not.
	xs := make([]*expander, workers)
	for w := range xs {
		xs[w] = e.newExpander()
	}
	init, d0 := e.visitInitial(xs[0])
	if e.limitHit() {
		e.truncated.Store(true)
		return
	}
	parents := newParentStore(d0.h1, init)
	// A frontier state consumed at a level barrier is proven cold (the
	// merge overwrites its slot), so its digest is the tiered store's
	// preferred spill candidate — the level barrier is this strategy's
	// reclamation epoch.
	spill := e.spillFn()

	frontier := []frontierEntry{{state: init, d: d0}}
	if workers == 1 {
		s.searchSingle(e, xs[0], parents, spill, init, frontier)
		return
	}
	// Per-worker next-frontier parts are allocated once and reused
	// across every merge barrier: workers append into a local slice and
	// write the header back on exit, so the shared array sees one store
	// per worker per level instead of false-shared header updates.
	next := make([][]frontierEntry, workers)
	for depth := 1; len(frontier) > 0; depth++ {
		if depth > e.opts.MaxDepth {
			// States at MaxDepth exist but may not be expanded — the
			// same truncation point as the DFS depth bound.
			e.truncated.Store(true)
			break
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				x := xs[w]
				defer x.stat.flush(e)
				part := next[w][:0]
				defer func() { next[w] = part }()
				// One enqueue closure per worker per level, not per
				// expansion — the hot path must not allocate.
				enq := func(st State, d digest) {
					part = append(part, frontierEntry{state: st, d: d})
				}
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(frontier) {
						return
					}
					if e.limitHit() {
						e.truncated.Store(true)
						return
					}
					ent := frontier[i]
					ok := e.expandShared(x, parents, ent.state, ent.d.h1, depth, true, enq, nil)
					// The cursor claim is exclusive and the merge below
					// overwrites the slot, so a fully expanded frontier
					// state is dead here — each level barrier is a
					// natural reclamation epoch. The root survives for
					// trail replay; a truncated expansion skips (its
					// unconsumed successors keep the state conservative).
					if ok && e.frontierRecycle && ent.state != init {
						if spill != nil {
							spill(ent.d)
						}
						e.rec.Recycle(ent.state)
					}
				}
			}(w)
		}
		wg.Wait()
		if e.truncated.Load() {
			break
		}
		frontier = frontier[:0]
		for w := range next {
			frontier = append(frontier, next[w]...)
		}
	}
}

// searchSingle is the workers=1 fast path of the level-synchronous
// strategy: the semantics (level order, parent links, trails, counters)
// are identical to the general path, but each level is a plain slice
// walk — no goroutine spawn, no WaitGroup, no atomic claim cursor, and
// the encode buffer and enqueue closure are bound once per search
// instead of once per level. The general path at workers=1 paid all of
// that per level for zero concurrency, which is where its per-worker
// parity trailed the steal strategy's (BENCH_2026-08-07: 0.52 vs 0.77).
func (s *parallelBFS) searchSingle(e *engine, x *expander, parents *parentStore, spill func(digest), init State, frontier []frontierEntry) {
	defer x.stat.flush(e)

	var part []frontierEntry
	enq := func(st State, d digest) {
		part = append(part, frontierEntry{state: st, d: d})
	}
	for depth := 1; len(frontier) > 0; depth++ {
		if depth > e.opts.MaxDepth {
			e.truncated.Store(true)
			return
		}
		part = part[:0]
		for i := range frontier {
			if e.limitHit() {
				e.truncated.Store(true)
				return
			}
			ent := frontier[i]
			if !e.expandShared(x, parents, ent.state, ent.d.h1, depth, true, enq, nil) {
				return // limit hit mid-expansion; truncated is set
			}
			if e.frontierRecycle && ent.state != init {
				if spill != nil {
					spill(ent.d)
				}
				e.rec.Recycle(ent.state)
			}
		}
		frontier = append(frontier[:0], part...)
	}
}

// expandShared is the expansion path common to the frontier strategies
// (level-synchronous and work-stealing), in the admission order all
// three strategies share: it steps the successors of state one at a
// time into the worker's scratch, records the transition (edge)
// violations of every successor — reconstructing the parent trail
// prefix lazily, only when a violation is actually recorded — then
// deduplicates the successor through the visited store, and only a
// successor the store reports new is kept (cloned out of the scratch),
// linked to its parent, inspected for state violations, counted, and
// handed to enqueue. A duplicate is never inspected: its first copy was
// (System.Inspect is a function of the encoding), which also keeps the
// steal strategy's count=false re-expansions free of Inspect calls —
// and of clones.
// The stubs come from engine.enabled, so partial-order reduction
// applies to the frontier strategies exactly as it does to DFS.
//
// count suppresses the matched counter when false: the work-stealing
// strategy re-expands states whose depth improved (relaxation passes),
// and those must not perturb the deterministic exploration statistics
// — including when such a pass overlaps the state's counted expansion
// and admits one of its successors first (see below).
// x is the calling worker's expander; explored and matched accumulate
// in its counter cell and fold into the engine totals.
// relax, when non-nil, is asked about every successor that was already
// in the visited store (the depth-relaxation hook) and reports whether
// the state must be expanded again; such a duplicate is kept and
// enqueued like a new state. Any other eager duplicate is a clone this
// expansion produced and shared with nobody, recycled on the spot. It
// returns false when a limit was hit (truncated is already set; the
// caller must stop, and must not recycle the expanded state —
// unconsumed successors keep it conservative).
func (e *engine) expandShared(x *expander, parents *parentStore, state State, h1 uint64, depth int, count bool, enqueue func(State, digest), relax func(digest) bool) bool {
	var prefix []TrailStep // parent trail, reconstructed lazily
	havePrefix := false
	record := func(v Violation, tr *Transition) bool {
		// Reserve before constructing anything: on violation-dense
		// state spaces nearly every hit is a duplicate, and the trail
		// walk + copy for a rejected violation is wasted allocation.
		if !e.reserve(v) {
			return false
		}
		if !havePrefix {
			prefix = parents.trailTo(h1, e.opts.MaxDepth)
			havePrefix = true
		}
		trail := append(append([]TrailStep(nil), prefix...),
			TrailStep{Label: tr.Label, Steps: tr.Steps, From: state, Key: tr.Key})
		e.commit(v, trail, depth)
		return true
	}

	x.stubs, x.buf = e.enabled(state, x.stubs, x.buf, count)
	if len(x.stubs) > 0 && !e.depthByScan {
		// One depth note per generating expansion: every transition of
		// this batch sits at the same depth, and the steal strategy's
		// depth comes from the final parent-table scan instead.
		e.noteDepth(depth)
	}
	for i := range x.stubs {
		// The result overwrites its stub: the buffer is refilled per
		// expansion, and a slot in it is addressable without escaping.
		tr := &x.stubs[i]
		*tr = e.stp.Step(x.scratch, state, tr)
		for _, v := range tr.Violations {
			if record(v, tr) && e.limitHit() {
				e.truncated.Store(true)
				return false
			}
		}

		var d digest
		d, x.buf = e.digest(tr.Next, x.buf)
		if e.st.seen(d) {
			if count {
				x.stat.matched++
			}
			if relax != nil && relax(d) {
				enqueue(e.stp.Keep(x.scratch, tr.Next), d)
			} else if e.dupRec != nil {
				// An eager duplicate child that was not re-enqueued never
				// entered a deque, the parent table, or a recorded trail
				// (record materializes eagerly): nobody but this worker
				// has ever seen the clone.
				e.dupRec.Recycle(tr.Next)
				tr.Next = nil
			}
			continue
		}
		if !count && !e.opts.NoDedup {
			// A relaxation re-expansion running alongside the state's
			// counted expansion won this successor's admission; the
			// counted one will meet it as a duplicate. Cancel that match
			// so the statistics stay those of one expansion per state.
			// (Without dedup nothing ever matches, so there is nothing
			// to cancel.)
			x.stat.matched--
		}
		next := e.stp.Keep(x.scratch, tr.Next)
		parents.put(d.h1, parentEdge{parent: h1, label: tr.Label, steps: tr.Steps, key: tr.Key, depth: int32(depth)})
		for _, v := range e.sys.Inspect(next) {
			if record(v, tr) && e.limitHit() {
				e.truncated.Store(true)
				return false
			}
		}
		x.stat.bumpExplored(e)
		enqueue(next, d)
		if e.limitHit() {
			e.truncated.Store(true)
			return false
		}
	}
	return true
}
