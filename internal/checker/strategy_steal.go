package checker

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workSteal is the frontier strategy, the engine's one concurrent
// search: each worker has a private Chase–Lev deque — the owner pushes
// and pops newly stored states LIFO (locally depth-first), and a worker
// whose deque runs dry steals the oldest entry FIFO from a victim. No
// worker ever waits at a barrier; the only global synchronisation is
// the link table (visited set and parent links in one) and per-worker
// sent/done counters used for termination detection.
//
// Termination: each worker keeps two monotone, padded counters — sent
// (states it pushed to its deque, root included) and done (expansions
// it completed). done can never exceed sent globally: an entry is
// counted sent strictly before its push becomes visible, and whoever
// consumes it counts done only after the expansion. A worker that
// finds every deque empty sums all done counters, then all sent
// counters; monotonicity makes equality of the two sums prove that at
// the instant the done-scan finished every pushed state had been fully
// expanded — no entry exists anywhere and no expansion is in flight
// that could produce one — so the search is complete and all workers
// exit. (The scan order matters: summing sent first could observe a
// sent increment without its eventual done and miss termination, but
// never falsely detect it; summing done first can do neither.)
//
// Trails are reconstructed through the link table (linktable.go);
// the trail witnessing a violation is whichever path reached it first,
// not a shortest one. Each stored state's depth starts as the length of
// whichever path stored it first and is then lowered (CAS-min in the
// link table) every time a shorter path re-encounters the state; a
// state whose depth improves is re-enqueued so the shorter distance
// propagates to its descendants — a relaxation pass whose expansions
// run with the matched counter suppressed, so exploration statistics
// stay identical to a run that found the minimal depths first. The
// final depth table is therefore the shortest-distance fixpoint,
// independent of exploration order: MaxDepth clips expansion at the
// same bound as the DFS (states at the bound are stored but not
// expanded), and both Truncated and MaxDepthReached are
// computed from the final table after the search drains, so
// depth-clipped searches report deterministic results instead of
// "whichever path stored it first".
//
// Under a shared WorkerBudget (Options.Budget), the search starts with
// the single admission token its caller holds and grows workers
// dynamically: after an expansion leaves surplus work queued, the
// worker tries to claim a spare token and spawns a sibling. A grown
// worker that stays idle for retireAfter scavenge passes retires and
// returns its token immediately — it does not spin-hold capacity a
// sibling group could admit on — and every claimed token is released
// by the time the search ends, so budget freed by one finished group
// flows to groups that still have work.
//
// With a recycling system (StateRecycler), the steal hot path is
// allocation-free in steady state: deque entries come from per-worker
// free-lists, successors are stepped into the worker's scratch and only
// stored ones cloned out, and consumed, fully expanded states are
// retired through the epoch-based reclamation layer (reclaim.go) so a
// reference briefly held by a concurrent steal attempt can never
// observe recycled backing storage.
type workSteal struct {
	workers int
}

// stealEntry is one state awaiting expansion; its digest keys the
// link table, which also carries the state's (minimal known)
// depth — entries deliberately do not cache the depth, so a pop always
// expands at the freshest distance. Entry objects are pooled per
// worker: the Chase–Lev top-CAS guarantees exactly-once consumption,
// so the consumer owns the entry outright and recycles it into its own
// free-list (a thief that loaded a stale entry pointer loses the CAS
// and never dereferences it).
type stealEntry struct {
	state State
	d     digest
}

// wsCounters is one worker slot's termination-detection pair. Written
// (plain atomic stores — the owner is the only writer) by the slot's
// worker, scanned by any worker checking quiescence; padded so
// neighbouring slots never false-share. Ownership follows the deque
// index through retire/respawn handoff, and the counters survive it:
// they are monotone for the slot, not the goroutine.
//
//iotsan:padded
type wsCounters struct {
	sent atomic.Int64 // states pushed to this slot's deque (root included)
	done atomic.Int64 // expansions completed by this slot's owner
	_    [48]byte
}

// wsEntryPool is one worker slot's stealEntry free-list, owner-only;
// padded so the slice headers of neighbouring slots never false-share.
//
//iotsan:padded
type wsEntryPool struct {
	free []*stealEntry
	_    [40]byte
}

// stealRun is the shared state of one work-stealing search.
type stealRun struct {
	e      *engine
	links  *linkTable // e.st itself when fused, else written right after e.st.seen
	fused  bool
	root   State // initial state: forward replay of lazy trails starts here
	deques []*wsDeque
	cnts   []wsCounters
	pools  []wsEntryPool
	// exps holds one expander per worker slot, created by the slot's
	// first worker and inherited through retire/respawn like the deque.
	exps []*expander
	// reclaim is the epoch-based reclamation layer, nil when the system
	// does not recycle or Options.NoEpochReclaim is set.
	reclaim *reclaimer
	// relaxOff disables depth relaxation. Relaxation re-expands states,
	// which must replay exactly the transitions the counted expansion
	// explored. With an uncertified POR reducer the engine's
	// visited-state proviso makes expansion store-dependent — a replay
	// could diverge from the counted graph — so relaxation is off there
	// (clipping then keeps the first-path semantics for that combination
	// only). Certified reducers are pure functions of the state and
	// replay identically. Symmetry reduction turns it off for the same
	// reason in a different guise: a duplicate hit is then only
	// *isomorphic* to the stored representative, not byte-identical, so
	// re-expanding the duplicate raw state would record parent edges and
	// trail steps whose replay keys do not stitch onto the
	// representative's chain — counter-examples would stop being
	// concrete executions.
	relaxOff bool
	live     atomic.Int32 // workers currently running (crew-size check)
	nextIdx  atomic.Int32 // monotonic worker-index allocator
	max      int
	wg       sync.WaitGroup

	// freeMu guards freeIdx, the deque indices of retired workers. A
	// retiring worker publishes its index here strictly after its last
	// deque operation and its reclaim offline, so a replacement spawned
	// under the same index never shares ownership with it.
	freeMu  sync.Mutex
	freeIdx []int
}

func (s *workSteal) search(e *engine) {
	max := s.workers
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}

	exps := make([]*expander, max)
	exps[0] = e.newExpander()
	init, d0 := e.visitInitial(exps[0])
	if e.limitHit() {
		e.truncated.Store(true)
		return
	}

	links, fused := e.st.(*linkTable)
	if !fused {
		links = &linkTable{}
		links.seen(d0)
	}
	links.lazy = e.replayer != nil
	r := &stealRun{
		e:        e,
		links:    links,
		fused:    fused,
		root:     init,
		deques:   make([]*wsDeque, max),
		cnts:     make([]wsCounters, max),
		pools:    make([]wsEntryPool, max),
		exps:     exps,
		relaxOff: (e.reducer != nil && !e.certified) || e.canon != nil,
		max:      max,
	}
	for i := range r.deques {
		r.deques[i] = newWSDeque()
	}
	if e.frontierRecycle {
		r.reclaim = newReclaimer(e.rec, max, e.spillFn())
	}
	r.cnts[0].sent.Store(1)
	r.deques[0].push(&stealEntry{state: init, d: d0})

	if e.opts.Budget == nil {
		// Fixed crew: all workers up front.
		r.live.Store(int32(max))
		r.nextIdx.Store(int32(max))
		for w := 0; w < max; w++ {
			r.spawn(w, false)
		}
	} else {
		// Worker 0 rides the admission token the caller already holds;
		// the rest are claimed dynamically from the shared budget.
		r.live.Store(1)
		r.nextIdx.Store(1)
		r.spawn(0, false)
	}
	r.wg.Wait()
	if r.reclaim != nil {
		// No worker holds any frontier reference anymore: whatever the
		// grace periods kept in limbo goes back to the free-lists now.
		r.reclaim.drainAll()
	}
	// Clipping and the reported depth come from the final depths —
	// the shortest-distance fixpoint — not from per-path bookkeeping, so
	// depth-clipped searches are deterministic across runs and worker
	// counts.
	maxd, clipped := r.links.scan(int32(e.opts.MaxDepth))
	if clipped {
		e.truncated.Store(true)
	}
	e.maxDepth.Store(int64(maxd))
}

// spawn starts worker w. ownsToken marks workers holding a
// dynamically claimed budget token, which they release on exit.
func (r *stealRun) spawn(w int, ownsToken bool) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		if ownsToken {
			defer r.e.opts.Budget.Release()
		}
		r.work(w, ownsToken)
	}()
}

// quiescent reports whether every pushed state has been fully expanded.
// The done counters are summed strictly before the sent counters: both
// are monotone and done can never lead sent, so done-sum == sent-sum
// proves global quiescence at the instant the done-scan finished
// (a sent-first order could only delay detection, a done-first order
// can neither miss nor falsely detect it).
func (r *stealRun) quiescent() bool {
	var done int64
	for i := range r.cnts {
		done += r.cnts[i].done.Load()
	}
	var sent int64
	for i := range r.cnts {
		sent += r.cnts[i].sent.Load()
	}
	return sent == done
}

// approxPending is a racy estimate of states pushed but not yet
// expanded, for the grow heuristic only.
func (r *stealRun) approxPending() int64 {
	var n int64
	for i := range r.cnts {
		n += r.cnts[i].sent.Load() - r.cnts[i].done.Load()
	}
	return n
}

// maybeGrow claims one spare budget token and spawns an extra worker
// when queued work exceeds the crew that could be expanding it.
func (r *stealRun) maybeGrow() {
	if r.e.opts.Budget == nil {
		return
	}
	for {
		l := r.live.Load()
		if int(l) >= r.max || r.approxPending() <= int64(l)+1 {
			return
		}
		if !r.e.opts.Budget.TryAcquire() {
			return
		}
		if !r.live.CompareAndSwap(l, l+1) {
			// Lost the crew-count race; return the token and re-evaluate.
			r.e.opts.Budget.Release()
			continue
		}
		// Allocate a deque index: prefer one freed by a retired worker,
		// else a fresh slot.
		idx := -1
		r.freeMu.Lock()
		if n := len(r.freeIdx); n > 0 {
			idx = r.freeIdx[n-1]
			r.freeIdx = r.freeIdx[:n-1]
		}
		r.freeMu.Unlock()
		if idx < 0 {
			if fresh := int(r.nextIdx.Add(1)) - 1; fresh < r.max {
				idx = fresh
			} else {
				r.nextIdx.Add(-1)
			}
		}
		if idx < 0 {
			// Concurrent grows transiently exhausted the index space;
			// undo and let a later surplus try again.
			r.live.Add(-1)
			r.e.opts.Budget.Release()
			return
		}
		r.spawn(idx, true)
		return
	}
}

// retireAfter is the number of consecutive futile scavenge passes (own
// deque empty, nothing stealable) after which a dynamically grown
// worker retires and returns its token to the shared budget, instead
// of spin-holding capacity a sibling group's admission could use.
const retireAfter = 128

// Futile-scavenge backoff: a worker that cannot retire (fixed crew or
// admission worker) sleeps between scavenge passes once the futile
// streak passes retireAfter, starting short — the tail is often one
// in-flight expansion away from ending — and doubling up to a cap so a
// long convergence tail neither burns a core nor oversleeps the wakeup.
const (
	scavengeSleepBase = 2 * time.Microsecond
	scavengeSleepMax  = 256 * time.Microsecond
)

// getEntry draws a deque entry from worker w's free-list. Owner-only.
func (r *stealRun) getEntry(w int, st State, d digest) *stealEntry {
	p := &r.pools[w]
	if n := len(p.free); n > 0 {
		ent := p.free[n-1]
		p.free = p.free[:n-1]
		ent.state, ent.d = st, d
		return ent
	}
	return &stealEntry{state: st, d: d}
}

// putEntry recycles a consumed entry into worker w's free-list. Safe
// immediately after consumption: the top-CAS arbitration guarantees no
// other worker will ever dereference this entry object again (a stale
// pointer to it can still be loaded from a ring slot, but its holder's
// CAS is doomed). Owner-only.
//
//iotsan:retires ent
func (r *stealRun) putEntry(w int, ent *stealEntry) {
	ent.state = nil
	r.pools[w].free = append(r.pools[w].free, ent)
}

// wsCtx is one worker's expansion context.
type wsCtx struct {
	r          *stealRun
	w          int
	x          *expander
	sent       int64  // running mirror of cnts[w].sent
	childDepth int    // depth of the successors of the entry being expanded
	epoch      uint64 // epoch pinned before the current entry was consumed
}

// pushState counts and enqueues one newly stored state. The sent store
// strictly precedes the push becoming stealable, which is what keeps
// the done-sum ≤ sent-sum termination invariant.
func (c *wsCtx) pushState(st State, d digest) {
	c.sent++
	c.r.cnts[c.w].sent.Store(c.sent)
	c.r.deques[c.w].push(c.r.getEntry(c.w, st, d))
}

// work is one worker's main loop: drain the own deque LIFO, steal FIFO
// when dry, exit on global termination or a hit limit. ownsToken
// workers additionally retire when persistently idle.
func (r *stealRun) work(w int, ownsToken bool) {
	e := r.e
	if r.exps[w] == nil {
		r.exps[w] = e.newExpander()
	}
	x := r.exps[w]
	defer x.stat.flush(e)

	c := &wsCtx{r: r, w: w, x: x, sent: r.cnts[w].sent.Load()}
	done := r.cnts[w].done.Load()
	if r.reclaim != nil {
		r.reclaim.online(w)
	}
	offline := func() {
		if r.reclaim != nil {
			r.reclaim.offline(w)
		}
	}

	// Victim scan order: a per-worker xorshift sequence so idle workers
	// spread their steal attempts instead of convoying on worker 0.
	rng := uint64(w)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d

	idle := 0
	sleep := scavengeSleepBase
	for {
		if e.truncated.Load() {
			offline()
			return // another worker hit a limit; abandon the search
		}
		if r.reclaim != nil {
			// Quiescent point: no frontier references are held here.
			c.epoch = r.reclaim.pin(w)
			r.reclaim.tryAdvance()
		}
		ent := r.deques[w].pop()
		if ent == nil {
			ent = r.stealFrom(w, &rng)
		}
		if ent == nil {
			if r.quiescent() {
				offline()
				return // every pushed state fully expanded: search done
			}
			idle++
			if idle >= retireAfter {
				if ownsToken {
					// Retire: go offline first, then publish the deque
					// index (after the last deque touch above) so a
					// future grow can reuse the slot without sharing it;
					// the spawn wrapper releases the token.
					offline()
					r.freeMu.Lock()
					r.freeIdx = append(r.freeIdx, w)
					r.freeMu.Unlock()
					r.live.Add(-1)
					return
				}
				// Fixed-crew and admission workers cannot retire (the
				// search needs at least one worker alive), but a long
				// futile streak means the tail is one in-flight
				// expansion elsewhere — back off with doubling sleeps
				// instead of burning a core on Gosched spins.
				time.Sleep(sleep)
				if sleep < scavengeSleepMax {
					sleep *= 2
				}
				continue
			}
			runtime.Gosched()
			continue
		}
		idle, sleep = 0, scavengeSleepBase
		// Consult the limits before every expansion (the engine contract:
		// after every explored state, not once per violation) — Stop
		// cancellation and Deadline must interrupt even a convergence
		// tail where expansions store nothing new.
		if e.limitHit() {
			e.truncated.Store(true)
			offline()
			return
		}
		c.expand(ent)
		done++
		r.cnts[w].done.Store(done)
		r.maybeGrow()
	}
}

// stealFrom makes one randomized pass over the other workers' deques,
// returning the first entry successfully stolen.
func (r *stealRun) stealFrom(w int, rng *uint64) *stealEntry {
	n := len(r.deques)
	if n == 1 {
		return nil
	}
	*rng ^= *rng << 13
	*rng ^= *rng >> 7
	*rng ^= *rng << 17
	start := int(*rng % uint64(n))
	for i := 0; i < n; i++ {
		v := start + i
		if v >= n {
			v -= n
		}
		if v == w {
			continue
		}
		for {
			ent, retry := r.deques[v].steal()
			if ent != nil {
				return ent
			}
			if !retry {
				break // observed empty; next victim
			}
		}
	}
	return nil
}

// retireState hands a consumed, fully expanded state to the
// reclamation layer together with its digest — the spill candidate the
// tiered store evicts in epoch order (the root is exempt: trail replay
// starts from it).
//
//iotsan:retires st
func (r *stealRun) retireState(w int, epoch uint64, st State, d digest) {
	if r.reclaim == nil || st == r.root {
		return
	}
	r.reclaim.retire(w, epoch, st, d)
}

// expand processes one popped or stolen entry, pushing newly stored
// successors onto the worker's own deque. A re-encountered successor
// whose depth improves is re-enqueued so the shorter distance
// propagates; the link table's expanded claim arbitrates so exactly
// one expansion of each state contributes to the counters, and the
// propagation passes run count-suppressed. The consumed entry object
// returns to the worker's free-list, and the consumed state is retired
// under the worker's pinned epoch unless a limit truncated the
// expansion (unconsumed successors then keep it conservative).
func (c *wsCtx) expand(ent *stealEntry) {
	r, e := c.r, c.r.e
	depth, count := r.links.claimExpansion(ent.d.h1, int32(e.opts.MaxDepth))
	if int(depth) >= e.opts.MaxDepth {
		// States at the depth bound exist but are not expanded — the
		// same truncation point as the DFS. Clipping is not a global
		// abort: shallower entries still queued elsewhere continue to be
		// expanded, and the final depth scan marks the result truncated
		// once the search drains (unless a shorter path later relaxes
		// this state below the bound and re-enqueues it — as the copy
		// expandState keeps on an improved admit, never this one, so this
		// clone has left every live structure and can retire).
		st, d := ent.state, ent.d
		r.putEntry(c.w, ent)
		r.retireState(c.w, c.epoch, st, d)
		return
	}
	c.childDepth = int(depth) + 1
	if c.expandState(ent, count) {
		r.retireState(c.w, c.epoch, ent.state, ent.d)
	}
	r.putEntry(c.w, ent)
}

// expandState expands ent's state in the admission order both strategies
// share: it steps the successors of the state one at a time into the
// worker's scratch, records the transition (edge) violations of every
// successor — reconstructing the parent trail prefix lazily, only when
// a violation is actually recorded — then admits the successor: one
// probe of the link table stores and links it or, a duplicate, lowers
// its depth (after a tiered or bitstate store's seen, whichever worker
// reaches the table first writes a complete edge, later ones only lower
// the depth). Only a new successor is kept (cloned out of the scratch),
// inspected for state violations, counted, and pushed. A duplicate is never
// inspected: its first copy was (System.Inspect is a function of the
// encoding), which also keeps the count=false re-expansions free of
// Inspect calls — and of clones.
// The stubs come from engine.enabled, so partial-order reduction
// applies here exactly as it does to DFS.
//
// count suppresses the matched counter when false: a state whose depth
// improved is expanded again (relaxation passes), and those passes must
// not perturb the deterministic exploration statistics — including when
// such a pass overlaps the state's counted expansion and admits one of
// its successors first (see below). explored and matched accumulate in
// the worker's counter cell and fold into the engine totals.
// A duplicate whose depth improved must be expanded again: it is kept
// and pushed like a new state. Any other eager duplicate is a clone this
// expansion produced and shared with nobody, recycled on the spot. It
// returns false when a limit was hit (truncated is already set; the
// caller must stop, and must not retire the expanded state — unconsumed
// successors keep it conservative).
func (c *wsCtx) expandState(ent *stealEntry, count bool) bool {
	e, x, links, depth, relax := c.r.e, c.x, c.r.links, c.childDepth, !c.r.relaxOff
	state, h1 := ent.state, ent.d.h1
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
			prefix = links.trailTo(h1, c.r.root)
			havePrefix = true
		}
		trail := append(append([]TrailStep(nil), prefix...),
			TrailStep{Label: tr.Label, Steps: tr.Steps, From: state, Key: tr.Key})
		e.commit(v, trail, depth)
		return true
	}

	x.stubs, x.buf = e.enabled(state, x.stubs, x.buf, count)
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
		var fresh, improved bool
		if c.r.fused {
			fresh, improved = links.admit(d.h1, h1, int32(depth), tr, relax)
		} else if fresh = !e.st.seen(d); fresh || relax {
			_, improved = links.admit(d.h1, h1, int32(depth), tr, relax)
		}
		if !fresh {
			if count {
				x.stat.matched++
			}
			if improved {
				c.pushState(e.stp.Keep(x.scratch, tr.Next), d)
			} else if e.dupRec != nil {
				// An eager duplicate child that was not re-enqueued never
				// entered a deque, the link table, or a recorded trail
				// (record materializes eagerly): nobody but this worker
				// has ever seen the clone.
				e.dupRec.Recycle(tr.Next)
				tr.Next = nil
			}
			continue
		}
		if !count {
			// A relaxation re-expansion running alongside the state's
			// counted expansion won this successor's admission; the
			// counted one will meet it as a duplicate. Cancel that match
			// so the statistics stay those of one expansion per state.
			x.stat.matched--
		}
		next := e.stp.Keep(x.scratch, tr.Next)
		for _, v := range e.sys.Inspect(next) {
			if record(v, tr) && e.limitHit() {
				e.truncated.Store(true)
				return false
			}
		}
		x.stat.bumpExplored(e)
		c.pushState(next, d)
		if e.limitHit() {
			e.truncated.Store(true)
			return false
		}
	}
	return true
}
