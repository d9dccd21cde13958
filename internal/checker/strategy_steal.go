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
// the link table (visited set, depths and expansion claims) and
// per-worker sent/done counters used for termination detection.
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
// Trails ride on the deque entries: each entry carries the path it was
// pushed by (stealEntry.path), and a violation's trail is the path of
// the expansion that records it, not necessarily a shortest one. Each
// stored state's depth starts as the length of whichever path stored it
// first and is then lowered (CAS-min in the link table) every time a
// shorter path re-encounters the state; a state whose depth improves is
// re-enqueued, with that shorter path, so the shorter distance
// propagates to its descendants — a relaxation pass whose expansions
// count nothing, so exploration statistics stay identical to a run that
// found the minimal depths first. The final depth table is therefore
// the shortest-distance fixpoint, independent of exploration order:
// MaxDepth clips expansion at the same bound as the DFS (states at the
// bound are stored but not expanded), and Truncated, MaxDepthReached
// and StatesMatched are computed after the search drains, so
// depth-clipped searches report deterministic results instead of
// "whichever path stored it first".
//
// The crew is fixed: Options.Workers goroutines, one per deque, run
// from the first expansion until the search drains or a limit stops it.
//
// With a Predictor (the transition memo), a successor it answers for is
// stepped only when it may be kept: its predicted digest goes to the
// link table first, a fresh one the Predictor can tell is a leaf is
// looked up (InspectLeaf) and never stepped, and any other fresh or
// depth-improved successor is stepped for real (engine.confirm) and,
// unless a leaf, cloned out; a predicted duplicate is never stepped. A
// wrong prediction stops every worker and fails the run.
//
// With a recycling system (StateRecycler), the steal hot path is
// allocation-free in steady state: deque entries come from per-worker
// free-lists, successors are stepped into the worker's scratch and only
// stored ones with transitions cloned out, and a consumed, fully
// expanded state goes straight back to StateRecycler.Recycle, as a
// popped DFS frame does.
// No grace period is needed because a frontier state is reachable only
// through its one deque entry: every push is a fresh Keep (a new state
// or an improved re-enqueue), the link table holds no pointers, an
// entry path holds no state, a violation's trail is materialised (From
// included) before commit returns, and the only From a trail prefix
// carries is the root, which is never retired.
// The Chase–Lev top CAS hands each entry to exactly one consumer, which
// is then the state's only holder; a thief that loaded a stale entry
// pointer loses the CAS and never dereferences it.
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
//
// path is the trail of the path that pushed the entry, root first, no
// From: the step of each edge holds its replay key, plus its label and
// steps only for an edge that cannot be replayed (pathStep). Its buffer
// is the entry's inline array while the path fits, and stays with the
// pooled entry either way, so a push allocates nothing.
type stealEntry struct {
	state  State
	d      digest
	path   []TrailStep
	inline [pathInline]TrailStep
}

// pathInline is how many path steps an entry holds without a heap
// buffer: Table 8 at 5 events is 5 deep.
const pathInline = 8

// wsCounters is one worker slot's termination-detection pair. Written
// (plain atomic stores — the owner is the only writer) by the slot's
// worker, scanned by any worker checking quiescence; padded so
// neighbouring slots never false-share.
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
	e     *engine
	links *linkTable // e.st: the run's visited store
	root  State      // initial state: forward replay of lazy trails starts here
	// lazy is set when the system is a Replayer: a path step with a
	// replay key and no eager steps then holds no text.
	lazy   bool
	deques []*wsDeque
	cnts   []wsCounters
	pools  []wsEntryPool
	// exps holds one expander per worker, each created by its worker
	// except worker 0's, which also stepped the initial state.
	exps []*expander
	// relaxOff disables depth relaxation, which is on unless symmetry
	// reduction folds states: a duplicate hit is then only *isomorphic*
	// to the stored representative, not byte-identical, so re-expanding
	// the duplicate raw state would push entry paths and record trail
	// steps whose replay keys do not stitch onto the representative's
	// chain — counter-examples would stop being concrete executions. (Clipping
	// then keeps the first-path semantics.) Reduce is a pure function of
	// the state, so under POR a relaxation replays the counted subset.
	relaxOff bool
}

func (s *workSteal) search(e *engine) {
	max := s.workers
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}

	exps := make([]*expander, max)
	exps[0] = e.newExpander()
	init, d0 := e.visitInitial(exps[0])
	if e.limitHit(exps[0]) {
		e.truncated.Store(true)
		return
	}

	r := &stealRun{
		e:        e,
		links:    e.st.(*linkTable),
		root:     init,
		lazy:     e.replayer != nil,
		deques:   make([]*wsDeque, max),
		cnts:     make([]wsCounters, max),
		pools:    make([]wsEntryPool, max),
		exps:     exps,
		relaxOff: e.canon != nil,
	}
	for i := range r.deques {
		r.deques[i] = newWSDeque()
	}
	r.cnts[0].sent.Store(1)
	r.deques[0].push(&stealEntry{state: init, d: d0})

	var wg sync.WaitGroup
	wg.Add(max)
	for w := range max {
		go func() {
			defer wg.Done()
			r.work(w)
		}()
	}
	wg.Wait()
	// Clipping and the reported depth come from the final depths —
	// the shortest-distance fixpoint — not from per-path bookkeeping, so
	// depth-clipped searches are deterministic across runs and worker
	// counts.
	maxd, clipped := r.links.scan(int32(e.opts.MaxDepth))
	if clipped {
		e.truncated.Store(true)
	}
	e.maxDepth.Store(int64(maxd))
	// Every stored state but the root was admitted fresh once; every other
	// successor a counted expansion generated was a duplicate.
	var generated int64
	for _, x := range r.exps {
		generated += x.generated
	}
	e.matched.Store(generated - (e.explored.Load() - 1))
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

// Futile-scavenge backoff: after backoffAfter consecutive futile
// scavenge passes (own deque empty, nothing stealable) a worker sleeps
// between passes, starting short — the tail is often one in-flight
// expansion away from ending — and doubling up to a cap so a long
// convergence tail neither burns a core nor oversleeps the wakeup.
const (
	backoffAfter      = 128
	scavengeSleepBase = 2 * time.Microsecond
	scavengeSleepMax  = 256 * time.Microsecond
)

// getEntry draws a deque entry from worker w's free-list for st, the
// successor of parent's state through tr: its path is parent's followed
// by tr's step. Owner-only.
func (r *stealRun) getEntry(w int, st State, d digest, parent *stealEntry, tr *Transition) *stealEntry {
	p := &r.pools[w]
	var ent *stealEntry
	if n := len(p.free); n > 0 {
		ent = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		ent = new(stealEntry)
	}
	if cap(ent.path) == 0 {
		ent.path = ent.inline[:0]
	}
	ent.state, ent.d = st, d
	ent.path = append(append(ent.path[:0], parent.path...), r.pathStep(tr))
	return ent
}

// trail is the trail of a violation recorded while expanding ent: a
// fresh copy of ent's path followed by last, the pending step. The first
// step carries root, so lazy steps replay forward from it; the root's
// own entry has no path, and last carries the root already.
func (ent *stealEntry) trail(root State, last TrailStep) []TrailStep {
	t := make([]TrailStep, 0, len(ent.path)+1)
	t = append(append(t, ent.path...), last)
	if len(ent.path) > 0 {
		t[0].From = root
	}
	return t
}

// pathStep is tr's step on an entry path: its replay key and, for an
// edge that cannot be replayed (no Replayer, no key, or eager steps),
// its label and steps.
func (r *stealRun) pathStep(tr *Transition) TrailStep {
	if r.lazy && tr.Key != 0 && tr.Steps == nil {
		return TrailStep{Key: tr.Key}
	}
	return TrailStep{Label: tr.Label, Steps: tr.Steps, Key: tr.Key}
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
	sent       int64 // running mirror of cnts[w].sent
	childDepth int   // depth of the successors of the entry being expanded
}

// pushState counts and enqueues st, stored or depth-improved, reached
// from parent's state through tr. The sent store strictly precedes the
// push becoming stealable, which is what keeps the done-sum ≤ sent-sum
// termination invariant.
func (c *wsCtx) pushState(st State, d digest, parent *stealEntry, tr *Transition) {
	c.sent++
	c.r.cnts[c.w].sent.Store(c.sent)
	c.r.deques[c.w].push(c.r.getEntry(c.w, st, d, parent, tr))
}

// work is one worker's main loop: drain the own deque LIFO, steal FIFO
// when dry, exit on global termination or a hit limit.
func (r *stealRun) work(w int) {
	e := r.e
	if r.exps[w] == nil {
		// Allocated here, not beside worker 0's: two expanders from one
		// goroutine can share a cache line, and both are written on
		// every expansion.
		r.exps[w] = e.newExpander()
	}
	x := r.exps[w]

	c := &wsCtx{r: r, w: w, x: x, sent: r.cnts[w].sent.Load()}
	var done int64

	// Victim scan order: a per-worker xorshift sequence so idle workers
	// spread their steal attempts instead of convoying on worker 0.
	rng := uint64(w)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d

	idle := 0
	sleep := scavengeSleepBase
	for {
		if e.truncated.Load() {
			return // another worker hit a limit; abandon the search
		}
		ent := r.deques[w].pop()
		if ent == nil {
			ent = r.stealFrom(w, &rng)
		}
		if ent == nil {
			if r.quiescent() {
				return // every pushed state fully expanded: search done
			}
			idle++
			if idle >= backoffAfter {
				// A long futile streak means the tail is one in-flight
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
		if e.limitHit(x) {
			e.truncated.Store(true)
			return
		}
		c.expand(ent)
		done++
		r.cnts[w].done.Store(done)
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

// retireState recycles a consumed, fully expanded state: its consumer
// is its only holder (see workSteal). The root is exempt: trail replay
// starts from it.
//
//iotsan:retires st
func (r *stealRun) retireState(st State) {
	if !r.e.frontierRecycle || st == r.root {
		return
	}
	r.e.rec.Recycle(st)
}

// expandable reports whether next, a successor about to be pushed, has
// transitions to expand. A keyed successor is probed while still
// borrowed, so a leaf is never kept or pushed; the probe lists the full
// enabled set (a persistent subset is empty only when that is) and
// counts nothing, as the expansion that follows its push does the
// counting. An eager successor is pushed unprobed: the adapter's
// Enabled is Expand, which the push's expansion would then run twice.
func (c *wsCtx) expandable(next State) bool {
	e, x := c.r.e, c.x
	if !e.keyed {
		return true
	}
	x.probe = e.stp.Enabled(next, x.probe[:0])
	return len(x.probe) > 0
}

// expand processes one popped or stolen entry, pushing newly stored
// successors onto the worker's own deque. A re-encountered successor
// whose depth improves is re-enqueued so the shorter distance
// propagates; the link table's expanded claim arbitrates so exactly
// one expansion of each state counts its successors, and the
// propagation passes count none. The consumed entry object
// returns to the worker's free-list, and the consumed state is recycled
// unless a limit truncated the expansion (the search is then abandoned
// and nothing is recycled on the way out).
func (c *wsCtx) expand(ent *stealEntry) {
	r, e := c.r, c.r.e
	depth, count := r.links.claimExpansion(ent.d.h1, int32(e.opts.MaxDepth))
	// States at the depth bound exist but are not expanded — the same
	// truncation point as the DFS. Clipping is not a global abort:
	// shallower entries still queued elsewhere continue to be expanded,
	// and the final depth scan marks the result truncated once the
	// search drains (unless a shorter path later relaxes this state below
	// the bound and re-enqueues it — as the copy expandState keeps on an
	// improved admit, never this one, so a clipped state is retired too).
	clipped := int(depth) >= e.opts.MaxDepth
	c.childDepth = int(depth) + 1
	if clipped || c.expandState(ent, count) {
		r.retireState(ent.state)
	}
	r.putEntry(c.w, ent)
}

// expandState expands ent's state in the admission order both strategies
// share: it predicts or, where the Predictor cannot tell (or there is
// none), steps the successors of the state one at a time into the
// worker's scratch, records the transition (edge) violations of every
// successor — predicted ones for a predicted successor, the trail built
// from ent's path only when a violation is actually recorded — then
// admits the successor under its (predicted) digest: one probe of the
// link table stores it or, a duplicate, lowers its depth. A predicted
// successor the table reports fresh is first offered to the leaf lookup
// (Predictor.InspectLeaf): a looked-up leaf's violations stand for its
// Inspect, and it is counted and dropped unstepped. Any other predicted
// successor the table reports fresh or improved is then stepped for
// real and held to its prediction (engine.confirm); a predicted
// duplicate is never stepped. Only a new successor is inspected for
// state violations and counted, on the scratch, and then kept (cloned
// out) and pushed, with ent's path plus its own step, unless it is a
// leaf (expandable). A duplicate is never inspected: its first copy was
// (System.Inspect is a function of the encoding), which also keeps the
// count=false re-expansions free of Inspect calls — and of clones. The
// stubs come from engine.enabled, so partial-order reduction applies
// here exactly as it does to DFS, and relaxation passes predict too.
//
// count is false on a relaxation pass — a state whose depth improved,
// expanded again — whose successors are not counted as generated. A
// successor is counted explored wherever it is admitted, even when a
// relaxation pass admits it first, so the counted expansion meets it as
// a duplicate; StatesMatched, derived from the generated and explored
// totals after the drain, stays that of one expansion per state.
// A duplicate whose depth improved must be expanded again, unless it
// is a leaf: it is kept and pushed like a new state. It returns false
// when a limit was hit or a prediction was wrong (truncated is already
// set, and e.err on a wrong prediction; the caller must stop and leaves
// the expanded state to the collector).
func (c *wsCtx) expandState(ent *stealEntry, count bool) bool {
	e, x, links, depth, relax := c.r.e, c.x, c.r.links, c.childDepth, !c.r.relaxOff
	state := ent.state
	record := func(vs []Violation, tr *Transition) {
		// Admit before constructing anything: on violation-dense
		// state spaces nearly every hit is a duplicate, which the
		// worker's violation cache refuses without the engine lock, and
		// the trail copy for a rejected violation is wasted allocation.
		for _, v := range vs {
			if e.admit(x, v) {
				e.commit(v, ent.trail(c.r.root, stepOf(state, tr)), depth)
			}
		}
	}

	x.stubs = e.enabled(state, x.stubs, count)
	for i := range x.stubs {
		// The prediction or the step overwrites its stub: the buffer is
		// refilled per expansion, and a slot in it is addressable without
		// escaping (a local copy handed to Predict would escape, one heap
		// object per successor). A prediction keeps the stub's label and
		// key, all confirm steps by.
		tr := &x.stubs[i]
		d, predicted := e.predict(x, state, tr, tr)
		if !predicted {
			*tr = e.stp.Step(x.scratch, state, tr)
			d, x.buf = e.digest(tr.Next, x.buf)
		}
		record(tr.Violations, tr)

		fresh, improved := links.admit(d.h1, int32(depth), relax)
		if count {
			x.generated++
		}
		var vs []Violation
		looked := false
		if predicted && fresh {
			vs, looked = e.pred.InspectLeaf(x.scratch, state)
		}
		if predicted && !looked && (fresh || improved) && !e.confirm(x, state, tr, tr, d) {
			e.truncated.Store(true)
			return false
		}
		if !fresh {
			if improved && c.expandable(tr.Next) {
				c.pushState(e.stp.Keep(x.scratch, tr.Next), d, ent, tr)
			}
			continue
		}
		if !looked {
			vs = e.sys.Inspect(tr.Next)
		}
		record(vs, tr)
		e.explored.Add(1)
		if !looked && c.expandable(tr.Next) {
			c.pushState(e.stp.Keep(x.scratch, tr.Next), d, ent, tr)
		}
		if e.limitHit(x) {
			e.truncated.Store(true)
			return false
		}
	}
	return true
}
