package checker

import (
	"sync"
	"sync/atomic"
	"time"
)

// strategy is a search algorithm over the engine's shared machinery
// (visited store, hashing, limits, violation recording).
type strategy interface {
	search(e *engine)
}

// engine holds the state shared by all strategies of one verification
// run. Counters are atomic and violation recording is mutex-guarded so
// the same engine serves both the sequential and the frontier strategy.
type engine struct {
	sys   System
	opts  Options
	st    store
	start time.Time

	// replayer is non-nil when the system supports lazy trails; record
	// resolves TrailStep replay handles through it.
	replayer Replayer

	// reducer is non-nil when Options.POR is set and the system supports
	// partial-order reduction; expansions then route through reduce.
	// certified marks reducers that prove their subsets cannot lie on a
	// cycle of the reduced graph, which exempts them from the
	// visited-state proviso.
	reducer   Reducer
	certified bool

	// canon is non-nil when Options.Symmetry is set and the system
	// supports symmetry canonicalization; every visited-store digest is
	// then derived from the canonical encoding (digest is the single
	// funnel, so all strategies and the POR proviso fold identically).
	canon CanonicalEncoder

	// inc is non-nil when the system's states carry an incremental
	// block-hash cache (IncrementalDigester with HasIncremental true);
	// digest then folds cached block hashes instead of encode-and-hash.
	inc IncrementalDigester

	// stp generates successors for every strategy: the system's own
	// Stepper, or the eager adapter over Expand. keyed records which: a
	// keyed successor is borrowed from the worker's scratch until Keep,
	// an eager one is a clone the engine owns from the start.
	stp   Stepper
	keyed bool

	// rec is non-nil when the system recycles dead states: the
	// sequential DFS hands back popped frames, the frontier strategy
	// retires consumed states through epoch reclamation.
	rec StateRecycler

	// dupRec takes the successors the engine generated but will not keep
	// — a duplicate, a depth-clipped child. Nil on the keyed path, where
	// such a successor was never cloned, and when recycling is off for
	// the strategy.
	dupRec StateRecycler

	// frontierRecycle is set when the frontier strategy may recycle dead
	// states: rec non-nil and Options.NoEpochReclaim unset. The
	// sequential DFS free-lists are independent of it.
	frontierRecycle bool

	// needH2 is set when the store consumes the second hash — bitstate
	// derives probe positions from it, the tiered store records it on
	// disk as a collision diagnostic; the in-memory exhaustive stores
	// key on h1 alone, so the second hashing pass is skipped on their
	// per-state hot path.
	needH2 bool

	// tiered is the store downcast when Options.Store == Tiered, for
	// the spill-hint hook and the per-tier stats in Result.
	tiered *tieredStore

	// delta is non-nil when the system supports block-delta encoding
	// (DeltaCodec); checkpoint frames then spill as (dirty mask, dirty
	// block bytes) against their parent instead of full vectors.
	delta DeltaCodec

	// wal is non-nil when write-ahead checkpointing is armed (DFS with
	// Options.Checkpoint and a StoreDir, no uncertified reducer).
	wal *wal

	explored  atomic.Int64
	matched   atomic.Int64
	maxDepth  atomic.Int64
	violCount atomic.Int64
	// clockPolls counts limitHit calls under a Deadline; late latches the
	// first clock reading past it for every later call and worker.
	clockPolls  atomic.Uint32
	late        atomic.Bool
	truncated   atomic.Bool
	porChoices  atomic.Int64
	porPruned   atomic.Int64
	porFallback atomic.Int64
	faultTrs    atomic.Int64

	mu       sync.Mutex // guards violations + distinct
	distinct map[Violation]struct{}
	reserved int // accepted violations (found lags while trails materialize)
	found    []Found
}

func newEngine(sys System, opts Options) *engine {
	rp, _ := sys.(Replayer)
	var rd Reducer
	certified := false
	if opts.POR {
		rd, _ = sys.(Reducer)
		if pc, ok := sys.(ProgressCertifier); ok {
			certified = pc.CertifiesProgress()
		}
	}
	var ce CanonicalEncoder
	if opts.Symmetry {
		ce, _ = sys.(CanonicalEncoder)
		if hs, ok := sys.(interface{ HasSymmetry() bool }); ok && !hs.HasSymmetry() {
			// Canonicalization is the identity (no non-trivial orbits):
			// keep the raw digest path so the strategies retain their
			// exact-duplicate invariants (steal depth relaxation).
			ce = nil
		}
	}
	var inc IncrementalDigester
	if id, ok := sys.(IncrementalDigester); ok && id.HasIncremental() {
		inc = id
	}
	rec, _ := sys.(StateRecycler)
	dc, _ := sys.(DeltaCodec)
	e := &engine{
		sys:       sys,
		replayer:  rp,
		reducer:   rd,
		certified: certified,
		canon:     ce,
		inc:       inc,
		rec:       rec,

		frontierRecycle: rec != nil && !opts.NoEpochReclaim,

		delta: dc,

		opts:     opts,
		st:       newStore(opts, opts.Strategy != StrategyDFS),
		start:    time.Now(),
		needH2:   opts.Store == Bitstate || opts.Store == Tiered,
		distinct: map[Violation]struct{}{},
	}
	// An uncertified reducer's proviso digests the candidate successors,
	// so it needs them materialised: it stays on the eager adapter.
	if stp, ok := sys.(Stepper); ok && (rd == nil || certified) {
		e.stp, e.keyed = stp, true
	} else {
		eager := eagerStepper{sys: sys}
		if opts.Strategy == StrategyDFS || e.frontierRecycle {
			e.dupRec = rec
			if rec != nil {
				eager.trec, _ = sys.(TransitionRecycler)
			}
		}
		e.stp = eager
	}
	e.tiered, _ = e.st.(*tieredStore)
	// Checkpointing is DFS-only (the stack-invariant rebuild is its
	// resume mechanism) and requires deterministic re-expansion: an
	// uncertified reducer's visited-state proviso makes Reduce
	// store-dependent, so a rebuilt stack could diverge from the
	// checkpointed one — the WAL stays unarmed there.
	if opts.Checkpoint && opts.StoreDir != "" && opts.Strategy == StrategyDFS &&
		(e.reducer == nil || e.certified) {
		w, err := newWAL(opts, e.delta != nil)
		if err != nil {
			panic(err)
		}
		e.wal = w
	}
	return e
}

// spillFn returns the reclamation layer's spill hook: retired states'
// digests become preferred eviction candidates of the tiered store
// (eviction ordering follows epoch order under memory pressure). Nil
// without a tiered store, so the reclaimer pays nothing.
func (e *engine) spillFn() func(digest) {
	if e.tiered == nil {
		return nil
	}
	return e.tiered.spillHint
}

// logVisit appends a newly stored digest to the WAL's pending visit
// batch (flushed with the next checkpoint). DFS-only, so unsynchronised.
func (e *engine) logVisit(d digest) {
	if e.wal != nil {
		e.wal.pending = append(e.wal.pending, d)
	}
}

// digest encodes s into buf (reusing its capacity) and returns the
// fingerprint plus the grown buffer. With symmetry reduction the
// canonical encoding is hashed instead of the raw one — this is the
// single funnel every strategy, the link table, and the POR
// proviso key states through, so switching it folds the whole search
// onto orbit representatives. With an incremental digester the
// fingerprint folds the state's cached block hashes instead, skipping
// the flat re-encode entirely (buf passes through untouched). h2 is
// only computed when the store probes with it.
//
//iotsan:digest-funnel
func (e *engine) digest(s State, buf []byte) (digest, []byte) {
	if e.inc != nil {
		h1, h2 := e.inc.IncrementalDigest(s, e.canon != nil)
		d := digest{h1: h1}
		if e.needH2 {
			d.h2 = h2
		}
		return d, buf
	}
	if e.canon != nil {
		buf = e.canon.CanonicalEncode(s, buf[:0])
	} else {
		buf = s.Encode(buf[:0])
	}
	d := digest{h1: fnv1a(buf)}
	if e.needH2 {
		d.h2 = hash2(buf)
	}
	return d, buf
}

// eagerStepper serves a System without the Stepper hook — and any
// system under an uncertified reducer — through the engine's one
// successor path: the stubs are Expand's transitions, already executed
// and cloned, and Step hands the stub back. The strategies then treat
// an eager successor exactly like a keyed one, except that one they do
// not keep is a clone to recycle (engine.dupRec) instead of a borrowed
// scratch.
type eagerStepper struct {
	sys System
	// trec, when recycling is on for the run, takes back each Expand
	// result once its entries are copied into the engine's buffer.
	trec TransitionRecycler
}

func (a eagerStepper) Enabled(s State, buf []Transition) []Transition {
	trs := a.sys.Expand(s)
	buf = append(buf, trs...)
	if a.trec != nil {
		a.trec.RecycleTransitions(trs)
	}
	return buf
}

func (eagerStepper) NewScratch() Scratch { return nil }

func (eagerStepper) Step(_ Scratch, _ State, stub *Transition) Transition { return *stub }

func (eagerStepper) Keep(_ Scratch, next State) State { return next }

// expander is one worker's private expansion context: the scratch the
// system steps successors into, the stub buffer the frontier strategy
// refills per expansion (the DFS keeps one per stack frame instead), the
// state-vector encode buffer, and the worker's counter cell.
type expander struct {
	scratch Scratch
	stubs   []Transition
	buf     []byte
	stat    statCell
}

func (e *engine) newExpander() *expander {
	return &expander{scratch: e.stp.NewScratch(), buf: make([]byte, 0, 512)}
}

// record registers a violation if its (property, detail) pair is new,
// reporting whether it was recorded. The trail is copied. The
// MaxViolations cap is enforced here, under the lock, so concurrent
// workers can never overshoot it between their own limit checks.
//
// Callers that must pay to construct the trail (the frontier strategy
// rebuilds it from parent links per violation) should call
// reserve first and build the trail only for accepted violations —
// on violation-dense state spaces almost every hit is a duplicate, and
// constructing trails for them is pure allocation churn.
func (e *engine) record(v Violation, trail []TrailStep, depth int) bool {
	if !e.reserve(v) {
		return false
	}
	copied := append([]TrailStep(nil), trail...)
	e.commit(v, copied, depth)
	return true
}

// recordAll records vs against one trail, consulting the limits after
// each violation that was new; it reports whether a limit was hit.
func (e *engine) recordAll(vs []Violation, trail []TrailStep, depth int) bool {
	for _, v := range vs {
		if e.record(v, trail, depth) && e.limitHit() {
			return true
		}
	}
	return false
}

// reserve is phase 1 of recording: dedup + reserve a slot against the
// MaxViolations cap, under the lock. A true return obliges the caller
// to commit the violation.
func (e *engine) reserve(v Violation) bool {
	e.mu.Lock()
	if _, dup := e.distinct[v]; dup ||
		(e.opts.MaxViolations > 0 && e.reserved >= e.opts.MaxViolations) {
		e.mu.Unlock()
		return false
	}
	e.distinct[v] = struct{}{}
	e.reserved++
	e.mu.Unlock()
	e.violCount.Add(1)
	return true
}

// commit is phase 2: materialize the trail (forward replay —
// potentially a full re-execution per step) outside the lock, without
// serializing other workers behind it, then append the result. commit
// takes ownership of trail.
func (e *engine) commit(v Violation, trail []TrailStep, depth int) {
	e.materialize(trail)
	e.mu.Lock()
	e.found = append(e.found, Found{
		Violation: v,
		Trail:     trail,
		Depth:     depth,
	})
	e.mu.Unlock()
}

// materialize resolves lazy trail steps in place by replaying forward:
// the first step carries its source state, each replay returns the
// successor the next step starts from. Steps whose chain is broken (an
// eagerly recorded, keyless step in the middle of a parent-link trail)
// degrade to label-only. Runs outside the engine lock, only for
// genuinely new violations — duplicates are rejected before reaching
// it.
func (e *engine) materialize(ts []TrailStep) {
	var cur State
	for i := range ts {
		if ts[i].From != nil {
			cur = ts[i].From
		}
		replayed := false
		if e.replayer != nil && ts[i].Steps == nil && ts[i].Key != 0 && cur != nil {
			label, steps, next := e.replayer.Replay(cur, ts[i].Key)
			if ts[i].Label == "" {
				ts[i].Label = label
			}
			if steps == nil {
				steps = []string{}
			}
			ts[i].Steps = steps
			cur = next
			replayed = true
		}
		if !replayed {
			if ts[i].Steps == nil {
				ts[i].Steps = []string{}
			}
			cur = nil // successor unknown: later keyed steps degrade to labels
		}
		ts[i].From, ts[i].Key = nil, 0
	}
}

// clockPollEvery is how many limitHit calls — one per state or successor,
// microseconds apart — share a reading of the clock: the first reads it,
// then every 256th, which keeps time.Now off the per-state path.
const clockPollEvery = 256

// limitHit reports whether a search limit has been reached. Strategies
// must consult it after every recorded violation and explored state —
// not only per iteration — so MaxViolations and Deadline cannot be
// overshot by a whole expansion.
func (e *engine) limitHit() bool {
	if e.opts.Stop != nil && e.opts.Stop.Load() {
		return true
	}
	if e.opts.MaxStates > 0 && int(e.explored.Load()) >= e.opts.MaxStates {
		return true
	}
	if e.opts.Deadline > 0 {
		if e.late.Load() {
			return true
		}
		if e.clockPolls.Add(1)%clockPollEvery == 1 && time.Since(e.start) > e.opts.Deadline {
			e.late.Store(true)
			return true
		}
	}
	if e.opts.MaxViolations > 0 && int(e.violCount.Load()) >= e.opts.MaxViolations {
		return true
	}
	return false
}

// enabled returns the stubs of the transitions to explore from state,
// appended to stubs[:0]: the system's full list, reduced to a
// persistent subset when partial-order reduction selects one at this
// state. Both strategies expand through this path, so they explore the
// same reduced graph.
//
// The cycle/visited-state proviso is enforced here, so no violation
// reachable through a pruned interleaving can be masked by the ignoring
// problem (a transition postponed around a cycle forever). Reducers
// that certify progress (ProgressCertifier) have proved no reduced
// cycle can traverse a subset transition, which discharges the proviso
// structurally. For any other reducer — always on the eager adapter, so
// the stubs carry their successors — a proper subset is accepted only
// if at least one of its successors is not already in the visited
// store: otherwise every subset transition closes back into explored
// territory and the engine falls back to the full expansion. (The
// probe digests each selected successor a second time — the strategy
// re-digests them for the store insert — but only uncertified reducers
// pay it, and only on accepted reductions.)
//
// count is false on the work-stealing strategy's depth-relaxation
// re-expansions: those must replay exactly the subset the counted
// expansion explored — for a certified reducer, Reduce is a pure
// function of the state, so re-running it yields the identical subset;
// the reduction counters are suppressed so statistics count each choice
// point once. Uncertified reducers never reach here with count=false
// (the steal strategy disables relaxation for them): their proviso
// consults the visited store, whose contents have changed since the
// counted expansion, so a replay could diverge from the counted graph.
func (e *engine) enabled(state State, stubs []Transition, buf []byte, count bool) ([]Transition, []byte) {
	trs := e.stp.Enabled(state, stubs[:0])
	if e.reducer == nil || len(trs) < 2 {
		e.noteFaults(trs, count)
		return trs, buf
	}
	sel := e.reducer.Reduce(state, trs)
	if len(sel) == 0 || len(sel) >= len(trs) {
		e.noteFaults(trs, count)
		return trs, buf
	}
	if !e.certified {
		fresh := false
		for _, i := range sel {
			var d digest
			d, buf = e.digest(trs[i].Next, buf)
			if !e.st.peek(d) {
				fresh = true
				break
			}
		}
		if !fresh {
			e.porFallback.Add(1)
			e.noteFaults(trs, count)
			return trs, buf
		}
	}
	if count {
		e.porChoices.Add(1)
		e.porPruned.Add(int64(len(trs) - len(sel)))
	}
	// Compact the selected stubs to the front of trs in place (sel is
	// ascending, so every move is leftward). Pruned transitions never
	// leave this expansion on any strategy, so on the eager path their
	// freshly cloned states go straight back to the free-list.
	if !e.keyed && e.rec != nil {
		j := 0
		for i := range trs {
			if j < len(sel) && sel[j] == i {
				j++
				continue
			}
			e.rec.Recycle(trs[i].Next)
			trs[i].Next = nil
		}
	}
	for j, i := range sel {
		trs[j] = trs[i]
	}
	out := trs[:len(sel)]
	e.noteFaults(out, count)
	return out, buf
}

// statCell batches one worker's explored/matched counts off the shared
// atomics. Each worker goroutine keeps its own cell (stack-local — no
// sharing, no padding needed) and folds it into the engine totals at
// termination plus periodically, so the per-state counter cost on the
// frontier hot path is two local increments instead of contended
// read-modify-writes. With MaxStates set, explored folds on every bump
// so limitHit sees the exact global count — truncation semantics are
// unchanged from the per-state atomics.
type statCell struct {
	explored int64
	matched  int64
}

// statFlushEvery bounds how many explored states a worker accumulates
// locally on unbounded searches before folding into the shared counter.
const statFlushEvery = 32

func (sc *statCell) bumpExplored(e *engine) {
	sc.explored++
	if e.opts.MaxStates > 0 || sc.explored >= statFlushEvery {
		e.explored.Add(sc.explored)
		sc.explored = 0
	}
}

// flush folds the residues into the engine totals. Workers flush on
// exit (before the strategy's WaitGroup releases the main goroutine),
// so Result totals are exact.
func (sc *statCell) flush(e *engine) {
	if sc.explored != 0 {
		e.explored.Add(sc.explored)
		sc.explored = 0
	}
	if sc.matched != 0 {
		e.matched.Add(sc.matched)
		sc.matched = 0
	}
}

// noteFaults adds the fault-flagged transitions in the final successor
// slice of a counted expansion to the run's fault-transition tally
// (re-expansions with count=false replay a counted expansion and must
// not double-count).
func (e *engine) noteFaults(trs []Transition, count bool) {
	if !count {
		return
	}
	n := 0
	for i := range trs {
		if trs[i].Fault {
			n++
		}
	}
	if n > 0 {
		e.faultTrs.Add(int64(n))
	}
}

// noteDepth raises MaxDepthReached to d. DFS-only, so unsynchronised:
// the frontier strategy stores the result of its final depth scan.
func (e *engine) noteDepth(d int) {
	if int64(d) > e.maxDepth.Load() {
		e.maxDepth.Store(int64(d))
	}
}

// visitInitial stores and inspects the initial state, returning it with
// its digest.
func (e *engine) visitInitial(x *expander) (State, digest) {
	init := e.sys.Initial()
	var d digest
	d, x.buf = e.digest(init, x.buf)
	if !e.st.seen(d) {
		e.logVisit(d)
	}
	e.explored.Add(1)
	for _, v := range e.sys.Inspect(init) {
		e.record(v, nil, 0)
	}
	return init, d
}

// finish assembles the Result, closing the out-of-core tiers and the
// WAL (the search has fully quiesced by the time a strategy returns).
func (e *engine) finish() *Result {
	var ss StoreStats
	storedOverride := -1
	if e.tiered != nil {
		// Drain the spiller first: a digest mid-spill has its disk
		// record written before its hot entry is deleted, so size()
		// counts it twice until the spiller quiesces. count() and the
		// resident counter stay readable after close tears the tier
		// files down.
		ss = e.tiered.close()
		storedOverride = e.st.size()
	}
	if e.wal != nil {
		ss.CheckpointBytes = e.wal.bytes
		ss.Checkpoints = e.wal.checkpoints
		ss.Resumed = e.wal.resumed
		e.wal.close()
	}
	stored := storedOverride
	if stored < 0 {
		stored = e.st.size()
	}
	return &Result{
		Store:           ss,
		Violations:      e.found,
		StatesExplored:  int(e.explored.Load()),
		StatesMatched:   int(e.matched.Load()),
		StatesStored:    stored,
		MaxDepthReached: int(e.maxDepth.Load()),
		Truncated:       e.truncated.Load(),
		Elapsed:         time.Since(e.start),

		PORChoicePoints:      int(e.porChoices.Load()),
		PORPrunedTransitions: int(e.porPruned.Load()),
		PORFallbacks:         int(e.porFallback.Load()),

		FaultTransitionsExplored: int(e.faultTrs.Load()),
	}
}
