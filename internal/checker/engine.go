package checker

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
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

	// reducer is non-nil when Options.POR is set and the system is a
	// Reducer that certifies progress; expansions then route through
	// Reduce.
	reducer Reducer

	// canon is non-nil when Options.Symmetry is set and the system
	// supports symmetry canonicalization; every visited-store digest is
	// then derived from the canonical encoding (digest is the single
	// funnel, so all strategies fold identically).
	canon CanonicalEncoder

	// inc is non-nil when the system's states carry an incremental
	// block-hash cache (IncrementalDigester with HasIncremental true);
	// digest then folds cached block hashes instead of encode-and-hash.
	inc IncrementalDigester

	// stp generates successors for every strategy: the system's own
	// Stepper, or the eager adapter over Expand. Either way a stepped
	// successor is borrowed from the worker's scratch until the next
	// Step or Keep. keyed records which, for steal's leaf probe alone
	// (expandable).
	stp   Stepper
	keyed bool

	// pred is the system's Predictor, adopted by both strategies on the
	// keyed path when the digest is the raw incremental one (no symmetry
	// fold).
	pred Predictor

	// rec is non-nil when the system recycles dead states: the
	// sequential DFS hands back popped frames, the frontier strategy
	// consumed, fully expanded states (their consumer is their only
	// holder).
	rec StateRecycler

	// frontierRecycle is set when the frontier strategy recycles
	// consumed states, and the eager adapter on it the successors it
	// handed out and nobody kept: rec non-nil and Options.NoEpochReclaim
	// unset. The sequential DFS free-lists are independent of it.
	frontierRecycle bool

	// needH2 is set when the store consumes the second hash: bitstate
	// derives probe positions from it. Every other store keys on h1
	// alone, so the second hashing pass is skipped on their per-state
	// hot path.
	needH2 bool

	// tiered is the store downcast when Options.Store == Tiered, for
	// the per-tier stats in Result.
	tiered *tieredStore

	// delta is non-nil when the system supports block-delta encoding
	// (DeltaCodec); checkpoint frames then spill as (dirty mask, dirty
	// block bytes) against their parent instead of full vectors.
	delta DeltaCodec

	// wal is non-nil when write-ahead checkpointing is armed
	// (Options.Checkpoint or Options.Resume; DFS only). walStats keeps
	// its counters and error once a failed checkpoint disarms it.
	wal      *wal
	walStats StoreStats

	explored atomic.Int64
	matched  atomic.Int64
	maxDepth atomic.Int64
	// late latches the first clock reading past the Deadline for every
	// later limitHit call and worker.
	late       atomic.Bool
	truncated  atomic.Bool
	porChoices atomic.Int64
	porPruned  atomic.Int64
	faultTrs   atomic.Int64

	// err is a fatal error that stopped the search (engine.confirm); the
	// result then carries it alone. Written under mu, first failure wins.
	err error

	mu       sync.Mutex // guards found, distinct, reserves and err
	distinct map[Violation]struct{}
	reserves int // reserve calls: violations some worker had not seen answered
	found    []Found
}

// newEngine sets up one run. It fails when Options.Validate refuses the
// options, or when the tiered store or the WAL cannot be opened under
// Options.StoreDir.
func newEngine(sys System, opts Options) (*engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	st, err := newStore(opts)
	if err != nil {
		return nil, err
	}
	rp, _ := sys.(Replayer)
	// Only a reducer that certifies progress is adopted. Ignoring any
	// other is sound: the search then takes every full expansion.
	var rd Reducer
	if pc, ok := sys.(ProgressCertifier); opts.POR && ok && pc.CertifiesProgress() {
		rd, _ = sys.(Reducer)
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
		sys:      sys,
		replayer: rp,
		reducer:  rd,
		canon:    ce,
		inc:      inc,
		rec:      rec,

		frontierRecycle: rec != nil && !opts.NoEpochReclaim,

		delta: dc,

		opts:     opts,
		st:       st,
		start:    time.Now(),
		needH2:   opts.Store == Bitstate,
		distinct: map[Violation]struct{}{},
	}
	if stp, ok := sys.(Stepper); ok {
		e.stp, e.keyed = stp, true
		if e.inc != nil && e.canon == nil {
			e.pred, _ = sys.(Predictor)
		}
	} else {
		eager := eagerStepper{sys: sys}
		if rec != nil && (opts.Strategy == StrategyDFS || e.frontierRecycle) {
			eager.rec = rec
			eager.trec, _ = sys.(TransitionRecycler)
		}
		e.stp = eager
	}
	e.tiered, _ = e.st.(*tieredStore)
	// Checkpointing is DFS-only (Validate): the stack-invariant rebuild
	// is its resume mechanism, and it re-expands deterministically
	// because Reduce is a pure function of the state. A resumed search
	// goes on checkpointing.
	if opts.Checkpoint || opts.Resume {
		w, err := newWAL(opts)
		if err != nil {
			if e.tiered != nil {
				e.tiered.close()
			}
			return nil, err
		}
		e.wal = w
	}
	return e, nil
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
// single funnel every strategy and the link table key states through,
// so switching it folds the whole search onto orbit representatives.
// With an incremental digester the fingerprint folds the state's cached
// block hashes instead, skipping the flat re-encode entirely (buf
// passes through untouched). h2 is only computed when the store probes
// with it.
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

// predict asks the Predictor for stub's successor from parent. On an
// answer it writes the transition into out as Step would, but with Next
// nil, and returns the predicted digest, reduced to what the store
// probes; out is the caller's (the DFS's one per-search value, steal's
// stub slot itself, which out may alias), so nothing is returned by
// value per successor. Without an answer out is untouched.
func (e *engine) predict(x *expander, parent State, stub, out *Transition) (digest, bool) {
	if e.pred == nil {
		return digest{}, false
	}
	h1, h2, vs, ok := e.pred.Predict(x.scratch, parent, stub)
	if !ok {
		return digest{}, false
	}
	d := digest{h1: h1}
	if e.needH2 {
		d.h2 = h2
	}
	// Field by field: a composite literal would be built on the stack
	// and block-copied into out, once per successor. out may alias
	// stub, whose label, key and fault it keeps.
	label, key, fault := stub.Label, stub.Key, stub.Fault
	out.Label, out.Steps, out.Key, out.Next, out.Violations, out.Fault = label, nil, key, nil, vs, fault
	return d, true
}

// confirm steps stub, whose successor out holds as predicted (digest d,
// violations out.Violations), once the store has reported that digest
// new (or, on steal, lowered its depth) and the Predictor could not
// look it up as a leaf: the real step overwrites out and is held to the
// prediction. A disagreement is a model bug that
// could as well have skipped a new state: confirm sets e.err, naming
// the transition, unless another worker's failure got there first, and
// reports false, and the search must stop.
func (e *engine) confirm(x *expander, parent State, stub, out *Transition, d digest) bool {
	want := out.Violations
	*out = e.stp.Step(x.scratch, parent, stub)
	var got digest
	got, x.buf = e.digest(out.Next, x.buf)
	if got == d && slices.Equal(out.Violations, want) {
		return true
	}
	err := fmt.Errorf("checker: transition %q (key %#x): predicted digest %#x with violations %v, the step gives %#x with %v",
		out.Label, out.Key, d.h1, want, got.h1, out.Violations)
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	return false
}

// eagerStepper serves a System without the Stepper hook through the
// engine's one successor path: the stubs are Expand's transitions,
// already executed and cloned, and Step hands the stub back. Its
// successors follow the Stepper contract like a keyed one: borrowed
// from the worker's scratch until the next Step or Keep, so the
// strategies never recycle a successor. With recycling on for the run,
// the next Step hands an unkept successor (a duplicate, a leaf) back to
// the system; one never stepped (partial-order pruned, clipped by the
// depth bound) is left to the collector.
type eagerStepper struct {
	sys System
	// rec and trec are set when recycling is on for the run: rec takes
	// back each unkept successor, trec each Expand result once its
	// entries are copied into the engine's buffer.
	rec  StateRecycler
	trec TransitionRecycler
}

// eagerScratch is one worker's borrowed window: the successor the last
// Step handed out, and whether a Keep took it since.
type eagerScratch struct {
	last State
	kept bool
}

func (a eagerStepper) Enabled(s State, buf []Transition) []Transition {
	trs := a.sys.Expand(s)
	buf = append(buf, trs...)
	if a.trec != nil {
		a.trec.RecycleTransitions(trs)
	}
	return buf
}

func (eagerStepper) NewScratch() Scratch { return new(eagerScratch) }

func (a eagerStepper) Step(sc Scratch, _ State, stub *Transition) Transition {
	es := sc.(*eagerScratch)
	if a.rec != nil && es.last != nil && !es.kept {
		a.rec.Recycle(es.last)
	}
	es.last, es.kept = stub.Next, false
	return *stub
}

func (eagerStepper) Keep(sc Scratch, next State) State {
	sc.(*eagerScratch).kept = true
	return next
}

// expander is one worker's private expansion context: the scratch the
// system steps successors into, the stub buffer the frontier strategy
// refills per expansion (the DFS keeps one per stack frame instead) and
// the one it probes a new successor's transitions into, the
// state-vector encode buffer, the successors its counted frontier
// expansions generated (the strategy derives StatesMatched from the
// sum once the deques drain), its limitHit calls under a Deadline
// (polls), and its violation cache.
type expander struct {
	scratch   Scratch
	stubs     []Transition
	probe     []Transition
	buf       []byte
	generated int64
	polls     uint32
	viols     violCache
}

func (e *engine) newExpander() *expander {
	return &expander{scratch: e.stp.NewScratch(), buf: make([]byte, 0, 512)}
}

// violCacheBits is log2 of the slots of a worker's violation cache,
// which holds at most violCacheMax violations. A search meets a few
// distinct violations, each typically on thousands of successors.
const (
	violCacheBits = 6
	violCacheMax  = 3 << (violCacheBits - 2)
)

// violCache remembers, per worker, violations the engine has already
// answered for — accepted or a duplicate. Every such answer is final,
// because the distinct set only grows, so a hit skips reserve: no
// engine lock and no map lookup for a repeat. It is a fixed table
// compared by value, probed linearly from a violation's home slot, in
// which an empty slot matches nothing, not even Violation{}. Nothing is
// evicted: a direct-mapped cache measured 20,450 reserve calls instead
// of 13 on the Table 8 search at 5 events, two of its 13 violations
// sharing a slot and evicting each other, which 13 keys in 64 slots do
// about two times in three. Past violCacheMax entries a violation goes
// to reserve every time, which is slower but as correct.
type violCache struct {
	slots [1 << violCacheBits]struct {
		v    Violation
		full bool
	}
	n int
}

// violSlot is v's home slot in the cache, from its lengths and the
// first and last eight bytes of its detail: a few nanoseconds, where
// hashing both strings whole costs about as much as the lookup it
// saves. Violations it does not tell apart only probe further.
func violSlot(v Violation) int {
	d := v.Detail
	h := uint64(len(v.Property))<<32 | uint64(len(d))
	if n := len(d); n >= 8 {
		h ^= le64(d) ^ bits.RotateLeft64(le64(d[n-8:]), 29)
	} else {
		for i := 0; i < n; i++ {
			h = h<<8 ^ uint64(d[i])
		}
	}
	return int((h * 0x9e3779b97f4a7c15) >> (64 - violCacheBits))
}

// le64 reads the first eight bytes of s as a little-endian word; the
// compiler merges the byte loads into one.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// sameString is a == b, deciding first by the data pointers: a repeat
// of a violation usually shares its strings with the cached copy.
func sameString(a, b string) bool {
	return len(a) == len(b) && (unsafe.StringData(a) == unsafe.StringData(b) || a == b)
}

// admit reports whether v is accepted for recording: new to the run. A
// violation x's cache holds was answered for before and is refused
// without asking; any other goes to reserve, and the answer is cached
// while the cache has room. A true return obliges the caller to commit.
func (e *engine) admit(x *expander, v Violation) bool {
	c := &x.viols
	i := violSlot(v)
	for c.slots[i].full { // an empty slot remains: n ≤ violCacheMax
		if sv := &c.slots[i].v; sameString(sv.Detail, v.Detail) && sameString(sv.Property, v.Property) {
			return false
		}
		i = (i + 1) & (len(c.slots) - 1)
	}
	ok := e.reserve(v)
	if c.n < violCacheMax {
		c.slots[i].v, c.slots[i].full = v, true
		c.n++
	}
	return ok
}

// stepOf is the trail step tr takes from from: its replay handle while
// the trail is lazy, resolved by materialize when a violation commits.
func stepOf(from State, tr *Transition) TrailStep {
	return TrailStep{Label: tr.Label, Steps: tr.Steps, From: from, Key: tr.Key}
}

// recordAll records each violation of vs whose (property, detail) pair
// is new. Its trail is trail followed by the pending step tr takes from
// from (none when tr is nil), built — a fresh copy — only after admit
// accepts the violation: on violation-dense state spaces almost every
// hit is a duplicate, and a trail built for one is pure allocation
// churn.
func (e *engine) recordAll(x *expander, vs []Violation, trail []TrailStep, from State, tr *Transition, depth int) {
	for _, v := range vs {
		if !e.admit(x, v) {
			continue
		}
		copied := append([]TrailStep(nil), trail...)
		if tr != nil {
			copied = append(copied, stepOf(from, tr))
		}
		e.commit(v, copied, depth)
	}
}

// reserve is phase 1 of recording: dedup under the lock. A true return
// obliges the caller to commit the violation. Callers go through admit,
// which asks only about a violation their worker has not seen answered.
func (e *engine) reserve(v Violation) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reserves++
	if _, dup := e.distinct[v]; dup {
		return false
	}
	e.distinct[v] = struct{}{}
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
// a step that carries its source state replays from it, and any other
// replays from the successor the step before it returned. Steps whose
// chain is broken (a keyless step, recorded eagerly, earlier on the
// trail) degrade to label-only. Runs outside the engine lock, only for
// genuinely new violations — duplicates are rejected before reaching
// it.
//
// A successor Replay returned is held by nothing but this loop, so it
// goes back to the StateRecycler as soon as nothing needs it: once the
// next step has been replayed from it, once a later step's own From
// supersedes it (every step of a DFS trail carries one), or when the
// trail ends. Replay's next clone then reuses it, and a trail costs
// about one state however long it is. A From state is the search's and
// is never recycled.
func (e *engine) materialize(ts []TrailStep) {
	var cur State
	ours := false // cur is a successor Replay returned
	release := func() {
		if ours && e.rec != nil {
			e.rec.Recycle(cur)
		}
		cur, ours = nil, false
	}
	for i := range ts {
		if ts[i].From != nil {
			release()
			cur = ts[i].From
		}
		if e.replayer != nil && ts[i].Steps == nil && ts[i].Key != 0 && cur != nil {
			label, steps, next := e.replayer.Replay(cur, ts[i].Key)
			if ts[i].Label == "" {
				ts[i].Label = label
			}
			if steps == nil {
				steps = []string{}
			}
			ts[i].Steps = steps
			release()
			cur, ours = next, next != nil
		} else {
			if ts[i].Steps == nil {
				ts[i].Steps = []string{}
			}
			release() // successor unknown: later keyed steps degrade to labels
		}
		ts[i].From, ts[i].Key = nil, 0
	}
	release()
}

// clockPollEvery is how many of a worker's limitHit calls — one per
// state or successor, microseconds apart — share a reading of the
// clock: the first reads it, then every 256th, which keeps time.Now off
// the per-state path.
const clockPollEvery = 256

// limitHit reports whether a search limit (Stop, MaxStates, Deadline)
// has been reached; MaxDepth clips the search where it applies instead.
// Strategies consult it per iteration and after every explored state,
// not only per expansion, so MaxStates and Deadline cannot be
// overshot by a whole expansion. x is the calling worker's expander,
// whose own counter paces its clock readings: a shared one would be a
// contended write per call on every worker.
func (e *engine) limitHit(x *expander) bool {
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
		x.polls++
		if x.polls%clockPollEvery == 1 && time.Since(e.start) > e.opts.Deadline {
			e.late.Store(true)
			return true
		}
	}
	return false
}

// enabled returns the stubs of the transitions to explore from state,
// appended to stubs[:0]: the system's full list, reduced to a
// persistent subset when partial-order reduction selects one at this
// state. Both strategies expand through this path, so they explore the
// same reduced graph. The reducer certifies progress, so no reduced
// cycle can postpone a subset transition forever (the ignoring
// problem) and no visited-state proviso is needed.
//
// count is false on replays of a counted expansion — the steal
// strategy's depth-relaxation re-expansions and the checkpoint
// rebuild — which see the identical subset because Reduce is a pure
// function of the state; the reduction and fault counters are
// suppressed so statistics count each choice point once.
func (e *engine) enabled(state State, stubs []Transition, count bool) []Transition {
	trs := e.stp.Enabled(state, stubs[:0])
	if e.reducer == nil || len(trs) < 2 {
		e.noteFaults(trs, count)
		return trs
	}
	sel := e.reducer.Reduce(state, trs)
	if len(sel) == 0 || len(sel) >= len(trs) {
		e.noteFaults(trs, count)
		return trs
	}
	if count {
		e.porChoices.Add(1)
		e.porPruned.Add(int64(len(trs) - len(sel)))
	}
	// Compact the selected stubs to the front of trs in place (sel is
	// ascending, so every move is leftward).
	for j, i := range sel {
		trs[j] = trs[i]
	}
	out := trs[:len(sel)]
	e.noteFaults(out, count)
	return out
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
	e.recordAll(x, e.sys.Inspect(init), nil, nil, nil, 0)
	return init, d
}

// finish assembles the Result, closing the out-of-core tiers and the
// WAL (the search has fully quiesced by the time a strategy returns).
func (e *engine) finish() *Result {
	var ss StoreStats
	if e.tiered != nil {
		ss = e.tiered.close()
	}
	if e.wal != nil {
		e.disarmWAL(nil)
	}
	ss.CheckpointBytes = e.walStats.CheckpointBytes
	ss.Checkpoints = e.walStats.Checkpoints
	ss.Resumed = e.walStats.Resumed
	ss.CheckpointErr = e.walStats.CheckpointErr
	if e.err != nil {
		return &Result{Err: e.err}
	}
	return &Result{
		Store:           ss,
		Violations:      e.found,
		StatesExplored:  int(e.explored.Load()),
		StatesMatched:   int(e.matched.Load()),
		StatesStored:    e.st.size(),
		MaxDepthReached: int(e.maxDepth.Load()),
		Truncated:       e.truncated.Load(),
		Elapsed:         time.Since(e.start),

		PORChoicePoints:      int(e.porChoices.Load()),
		PORPrunedTransitions: int(e.porPruned.Load()),

		FaultTransitionsExplored: int(e.faultTrs.Load()),

		reserves: e.reserves,
	}
}
