// Package checker is the explicit-state safety model checker at the core
// of IotSan — the stand-in for Spin (§2.3). It explores a transition
// system from its initial state, de-duplicating visited states by a
// hash of their encoded state vector, and reports property violations
// together with Spin-style counter-example trails (Fig. 7).
//
// The search is organised as an engine with two strategies:
//
//   - StrategyDFS (default) is a single-goroutine iterative depth-first
//     search, the direct analogue of Spin's sequential verifier. It
//     threads the counter-example trail through the DFS stack, so trails
//     follow the depth-first exploration order exactly.
//   - StrategySteal is the one concurrent frontier search, in the spirit
//     of Holzmann's multi-core Spin: worker goroutines expand states
//     from private work-stealing deques and admit successors to one
//     lock-striped link table — visited set, minimal depths and
//     expansion claims, 12 bytes a state. Each deque entry carries the
//     path it was pushed by, and a violation's trail is the path of the
//     expansion that records it.
//
// On both, the trail reported for a violation is a genuine path from
// the initial state, not necessarily a shortest one.
//
// The visited-state stores mirror Spin's verification modes: an
// exhaustive hash-compact store in memory (one unlocked table for the
// DFS, the mutex-striped link table for the frontier search), and two
// stores that bound memory and serve the DFS alone — the same store
// tiered out to disk, and BITSTATE supertrace hashing, an approximate
// store that keeps k hash bits per state in a bit array, trading
// completeness for memory (§2.3; Holzmann's analysis of bitstate
// hashing). Checkpointing is DFS-only too; Options.Validate states the
// rule.
package checker

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// State is an opaque system state that can append a deterministic
// encoding of itself (its state vector) to a buffer.
//
// States handed to the checker must be immutable once returned from
// System.Initial or a Transition: the frontier strategy encodes and
// expands states from multiple goroutines without synchronisation.
type State interface {
	Encode(buf []byte) []byte
}

// Violation is a property violation detected in a state or on a
// transition.
type Violation struct {
	Property string // property identifier, e.g. "conflicting-commands"
	Detail   string // human-readable specifics
}

func (v Violation) String() string { return v.Property + ": " + v.Detail }

// Transition is one successor of a state.
//
// Systems that implement Replayer may return transitions in lazy-trail
// form: Steps nil (and possibly Label empty) with a non-zero Key. The
// engine then regenerates the micro-steps — and the label, when empty —
// only when a counter-example trail is actually materialized, keeping
// fmt-formatting entirely off the exploration hot path.
type Transition struct {
	Label      string   // short label, e.g. `alicePresence.presence = not present`
	Steps      []string // micro-steps for the trail (handler runs, commands)
	Key        uint64   // opaque replay handle for lazy trails (0 = none)
	Next       State
	Violations []Violation // violations raised while taking the transition
	// Fault marks an environment fault transition (device outage,
	// delayed/dropped command) injected by a fault-aware system; the
	// engine counts explored fault transitions separately in the result.
	Fault bool
}

// Replayer is optionally implemented by Systems whose transitions are
// deterministic re-executions: Replay re-runs the transition identified
// by key from its source state and returns the trail label, the
// micro-steps, and the successor state. The engine calls it only when a
// violation's trail is materialized, replaying forward along the trail
// (the successor feeds the next step's replay), so trail storage needs
// only keys — neither formatted steps nor retained source states.
// Replay must be safe for concurrent calls (it is re-execution through
// Expand's machinery, which already carries that contract). The
// successor is the engine's: a system that is also a StateRecycler gets
// it back through Recycle once the next step has been replayed from it.
type Replayer interface {
	Replay(from State, key uint64) (label string, steps []string, next State)
}

// Stepper is optionally implemented by Systems that can generate the
// successors of a state one at a time into worker-private storage. It
// is how the engine avoids paying for a state copy per generated
// successor when most successors are duplicates or leaves: Enabled lists
// the transitions of a state without executing any, Step executes one of
// them in the calling worker's Scratch, and only a successor the
// visited store reports new and that has transitions of its own is
// copied out with Keep.
//
//   - Enabled appends one stub per enabled transition of s to buf, in
//     the order Expand returns them: Label and Fault set as Expand sets
//     them, Next nil, and Key whatever Step needs to find the transition
//     again — the engine hands stubs back to Step and otherwise reads
//     only their count and Fault. Expand(s)[i] must equal, field for
//     field and state for state, Step of stub i followed by Keep.
//   - NewScratch returns the storage for one worker; a Scratch is never
//     used from two goroutines at once.
//   - Step runs stub, one of Enabled(parent), from parent and returns
//     the transition as Expand would have. Its Next and Violations are
//     borrowed: valid until the next Step or Keep on the same scratch.
//     Within that window the engine passes Next to IncrementalDigest,
//     Inspect, Enabled and Reduce, which may settle the state's caches
//     (block hashes, the atom valuation) as they would on any state;
//     the engine itself never retains, recycles or writes to Next.
//   - Keep returns a state the engine owns that equals next, the Next of
//     the scratch's last Step, with no further Step in between.
//
// A System that is also a Reducer is handed stubs: its Reduce must read
// only the state and the stubs' count, Label, Key and Fault. Every
// System without the hook is served through the same code path by an
// adapter whose Enabled is Expand and whose Step returns the stub; its
// successors are borrowed the same way, and with a StateRecycler the
// adapter recycles one that no Keep took at the next Step.
type Stepper interface {
	Enabled(s State, buf []Transition) []Transition
	NewScratch() Scratch
	Step(sc Scratch, parent State, stub *Transition) Transition
	Keep(sc Scratch, next State) State
}

// Scratch is a Stepper's per-worker storage, opaque to the engine.
type Scratch any

// Predictor is optionally implemented by a Stepper that can tell a
// successor's digest without stepping it: Predict returns the (h1, h2)
// IncrementalDigest of Step(sc, parent, stub).Next and that step's
// Violations, or ok false when it cannot tell. The engine asks it
// before every Step and skips the Step of a successor whose predicted
// digest the visited store has already seen; a new successor is
// stepped, and a digest or violation list that differs from the
// prediction fails the run (Result.Err), because a wrong prediction
// could as well have skipped a new state. The Step that confirms a
// prediction need not run the transition: the model may splice the
// successor from what an earlier Step of the same prediction wrote, once
// that Step was itself confirmed. So every kept state comes from a real
// Step or from such a splice — a state like any other, whose digest and
// violations the engine checks as it checks a real Step's. The
// violations are borrowed: valid until the next Predict or Keep on sc,
// so the Step that confirms a prediction can be held to them.
//
// InspectLeaf is asked once the store has reported the successor the
// last Predict on sc answered for from parent new (on steal: fresh, not
// merely depth-improved). When the model can tell that successor is a
// leaf — Enabled would list nothing — it returns what Inspect would
// return for it, with ok true, and the engine records those violations,
// counts the state and drops it: no Step, Inspect, Enabled or Keep. It
// reports ok false whenever it cannot tell, and the engine then
// confirms the prediction as above. A model may answer only from what
// earlier confirmed Steps of the same prediction established. The
// violations are the caller's to read, not to write.
//
// Both strategies adopt the hook where their digest is the raw
// IncrementalDigest: with HasIncremental true and no symmetry fold.
type Predictor interface {
	Predict(sc Scratch, parent State, stub *Transition) (h1, h2 uint64, viols []Violation, ok bool)
	InspectLeaf(sc Scratch, parent State) (viols []Violation, ok bool)
}

// Reducer is optionally implemented by Systems that support partial-order
// reduction. Reduce examines one expansion — the state and its full
// successor list — and returns the indices of a persistent subset of the
// transitions: a set whose members are mutually closed under dependence
// and independent of every transition outside it that could execute
// before them, so exploring only the subset from this state preserves
// every reachable distinct violation. A nil (or full-length) return
// means no reduction applies and the engine expands every transition.
//
// Reduce must be a pure function of the state: all strategies must see
// the same reduced graph or cross-strategy equivalence breaks, and the
// steal strategy's relaxation passes and the checkpoint rebuild replay
// a counted expansion by calling it again. The engine adopts a Reducer
// only from a System that also certifies progress (ProgressCertifier);
// it ignores any other and expands every state in full.
type Reducer interface {
	Reduce(s State, trs []Transition) []int
}

// CanonicalEncoder is optionally implemented by Systems that support
// symmetry reduction. CanonicalEncode appends a canonical encoding of
// the state: two states that are equivalent under the system's symmetry
// group (e.g. a permutation of interchangeable devices) must produce
// identical canonical encodings, and two inequivalent states must not.
// With Options.Symmetry set, the engine derives every visited-store
// digest from the canonical encoding instead of State.Encode.
// Everything else (the frontier, trails, expansion, replay) keeps
// operating on raw states, so reported counter-example trails replay as
// concrete executions of the unreduced model: the stored representative
// of each orbit is the first raw state that reached it, and a trail
// through it holds the replay keys of the raw path that got there.
//
// CanonicalEncode must be safe for concurrent calls on distinct states
// (same contract as Expand/Inspect).
//
// Systems may additionally implement HasSymmetry() bool to report
// whether canonicalization is non-trivial for this model; when it
// returns false the engine ignores the encoder entirely — digests take
// the raw path and the work-stealing strategy keeps its depth
// relaxation (which must be disabled under a real fold, where a
// duplicate hit is only isomorphic, not byte-identical, to the stored
// representative).
type CanonicalEncoder interface {
	CanonicalEncode(s State, buf []byte) []byte
}

// IncrementalDigester is optionally implemented by Systems whose states
// carry a block-hash cache: IncrementalDigest returns the (h1, h2)
// visited-store digest of s computed from cached per-block hashes
// (re-encoding only blocks the producing transition dirtied), with
// canonical selecting the symmetry-canonical fold. When HasIncremental
// reports true the engine derives every digest through it instead of
// encode-then-hash; the digest must induce the same state equivalence
// as hashing the (canonical) encoding — equal-encoding states must
// collide and distinct encodings must collide no more often than the
// flat hash would. The first digest of a state mutates its cache
// (refreshing dirty blocks), so the engine's contract is that each
// state object is digested by the goroutine that produced it before
// the state is shared; both strategies satisfy this by digesting
// children where they are expanded.
type IncrementalDigester interface {
	IncrementalDigest(s State, canonical bool) (h1, h2 uint64)
	HasIncremental() bool
}

// StateRecycler is optionally implemented by Systems that can reuse
// dead state objects: Recycle hands back a state the search has proven
// unreachable from any live structure — a fully expanded frame popped
// off the DFS stack, a consumed frontier state, a successor replayed
// for a trail, and, for a System without the Stepper hook, each
// successor the eager adapter handed out that no Keep took (a
// duplicate, a leaf), at the worker's next Step. The system may then
// recycle the state's backing storage into future Expand clones, which
// removes most of the allocation (and GC) cost of the expansion hot
// path. The engine only recycles states it obtained from
// Expand/Initial/Replay of the same run and never touches one again
// afterwards; recorded trails are materialized eagerly and drop their
// state references before any of those states can be recycled.
type StateRecycler interface {
	// Recycle retires s to the model's free-list. The state must not
	// be touched afterwards (enforced by the recyclelive analyzer).
	//
	//iotsan:retires s
	Recycle(s State)
}

// TransitionRecycler is optionally implemented by Systems alongside
// StateRecycler: the eager adapter (a System without the Stepper hook)
// hands back each Expand result once it has copied the entries out,
// letting the system reuse the backing array for later Expand calls.
// Only the array is reused — Steps and Label values copied out of
// entries (e.g. into trail steps) remain valid because they own their
// storage.
type TransitionRecycler interface {
	// RecycleTransitions retires the backing array of trs; the slice
	// must not be read again (enforced by the recyclelive analyzer).
	//
	//iotsan:retires trs
	RecycleTransitions(trs []Transition)
}

// DeltaCodec is optionally implemented by Systems whose states have the
// block-structured encoding (internal/model's PR 6 layout): DeltaEncode
// appends a delta of child's encoding against parent's — a dirty-block
// mask plus the bytes of only the blocks that differ — and DeltaApply
// reconstructs child's full flat encoding from parent plus such a
// delta. The checkpoint writer spills DFS stack states in this form
// (states on a stack differ from their parent by the few blocks one
// transition dirtied), and resume uses DeltaApply as the integrity
// cross-check that the re-expanded stack matches the spilled one.
type DeltaCodec interface {
	DeltaEncode(child, parent State, buf []byte) []byte
	DeltaApply(parent State, delta []byte, buf []byte) ([]byte, error)
}

// ProgressCertifier is implemented by Reducers that prove no cycle of
// the reduced state graph traverses a reduced-subset transition: every
// subset transition strictly decreases a well-founded measure of the
// state that no other transition increases. The ignoring problem (a
// transition postponed around a cycle forever) then cannot arise, so
// the engine needs no visited-state proviso — which matters because in
// confluent (diamond-shaped) state spaces the reduced successor is
// usually already visited through an equivalent interleaving, exactly
// where a proviso would forfeit the reduction. Options.POR takes effect
// only for a Reducer whose CertifiesProgress returns true. The model's
// certificate is checked, not trusted: the root walker's progress check
// measures it on every reduced expansion it meets.
type ProgressCertifier interface {
	CertifiesProgress() bool
}

// System is the transition system under verification.
//
// Expand and Inspect must be safe for concurrent calls on distinct
// states: the frontier strategy invokes them from several goroutines at
// once. Implementations must treat the receiver and the argument state
// as read-only, cloning into fresh successor states. A System that also
// implements Stepper is searched through that hook instead of Expand.
type System interface {
	// Initial returns the initial state.
	Initial() State
	// Expand returns the successors of s; an empty slice ends the path.
	Expand(s State) []Transition
	// Inspect evaluates state properties (safety invariants) on s.
	//
	// Inspect must be a pure function of the state's encoding: two
	// states with equal Encode bytes return equal violations, and with
	// Options.Symmetry so do two states with equal CanonicalEncode bytes
	// (the properties are invariant under the system's symmetry group).
	// The engine relies on it: every strategy asks the visited store
	// first and inspects only a state the store reports new, because a
	// duplicate's violations were recorded when its first copy was
	// admitted. A property of how a state was reached, not of the state,
	// belongs in Transition.Violations, which are recorded for every
	// successor generated.
	//
	// The engine only ranges over the result, so a System may return the
	// same slice for every state with the same answer; callers must not
	// write to it or append in place.
	Inspect(s State) []Violation
}

// StoreKind selects the visited-state store.
type StoreKind int

// Store kinds.
const (
	// Exhaustive stores a 64-bit hash per visited state (hash-compact).
	Exhaustive StoreKind = iota
	// Bitstate stores k bits per state in a fixed bit array (Spin's
	// BITSTATE / supertrace mode). A false-positive "seen" drops the
	// state before it is inspected or expanded. StrategyDFS only.
	Bitstate
	// Tiered is the out-of-core exhaustive store: two hot generations
	// of fingerprints on the heap, bounded by Options.MemBudget, and a
	// disk tier of 8-byte fingerprints in a memory-mapped hash table
	// under Options.StoreDir, fronted by a heap filter. Membership
	// semantics are identical to the in-memory exhaustive store
	// (hash-compact, keyed on the digest's first hash); the disk tier
	// only changes where cold fingerprints live. Requires StoreDir.
	// StrategyDFS only.
	Tiered
)

func (k StoreKind) String() string {
	switch k {
	case Bitstate:
		return "bitstate"
	case Tiered:
		return "tiered"
	}
	return "exhaustive"
}

// ParseStore maps a command-line store name to its kind.
func ParseStore(name string) (StoreKind, error) {
	switch name {
	case "", "exhaustive":
		return Exhaustive, nil
	case "bitstate":
		return Bitstate, nil
	case "tiered":
		return Tiered, nil
	}
	return Exhaustive, fmt.Errorf("checker: unknown store %q (want exhaustive, bitstate, or tiered)", name)
}

// StrategyKind selects the search strategy.
type StrategyKind int

// Strategies.
const (
	// StrategyDFS is the sequential iterative depth-first search
	// (default). Trails and exploration order are deterministic.
	StrategyDFS StrategyKind = iota
	// StrategySteal is the work-stealing frontier search:
	// Options.Workers goroutines with per-worker Chase–Lev deques (owner
	// LIFO, thieves FIFO) and no barrier, over a sharded link table that
	// is its visited store (trails ride on the deque entries). It runs
	// only on the Exhaustive store and without checkpoints
	// (Options.Validate). The distinct-violation set and explored state
	// space match StrategyDFS on a fully explored state space;
	// exploration order and trails may differ between runs.
	StrategySteal
)

func (k StrategyKind) String() string {
	if k == StrategySteal {
		return "steal"
	}
	return "dfs"
}

// ParseStrategy maps a command-line strategy name to its kind.
func ParseStrategy(name string) (StrategyKind, error) {
	switch name {
	case "", "dfs":
		return StrategyDFS, nil
	case "steal":
		return StrategySteal, nil
	}
	return StrategyDFS, fmt.Errorf("checker: unknown strategy %q (want dfs or steal)", name)
}

// Options configure a verification run.
type Options struct {
	Store StoreKind
	// Strategy selects the search strategy (StrategyDFS default).
	Strategy StrategyKind
	// Workers is the number of expansion goroutines for StrategySteal
	// (0 = GOMAXPROCS), a fixed crew for the whole search. Ignored by
	// StrategyDFS. The iotsan group scheduler sets it to each related
	// set's share of the engine's width.
	Workers int
	// Stop, when non-nil, is a cooperative global cancellation flag:
	// once set, all strategies stop at their next limit check and mark
	// the result truncated. The iotsan group scheduler uses it to cancel
	// sibling related-set searches when a global violation cap is hit.
	Stop *atomic.Bool
	// StoreDir is the scratch directory of the Tiered store (its disk
	// tier file) and of the write-ahead checkpoint log. The tier file is
	// recreated per run; only the WAL carries state across a restart.
	// Required for Tiered, Checkpoint and Resume.
	StoreDir string
	// MemBudget bounds the bytes of the Tiered store's hot tier (0 = 64
	// MiB, and never under 512 fingerprints). When half of it fills, the
	// older half spills to the disk tier on the search's goroutine.
	MemBudget int64
	// Checkpoint enables write-ahead checkpointing of the DFS, on any
	// store: every CheckpointEvery explored states the engine appends
	// the visited-set delta and a delta-encoded snapshot of the DFS
	// stack to StoreDir's WAL, so a killed search can resume.
	// StrategySteal refuses it.
	Checkpoint bool
	// Resume restarts a checkpointed search from StoreDir's last
	// durable checkpoint instead of from the initial state, and goes on
	// checkpointing as Checkpoint does. A missing, corrupt, or
	// configuration-mismatched WAL falls back to a fresh search (the WAL
	// is truncation-tolerant: a kill mid-append resumes from the
	// previous intact checkpoint). StrategySteal refuses it.
	Resume bool
	// CheckpointEvery is the number of explored states between
	// checkpoints (default 4096).
	CheckpointEvery int
	// BitstateBits is log2 of the bit-array size for Bitstate (default
	// 26 → 64 Mbit = 8 MB).
	BitstateBits uint
	// MaxDepth bounds the search depth in transitions (default 64).
	MaxDepth int
	// MaxStates bounds the number of states explored (0 = unlimited).
	MaxStates int
	// Deadline bounds wall-clock time (0 = unlimited).
	Deadline time.Duration
	// MaxViolations stops the search after that many distinct violations
	// (0 = collect all).
	MaxViolations int
	// POR enables partial-order reduction when the system implements
	// Reducer and certifies progress (ProgressCertifier): at each
	// expansion the engine asks the system for a persistent subset of
	// the enabled transitions and explores only that subset. The
	// certificate rules out the ignoring problem, so the subset is taken
	// as is. Without it POR is a no-op. Both strategies explore the same
	// reduced graph (Reduce is a pure function of the state), preserving
	// the cross-strategy equivalence guarantees.
	POR bool
	// Symmetry enables symmetry reduction when the system implements
	// CanonicalEncoder: the visited store (and the link table keyed
	// off the same digests) stores canonical state keys, folding
	// states that are permutations of interchangeable components into
	// one representative, while raw states continue to flow through the
	// frontier and trails so counter-examples replay concretely. Both
	// strategies share the one expansion/digest path, so the folded
	// state graph is identical across DFS and steal, and the reduction
	// composes with POR.
	Symmetry bool
	// NoEpochReclaim disables state recycling on StrategySteal. The zero
	// value keeps it ON: a consumed, fully expanded frontier state is
	// recycled by its consumer, whom the deque's exactly-once hand-off
	// makes its only holder, and the eager adapter hands back each
	// successor no Keep took at the worker's next Step. The name
	// predates the removal of the epoch-based grace period it once also
	// switched off. The flag is an A/B escape hatch; it does not affect
	// the sequential DFS free-lists, which predate it.
	NoEpochReclaim bool
}

// Validate states which option combinations a search runs under, and
// Run refuses every other through Result.Err. Steal keeps its visited
// set, depths and expansion claims in its link table, at 12 bytes a
// slot, so a tiered or bitstate store could not bound its memory; and
// only the DFS stack can be checkpointed. StrategySteal therefore runs
// only on the Exhaustive store, without Checkpoint or Resume.
// Checkpoint and Resume need StoreDir for the WAL.
func (o Options) Validate() error {
	if o.Strategy == StrategySteal {
		if o.Store != Exhaustive {
			return fmt.Errorf("checker: the steal strategy runs only on the exhaustive store, not %s", o.Store)
		}
		if o.Checkpoint || o.Resume {
			return errors.New("checker: the steal strategy cannot checkpoint or resume")
		}
	}
	if (o.Checkpoint || o.Resume) && o.StoreDir == "" {
		return errors.New("checker: checkpoint and resume require a store directory")
	}
	return nil
}

// TrailStep is one step of a counter-example trail. From/Key carry the
// lazy-trail replay handle while a trail is under construction; the
// engine resolves them into Label/Steps when a violation is recorded.
// From may be nil on steps after the first: materialization replays
// forward, threading each step's successor into the next.
type TrailStep struct {
	Label string
	Steps []string
	From  State  // source state of the step (lazy trails; nil = use the replayed predecessor)
	Key   uint64 // replay handle (lazy trails only)
}

// Found is a distinct violation with the trail that reaches it.
type Found struct {
	Violation
	Trail []TrailStep
	Depth int
}

// Result summarises a verification run.
type Result struct {
	Violations     []Found
	StatesExplored int // states visited (transitions taken + initial)
	StatesMatched  int // successors pruned because already visited
	StatesStored   int // entries in the visited store
	// MaxDepthReached is strategy-flavoured: DFS reports the deepest
	// stack depth of its (deterministic) exploration order, counting
	// edges into already-visited states; StrategySteal reports the
	// deepest stored state's minimal depth — the order-independent
	// fixpoint of its depth relaxation, i.e. the deepest level of a
	// breadth-first search — so the value is deterministic across runs
	// and worker counts, and on a graph with shortcuts it sits below the
	// DFS's.
	MaxDepthReached int
	Truncated       bool // a limit stopped the search early
	Elapsed         time.Duration

	// PORChoicePoints counts expansions where partial-order reduction
	// replaced the full enabled set with a persistent subset;
	// PORPrunedTransitions is the total number of transitions those
	// expansions skipped.
	PORChoicePoints      int
	PORPrunedTransitions int

	// FaultTransitionsExplored counts explored transitions flagged as
	// environment faults (Transition.Fault) — zero on fault-free models.
	FaultTransitionsExplored int

	// Store carries the tiered store's per-tier counters (zero-valued
	// for the in-memory stores).
	Store StoreStats

	// Err is set, and nothing else, when the search could not start —
	// Options.Validate refused the options, or the tiered store or the
	// checkpoint WAL could not be opened under Options.StoreDir — or
	// when it could not be trusted to finish: a Predictor's prediction
	// disagreed with the real step.
	Err error

	// reserves counts the search's questions to its shared violation
	// set (ReserveCalls).
	reserves int
}

// ReserveCalls is how many times the search asked its shared,
// lock-guarded violation set whether a violation was new: once per
// violation a worker had not already seen answered, so a handful per
// distinct violation and worker, however many successors raise it.
func (r *Result) ReserveCalls() int { return r.reserves }

// StoreStats is the per-tier observability of a Tiered-store run. The
// counters are a function of the digest stream alone, so two runs of
// one search report the same numbers.
type StoreStats struct {
	HotHits       int64 // duplicate hits answered by the hot tier
	DiskHits      int64 // duplicate hits answered by the disk tier
	FilterRejects int64 // disk probes skipped by a filter negative
	StoredNew     int64 // fingerprints admitted as new
	Spilled       int64 // fingerprints moved from the hot to the disk tier
	PeakResident  int64 // peak hot-tier entries (the entry budget once the store spills)
	// CheckpointBytes is the total WAL bytes written by this run's
	// checkpoints (zero with checkpointing off).
	CheckpointBytes int64
	// Checkpoints counts durable checkpoints taken; Resumed marks a run
	// that restarted from one.
	Checkpoints int64
	Resumed     bool
	// CheckpointErr is the error that disarmed the WAL mid-run: the
	// search went on without checkpoints after the Checkpoints-th.
	CheckpointErr error
}

// HasViolation reports whether a property with the given id was violated.
func (r *Result) HasViolation(property string) bool {
	for _, f := range r.Violations {
		if f.Property == property {
			return true
		}
	}
	return false
}

// PropertyIDs returns the distinct violated property ids, in discovery
// order.
func (r *Result) PropertyIDs() []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range r.Violations {
		if !seen[f.Property] {
			seen[f.Property] = true
			out = append(out, f.Property)
		}
	}
	return out
}

// Run verifies the system with the strategy selected in opts.
func Run(sys System, opts Options) *Result {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 64
	}
	e, err := newEngine(sys, opts)
	if err != nil {
		return &Result{Err: err}
	}
	var s strategy = &sequentialDFS{}
	if opts.Strategy == StrategySteal {
		s = &workSteal{workers: opts.Workers}
	}
	s.search(e)
	return e.finish()
}

// FormatTrail renders a counter-example trail in the style of the
// paper's Figure 7 violation log.
func FormatTrail(f Found) string {
	out := fmt.Sprintf("violated: %s (%s)\n", f.Property, f.Detail)
	n := 1
	for _, step := range f.Trail {
		out += fmt.Sprintf("%3d  [%s]\n", n, step.Label)
		n++
		for _, s := range step.Steps {
			out += fmt.Sprintf("     %s\n", s)
		}
	}
	return out
}
