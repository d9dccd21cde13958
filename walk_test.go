// The walker: one depth-first walk per model that checks, at every
// successor it meets, the per-state contracts the engine's shortcuts
// rest on. Each check compares a shortcut with what it replaces:
//
//	keyed      stub + Step + Keep on one scratch ≡ Expand(s)[i]: label, key, fault flag,
//	           steps, violations, Encode bytes before and after Keep, digests
//	predict    wherever the scratch's transition memo answers, its digest and violations
//	           ≡ Step's successor digested and Step's violations; a memo row must splice
//	           (the keyed check then covers the spliced contents)
//	leaf       wherever the memo looks a predicted leaf up (InspectLeaf), Expand's
//	           successor is a leaf, and its valuation from scratch ≡ the looked-up
//	           word, its per-invariant violations ≡ the looked-up ones
//	digest     the incremental digest ≡ that of a clone with every block dirty, raw and canonical
//	valuation  the atom word Inspect settles ≡ every atom evaluated from scratch, and its
//	           verdict ≡ a plain loop over the invariants' per-state twins
//	purity     equal Encode bytes, or equal CanonicalEncode bytes, give equal Inspect results
//	budget0    a fault layer with a zero budget ≡ none, in lockstep: no fault transition,
//	           byte-identical raw and canonical encodings and digests
//	progress   POR's progress certificate, where Reduce prunes: the pending entries of the
//	           selected classes strictly fall along every selected successor, with
//	           EventsUsed frozen, and rise along no other
//	commute    two pending dispatches the dependence relation calls independent
//	           (Model.Independent), stepped in both orders: each stays enabled after the
//	           other, and the end states' Encode bytes, the violations raised along the
//	           way and the end state's Inspect are the same (at most maxCommutePairs)
//
// The walk steps a state's next child only after returning from the
// previous child's subtree, as the DFS strategy does, so the scratch
// re-syncs across pops. It descends into one random child of every state
// (so it reaches the leaves) and, near the root, into a third of the
// others, and starts again from the root until it has checked 1500
// successors.
package iotsan_test

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/config"
	"iotsan/internal/experiments"
	"iotsan/internal/ir"
	"iotsan/internal/model"
	"iotsan/internal/props"
	"iotsan/internal/smartapp"
)

// divergence counts the failures of one check and keeps the first.
type divergence struct {
	count int
	first string
}

func (d *divergence) note(format string, args ...any) {
	if d.count == 0 {
		d.first = fmt.Sprintf(format, args...)
	}
	d.count++
}

// valuation checks Inspect against two things that share none of it:
// every atom of the table evaluated from scratch, and a plain loop over
// one twin per invariant — a catalog property compiled on its own
// (props.Property.Compile), any other invariant's formula over the word
// evaluated from scratch.
type valuation struct {
	m     *model.Model
	table *model.AtomTable
	all   uint64
	twins []func(*model.State) bool

	inspected, evaluated int // Inspect calls; atoms they found stale
	div                  divergence

	// The leaf lookups checked (lookedUp): the stub of the last
	// prediction, stepped from the parent on a scratch of the check's own.
	looked int
	stub   checker.Transition
	ref    *model.Scratch
}

// newValuation returns nil for a model without invariants.
func newValuation(m *model.Model) (*valuation, error) {
	if len(m.Opts.Invariants) == 0 {
		return nil, nil
	}
	o := &valuation{m: m, table: m.Opts.Invariants[0].Atoms}
	o.all = 1<<uint(len(o.table.Atoms)) - 1
	for _, inv := range m.Opts.Invariants {
		twin := func(s *model.State) bool { return inv.Over(o.table.Valuation(s)) }
		if p, ok := props.ByID(inv.ID); ok {
			var err error
			if twin, err = p.Compile(m.Cfg, props.DefaultThresholds()); err != nil {
				return nil, err
			}
		}
		o.twins = append(o.twins, twin)
	}
	return o, nil
}

// inspect runs the model's Inspect on s and checks what it settled and
// what it returned.
func (o *valuation) inspect(s *model.State) []checker.Violation {
	_, fresh := s.AtomWord()
	o.inspected++
	o.evaluated += bits.OnesCount64(o.all &^ fresh)

	got := o.m.Inspect(s)

	word, fresh := s.AtomWord()
	if want := o.table.Valuation(s); word != want || fresh != o.all {
		var names []string
		for diff := word ^ want; diff != 0; diff &= diff - 1 {
			names = append(names, o.table.Atoms[bits.TrailingZeros64(diff)].Name)
		}
		o.div.note("settled word %#x (fresh %#x), from scratch %#x: wrong atoms %v", word, fresh, want, names)
	}
	var want []checker.Violation
	for i, twin := range o.twins {
		if inv := &o.m.Opts.Invariants[i]; !twin(s) {
			want = append(want, checker.Violation{Property: inv.ID, Detail: inv.Description})
		}
	}
	if !slices.Equal(got, want) {
		o.div.note("Inspect reports %q, the per-invariant loop %q", got, want)
	}
	return got
}

// leafDiff compares a leaf lookup's atom word and violations with next,
// the successor it stands for, evaluated from scratch: the word with
// every atom, the violations with the per-invariant loop. It returns
// what differs, or "".
func (o *valuation) leafDiff(next *model.State, word uint64, got []checker.Violation) string {
	if want := o.table.Valuation(next); word != want {
		return fmt.Sprintf("looked-up word %#x, from scratch %#x", word, want)
	}
	var want []checker.Violation
	for i, twin := range o.twins {
		if inv := &o.m.Opts.Invariants[i]; !twin(next) {
			want = append(want, checker.Violation{Property: inv.ID, Detail: inv.Description})
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Sprintf("looked-up violations %q, the per-invariant loop %q", got, want)
	}
	return ""
}

// lookedUp checks a leaf the engine looked up from p, with word and
// violations got, against the successor of the last predicted stub.
func (o *valuation) lookedUp(p *model.State, word uint64, got []checker.Violation) {
	o.looked++
	if o.ref == nil {
		o.ref = o.m.NewScratch()
	}
	next := o.ref.Step(p, &o.stub).Next.(*model.State)
	if d := o.leafDiff(next, word, got); d != "" {
		o.div.note("leaf %q: %s", o.stub.Label, d)
	}
}

// walkResult is what one walk found.
type walkResult struct {
	successors, fullSyncs int
	splices               int // steps the scratch served from its memo (Scratch.Splices)
	splicedWrong          int // spliced steps whose state's encoding differs from Expand's
	checked               map[string]int
	div                   map[string]*divergence
	val                   *valuation
	repeats, folded       int // purity: states met again by raw encoding; by canonical encoding only
	orbitLargest          int
}

// maxCommutePairs caps the independent pairs the commute check steps per
// walk.
const maxCommutePairs = 2000

type walker struct {
	m, twin *model.Model
	sc      *model.Scratch
	csc     *model.Scratch // the commute check's, so that w.sc's chain is the walk's alone
	rng     *rand.Rand
	budget  int
	res     *walkResult
	byRaw   map[string]string
	byCanon map[string][2]string // canonical encoding → (raw encoding, verdict)
	a, b    []byte
}

func (w *walker) note(check, format string, args ...any) { w.res.div[check].note(format, args...) }

// walk checks up to 1500 successors of m, in lockstep with twin when it
// is not nil.
func walk(m, twin *model.Model, seed int64) (*walkResult, error) {
	res := &walkResult{checked: map[string]int{}, div: map[string]*divergence{}, orbitLargest: m.SymmetryStats().Largest}
	for _, check := range checks {
		res.div[check] = &divergence{}
	}
	val, err := newValuation(m)
	if err != nil {
		return nil, err
	}
	res.val = val
	w := &walker{m: m, twin: twin, sc: m.NewScratch(), csc: m.NewScratch(), rng: rand.New(rand.NewSource(seed)), budget: 1500, res: res,
		byRaw: map[string]string{}, byCanon: map[string][2]string{}}
	init := m.Initial()
	var tinit *model.State
	if twin != nil {
		tinit = twin.Initial()
		w.lockstep(init, tinit, "initial")
	}
	w.state(init, "initial") // settles the root's cache, as the engine's first digest does
	// A small graph is walked again, down other random paths, until the
	// budget is spent: states met twice are what the purity check compares.
	for left := -1; w.budget > 0 && w.budget != left; {
		left = w.budget
		w.visit(init, tinit, 0)
	}
	res.fullSyncs, res.splices = w.sc.FullSyncs(), w.sc.Splices()
	if val != nil {
		res.div["valuation"] = &val.div
		res.checked["valuation"] = val.inspected
	}
	return res, nil
}

func (w *walker) visit(s, ts *model.State, depth int) {
	want := w.m.Expand(s)
	stubs := w.m.Enabled(s, nil)
	if len(stubs) != len(want) {
		w.note("keyed", "depth %d: %d stubs for %d successors", depth, len(stubs), len(want))
		return
	}
	var twins []checker.Transition
	if w.twin != nil {
		if twins = w.twin.Expand(ts); len(twins) != len(want) {
			w.note("budget0", "depth %d: %d transitions, the zero-budget twin %d", depth, len(want), len(twins))
			return
		}
	}
	pick := 0
	if len(want) > 0 {
		pick = w.rng.Intn(len(want))
	}
	for i := range stubs {
		if w.budget == 0 {
			return
		}
		w.budget--
		w.res.successors++
		e := want[i]
		at := fmt.Sprintf("depth %d successor %d (%s)", depth, i, e.Label)
		next := w.step(s, &stubs[i], e, at)
		w.state(next, at)
		if w.m.Opts.Design == model.Concurrent {
			w.progress(next, at)
			w.commute(next, at)
		}
		if w.res.val != nil {
			w.res.val.inspect(e.Next.(*model.State)) // the eager path's inherited word
		}
		var tnext *model.State
		if twins != nil {
			if twins[i].Label != e.Label || twins[i].Fault {
				w.note("budget0", "%s: the zero-budget twin takes %q (fault=%v)", at, twins[i].Label, twins[i].Fault)
			}
			tnext = twins[i].Next.(*model.State)
			w.lockstep(next, tnext, at)
		}
		if i == pick || depth < 3 && w.rng.Intn(3) == 0 {
			w.visit(next, tnext, depth+1)
		}
	}
}

// step is the keyed check, stub + Step + Keep against Expand's
// successor, and the predict check, the memo's answer before the Step
// against the Step.
func (w *walker) step(s *model.State, stub *checker.Transition, e checker.Transition, at string) *model.State {
	p1, p2, pv, predicted := w.sc.Predict(s, stub)
	if predicted {
		if lv, ok := w.sc.InspectLeaf(s); ok {
			w.leaf(e, w.sc.LeafWord(), lv, at)
			// The lookup spent the prediction: predict again, so that the
			// Step below confirms it as the engine does when the lookup
			// cannot tell.
			p1, p2, pv, predicted = w.sc.Predict(s, stub)
		}
	}
	splices := w.sc.Splices()
	tr := w.sc.Step(s, stub)
	spliced := w.sc.Splices() > splices
	if predicted {
		h1, h2 := w.m.IncrementalDigest(tr.Next.(*model.State), false)
		if h1 != p1 || h2 != p2 || !slices.Equal(pv, tr.Violations) {
			w.note("predict", "%s: predicted digest (%#x,%#x) and %q, the step gives (%#x,%#x) and %q", at, p1, p2, pv, h1, h2, tr.Violations)
		}
		w.res.checked["predict"]++
	}
	if tr.Label != e.Label || tr.Key != e.Key || tr.Fault != e.Fault || stub.Fault != e.Fault ||
		!slices.Equal(tr.Steps, e.Steps) || !slices.Equal(tr.Violations, e.Violations) {
		w.note("keyed", "%s: transition differs:\nkeyed %+v\neager %+v", at, tr, e)
	}
	if w.a, w.b = tr.Next.Encode(w.a[:0]), e.Next.Encode(w.b[:0]); !bytes.Equal(w.a, w.b) {
		w.note("keyed", "%s: the stepped state's encoding differs from Expand's (spliced=%v)", at, spliced)
		if spliced {
			w.res.splicedWrong++
		}
	}
	if w.m.Opts.Incremental {
		for _, canonical := range []bool{false, true} {
			k1, k2 := w.m.IncrementalDigest(tr.Next.(*model.State), canonical)
			e1, e2 := w.m.IncrementalDigest(e.Next.(*model.State), canonical)
			if k1 != e1 || k2 != e2 {
				w.note("keyed", "%s: digest differs from Expand's (canonical=%v)", at, canonical)
			}
		}
	}
	kept := w.sc.Keep()
	if w.a = kept.Encode(w.a[:0]); !bytes.Equal(w.a, w.b) {
		w.note("keyed", "%s: the kept state's encoding differs from Expand's", at)
	}
	w.res.checked["keyed"]++
	return kept
}

// leaf is the leaf check: a successor the memo looked up is a leaf, and
// its looked-up word and violations are those of Expand's successor e
// evaluated from scratch.
func (w *walker) leaf(e checker.Transition, word uint64, got []checker.Violation, at string) {
	next := e.Next.(*model.State)
	if n := len(w.m.Enabled(next, nil)); n != 0 {
		w.note("leaf", "%s: looked up as a leaf, but Expand's successor has %d transitions", at, n)
	}
	if v := w.res.val; v != nil {
		if d := v.leafDiff(next, word, got); d != "" {
			w.note("leaf", "%s: %s", at, d)
		}
	} else if len(got) != 0 {
		w.note("leaf", "%s: looked-up violations %q on a model without invariants", at, got)
	}
	w.res.checked["leaf"]++
}

// progress is the progress check on the expansion of s, which the
// walker runs on every successor it meets (the root, before the drain
// phase, is never reduced): where Reduce prunes, its certificate
// (checker.ProgressCertifier) is that the pending entries whose class —
// app instance and handler — is one the selected subset dispatches form
// a measure every selected successor lowers, with EventsUsed frozen,
// and no other successor, dispatch or fault, raises.
func (w *walker) progress(s *model.State, at string) {
	stubs := w.m.Enabled(s, nil)
	sel := w.m.Reduce(s, stubs)
	if len(sel) == 0 || len(sel) >= len(stubs) {
		return
	}
	trs := w.m.Expand(s)
	type class struct {
		app     int
		handler string
	}
	selected := map[class]bool{}
	for _, i := range sel {
		app, handler := w.m.DispatchedHandler(s.Queue[i])
		selected[class{app, handler}] = true
	}
	measure := func(x *model.State) (n int) {
		for _, p := range x.Queue {
			if app, handler := w.m.DispatchedHandler(p); selected[class{app, handler}] {
				n++
			}
		}
		return n
	}
	before := measure(s)
	for i, tr := range trs {
		next := tr.Next.(*model.State)
		after := measure(next)
		if slices.Contains(sel, i) {
			if next.EventsUsed != s.EventsUsed || after >= before {
				w.note("progress", "%s, then %q (selected): measure %d → %d, events used %d → %d",
					at, tr.Label, before, after, s.EventsUsed, next.EventsUsed)
			}
		} else if after > before {
			w.note("progress", "%s, then %q (not selected): measure %d → %d", at, tr.Label, before, after)
		}
	}
	w.res.checked["progress"]++
}

// commute is the commute check on the pending queue of s: every pair of
// entries Model.Independent calls independent, until the walk has
// stepped maxCommutePairs of them.
func (w *walker) commute(s *model.State, at string) {
	for k := range s.Queue {
		for l := k + 1; l < len(s.Queue); l++ {
			if w.res.checked["commute"] == maxCommutePairs {
				return
			}
			if !w.m.Independent(s.Queue[k], s.Queue[l]) {
				continue
			}
			w.res.checked["commute"]++
			kl, vkl, err := w.dispatchTwo(s, k, l)
			if err == "" {
				var lk []byte
				var vlk []checker.Violation
				if lk, vlk, err = w.dispatchTwo(s, l, k); err == "" {
					if !bytes.Equal(kl, lk) {
						err = "the two orders end in states with different encodings"
					} else if !slices.Equal(vkl, vlk) {
						err = fmt.Sprintf("the two orders raise different violations: %q and %q", vkl, vlk)
					}
				}
			}
			if err != "" {
				stubs := w.m.Enabled(s, nil)
				w.note("commute", "%s: %q and %q: %s", at, stubs[k].Label, stubs[l].Label, err)
			}
		}
	}
}

// dispatchTwo dispatches the pending entry k of s, then the one that was
// entry l, on the commute scratch, and returns the end state's encoding
// and the violations raised by both steps and by Inspect of the end
// state, sorted; or why the second dispatch is not enabled.
func (w *walker) dispatchTwo(s *model.State, k, l int) ([]byte, []checker.Violation, string) {
	stubs := w.m.Enabled(s, nil)
	tr := w.csc.Step(s, &stubs[k])
	viols := slices.Clone(tr.Violations)
	mid := w.csc.Keep()
	// A dispatch leaves the rest of the queue in order and appends after
	// it, so entry l moves down one place when k was before it.
	at := l
	if k < l {
		at--
	}
	next := w.m.Enabled(mid, nil)
	if at >= len(mid.Queue) || next[at].Label != stubs[l].Label {
		return nil, nil, fmt.Sprintf("%q is not enabled after %q", stubs[l].Label, stubs[k].Label)
	}
	tr = w.csc.Step(mid, &next[at])
	viols = append(viols, tr.Violations...)
	end := w.csc.Keep()
	viols = append(viols, w.m.Inspect(end)...)
	slices.SortFunc(viols, func(a, b checker.Violation) int {
		return cmp.Or(cmp.Compare(a.Property, b.Property), cmp.Compare(a.Detail, b.Detail))
	})
	return end.Encode(nil), viols, ""
}

// state runs the digest, valuation and purity checks on s, in the
// engine's order: digest, then Inspect.
func (w *walker) state(s *model.State, at string) {
	if w.m.Opts.Incremental {
		for _, canonical := range []bool{false, true} {
			h1, h2 := w.m.IncrementalDigest(s, canonical)
			sc := s.Clone()
			sc.MarkAllDirty()
			if w1, w2 := w.m.IncrementalDigest(sc, canonical); h1 != w1 || h2 != w2 {
				w.note("digest", "%s: incremental digest (%#x,%#x), from scratch (%#x,%#x) [canonical=%v]", at, h1, h2, w1, w2, canonical)
			}
		}
		w.res.checked["digest"]++
	}
	var got []checker.Violation
	if w.res.val != nil {
		got = w.res.val.inspect(s)
	} else {
		got = w.m.Inspect(s)
	}
	verdict := fmt.Sprintf("%q", got)
	raw := string(s.Encode(w.a[:0]))
	if prev, ok := w.byRaw[raw]; !ok {
		w.byRaw[raw] = verdict
	} else if w.res.repeats++; prev != verdict {
		w.note("purity", "%s: equal encodings, different Inspect results:\n%s\n%s", at, prev, verdict)
	}
	canon := string(w.m.CanonicalEncode(s, w.a[:0]))
	if prev, ok := w.byCanon[canon]; !ok {
		w.byCanon[canon] = [2]string{raw, verdict}
	} else {
		if prev[0] != raw {
			w.res.folded++
		}
		if prev[1] != verdict {
			w.note("purity", "%s: equal canonical encodings, different Inspect results:\n%s\n%s", at, prev[1], verdict)
		}
	}
	w.res.checked["purity"]++
}

// lockstep is the budget0 check on one pair of corresponding states.
func (w *walker) lockstep(s, ts *model.State, at string) {
	if w.a, w.b = s.Encode(w.a[:0]), ts.Encode(w.b[:0]); !bytes.Equal(w.a, w.b) {
		w.note("budget0", "%s: raw encodings differ (%d bytes, zero-budget twin %d)", at, len(w.a), len(w.b))
	}
	if w.a, w.b = w.m.CanonicalEncode(s, w.a[:0]), w.twin.CanonicalEncode(ts, w.b[:0]); !bytes.Equal(w.a, w.b) {
		w.note("budget0", "%s: canonical encodings differ", at)
	}
	for _, canonical := range []bool{false, true} {
		h1, h2 := w.m.IncrementalDigest(s, canonical)
		t1, t2 := w.twin.IncrementalDigest(ts, canonical)
		if h1 != t1 || h2 != t2 {
			w.note("budget0", "%s: digests differ [canonical=%v]", at, canonical)
		}
	}
	w.res.checked["budget0"]++
}

// assert fails t on the check's divergences, or when it checked too
// little to mean anything.
func (r *walkResult) assert(t *testing.T, check string) {
	t.Helper()
	if d := r.div[check]; d.count > 0 {
		t.Fatalf("%s: %d divergences over %d successors; first: %s", check, d.count, r.successors, d.first)
	}
	if r.checked[check] == 0 {
		t.Fatalf("%s: nothing checked", check)
	}
	switch check {
	case "keyed":
		if r.successors < 30 {
			t.Errorf("the walk compared only %d successors", r.successors)
		}
		// Every parent is on the scratch's chain (the walk descends only
		// into states it kept), so after the first copy from the root
		// every re-sync is by touched blocks.
		if r.fullSyncs > 1 {
			t.Errorf("%d whole-state copies into the scratch over %d steps, want at most 1", r.fullSyncs, r.successors)
		}
	case "predict":
		// The keyed check covers what a splice writes only if the walk
		// spliced something.
		if r.splices == 0 {
			t.Errorf("%d predictions, no splice: the spliced path went unchecked", r.checked[check])
		}
	case "valuation":
		// Not vacuous: where a block cache says what a transition wrote,
		// most atoms are inherited, not re-evaluated.
		if v := r.val; v.m.Opts.Incremental && v.evaluated*2 > v.inspected*len(v.table.Atoms) {
			t.Errorf("%d atoms of %d re-evaluated over %d states: the valuation is not being inherited", v.evaluated, len(v.table.Atoms), v.inspected)
		}
	case "purity":
		if r.repeats == 0 {
			t.Error("no encoding repeated along the walk: the check is vacuous")
		}
		if r.orbitLargest >= 3 && r.folded == 0 {
			t.Error("no two raw-distinct states shared a canonical encoding: the orbit half of the check is vacuous")
		}
	}
}

// walkRow is one model the walker explores: a workload in one encode
// variant.
type walkRow struct {
	name string
	c    cell
}

// checks are the walker's checks, in the order TestWalk asserts them.
var checks = []string{"keyed", "predict", "leaf", "digest", "valuation", "purity", "budget0", "progress", "commute"}

// applies reports whether the row's model has what the check compares.
func (r walkRow) applies(check string) bool {
	switch check {
	case "digest":
		return r.c.encode == incremental
	case "budget0":
		return r.twin()
	case "progress", "commute":
		return r.c.w.opts.Design == model.Concurrent
	case "predict", "leaf":
		return r.c.memoServes()
	}
	return true
}

// twin reports whether the row walks in lockstep with a zero-budget
// fault twin: every cached row without a fault layer of its own.
func (r walkRow) twin() bool { return r.c.encode == incremental && !r.c.w.opts.Faults }

func (r walkRow) result() (*walkResult, error) {
	return memo(r, func() (*walkResult, error) {
		m, err := r.c.model()
		if err != nil {
			return nil, err
		}
		var twin *model.Model
		if r.twin() {
			if twin, err = r.c.w.modelWith("budget0", func(o *model.Options) {
				o.Incremental, o.Faults, o.MaxFaults = true, true, 0
			}); err != nil {
				return nil, err
			}
		}
		h := fnv.New64a()
		h.Write([]byte(r.name))
		return walk(m, twin, int64(h.Sum64()>>1))
	})
}

// fleet is the interchangeable-device deployment with a live fault
// budget and its presence orbit resized: extra > 0 adds that many
// presence sensors to the fleet and to every "people" binding; extra < 0
// removes |extra| of the three stock members from both orbits.
func fleet(name string, extra int) *workload {
	return &workload{name: name,
		opts: model.Options{MaxEvents: 1, Design: model.Concurrent, Faults: true, MaxFaults: 1},
		system: func() (*config.System, map[string]*ir.App, error) {
			sys, apps, err := experiments.SymmetrySystem(name)
			if err != nil {
				return nil, nil, err
			}
			drop := map[string]bool{}
			for _, id := range []string{"presC", "contactC", "presB", "contactB"}[:max(0, -2*extra)] {
				drop[id] = true
			}
			sys.Devices = slices.DeleteFunc(sys.Devices, func(d config.Device) bool { return drop[d.ID] })
			for i := 0; i < extra; i++ {
				sys.Devices = append(sys.Devices, config.Device{
					ID: fmt.Sprintf("presX%d", i), Label: fmt.Sprintf("Presence X%d", i), Model: "Presence Sensor"})
			}
			for _, inst := range sys.Apps {
				for in, b := range inst.Bindings {
					b.DeviceIDs = slices.DeleteFunc(slices.Clone(b.DeviceIDs), func(id string) bool { return drop[id] })
					for i := 0; in == "people" && i < extra; i++ {
						b.DeviceIDs = append(b.DeviceIDs, fmt.Sprintf("presX%d", i))
					}
					inst.Bindings[in] = b
				}
			}
			return sys, apps, nil
		}}
}

var (
	pairFleet  = fleet("fault-pair-orbit", -1) // two orbits of two
	largeFleet = fleet("fault-large-orbit", 2) // a presence orbit of five
)

// sequentialGroups are two whole market groups under the sequential
// design: atomic cascades and timers.
var sequentialGroups = func() (ws []*workload) {
	for _, g := range []int{2, 4} {
		ws = append(ws, &workload{name: fmt.Sprintf("sequential%d", g), opts: model.Options{MaxEvents: 2},
			system: func() (*config.System, map[string]*ir.App, error) { return corpusSystem(g, 0) }})
	}
	return ws
}()

// memoRead is a sequential system built so that a transition memo needs
// every kind of read in its key: a presence change turns the hall light
// on while the door is open and off while it is closed (a device no
// part of the event), a door event does so by the location mode, and a
// presence change stamps the clock into app state.
var memoRead = &workload{name: "memo-read", opts: model.Options{MaxEvents: 3, UserModeEvents: true},
	system: sourceSystem("memo-read", []config.Device{
		{ID: "presA", Label: "Presence A", Model: "Presence Sensor", Initial: map[string]string{"presence": "present"}},
		{ID: "door", Label: "Front Door", Model: "Contact Sensor", Initial: map[string]string{"contact": "closed"}},
		{ID: "hallLight", Label: "Hall Light", Model: "Smart Bulb", Initial: map[string]string{"switch": "off"}},
	}, `
definition(name: "Door Greeter", namespace: "iotsan.test", author: "iotsan",
    description: "Light the hall on presence while the door is open.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
    section("Door") { input "door", "capability.contactSensor" }
    section("Light") { input "light", "capability.switch" }
}
def installed() { subscribe(people, "presence", greetHandler) }
def greetHandler(evt) {
    if (door.currentContact == "open") {
        light.on()
    } else {
        light.off()
    }
}
`, `
definition(name: "Away Door Light", namespace: "iotsan.test", author: "iotsan",
    description: "Light the hall on a door event while away.", category: "Convenience")
preferences {
    section("Door") { input "door", "capability.contactSensor" }
    section("Light") { input "light", "capability.switch" }
}
def installed() { subscribe(door, "contact", doorHandler) }
def doorHandler(evt) {
    if (location.mode == "Away") {
        light.on()
    } else {
        light.off()
    }
}
`, arrivalClock)}

// arrivalClock stamps the clock into app state on every presence change.
const arrivalClock = `
definition(name: "Arrival Clock", namespace: "iotsan.test", author: "iotsan",
    description: "Remember when presence last changed.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", clockHandler) }
def clockHandler(evt) {
    state.at = now()
}
`

// modeOrder is a concurrent system in which one presence change queues
// three handlers: one sets the location mode, one records the mode in
// app state, and the clock. The recorder and the mode setter commute
// only if the recorder's mode read is missed, so the dependence
// relation must call them dependent; the clock commutes with both.
var modeOrder = &workload{name: "mode-order", opts: model.Options{MaxEvents: 2, Design: model.Concurrent},
	system: sourceSystem("mode-order", []config.Device{
		{ID: "presA", Label: "Presence A", Model: "Presence Sensor", Initial: map[string]string{"presence": "present"}},
	}, `
definition(name: "Leave Sets Away", namespace: "iotsan.test", author: "iotsan",
    description: "Set the mode to Away on any presence change.", category: "Mode Magic")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", leaveHandler) }
def leaveHandler(evt) {
    setLocationMode("Away")
}
`, `
definition(name: "Mode Recorder", namespace: "iotsan.test", author: "iotsan",
    description: "Remember the mode at the last presence change.", category: "Convenience")
preferences {
    section("People") { input "people", "capability.presenceSensor", multiple: true }
}
def installed() { subscribe(people, "presence", recordHandler) }
def recordHandler(evt) {
    state.seen = location.mode
}
`, arrivalClock)}

// sourceSystem builds a system in the modes Home and Away, starting at
// Home, from devices and one instance of each app in srcs, whose inputs
// bind by name: people to presA, door to door, light to hallLight.
func sourceSystem(name string, devices []config.Device, srcs ...string) func() (*config.System, map[string]*ir.App, error) {
	return func() (*config.System, map[string]*ir.App, error) {
		sys := &config.System{Name: name, Modes: []string{"Home", "Away"}, Mode: "Home", Devices: slices.Clone(devices)}
		apps := map[string]*ir.App{}
		for _, src := range srcs {
			app, err := smartapp.Translate(src)
			if err != nil {
				return nil, nil, err
			}
			apps[app.Name] = app
			b := map[string]config.Binding{}
			for _, in := range app.Inputs {
				b[in.Name] = config.Binding{DeviceIDs: []string{map[string]string{"people": "presA", "door": "door", "light": "hallLight"}[in.Name]}}
			}
			sys.Apps = append(sys.Apps, config.AppInstance{App: app.Name, Bindings: b})
		}
		return sys, apps, sys.Validate()
	}
}

// walkRows are every matrix workload with and without the block cache,
// and — outside the race detector — the sequential groups without it,
// the resized fault fleets, memo-read and mode-order with it.
func walkRows() []walkRow {
	var rows []walkRow
	for _, w := range matrixWorkloads() {
		rows = append(rows, walkRow{w.name, cell{w: w}}, walkRow{w.name + "-nocache", cell{w: w, encode: flat}})
	}
	if raceEnabled {
		return rows
	}
	for _, w := range sequentialGroups {
		rows = append(rows, walkRow{w.name, cell{w: w, encode: flat}})
	}
	return append(rows, walkRow{pairFleet.name, cell{w: pairFleet}}, walkRow{largeFleet.name, cell{w: largeFleet}},
		walkRow{memoRead.name, cell{w: memoRead}}, walkRow{modeOrder.name, cell{w: modeOrder}})
}

func walkRowNamed(name string) walkRow {
	for _, r := range walkRows() {
		if r.name == name {
			return r
		}
	}
	panic("no walk row " + name)
}

// walkView asserts one check on every row it applies to, or only on the
// named rows.
func walkView(t *testing.T, check string, only ...string) {
	t.Parallel()
	for _, r := range walkRows() {
		if !r.applies(check) || len(only) > 0 && !slices.Contains(only, r.name) {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			res, err := r.result()
			if err != nil {
				t.Fatal(err)
			}
			res.assert(t, check)
		})
	}
}

func TestWalk(t *testing.T) {
	t.Parallel()
	for _, r := range walkRows() {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			res, err := r.result()
			if err != nil {
				t.Fatal(err)
			}
			for _, check := range checks {
				if r.applies(check) {
					res.assert(t, check)
				}
			}
			t.Logf("%d successors, checked %v", res.successors, res.checked)
		})
	}
}

// The step-level gates the walker replaced keep their names as views
// onto it: each asserts one check on every row it applies to.

func TestKeyedSuccessorsWalk(t *testing.T)              { walkView(t, "keyed") }
func TestTransitionMemoPredictWalk(t *testing.T)        { walkView(t, "predict") }
func TestLeafLookupWalk(t *testing.T)                   { walkView(t, "leaf") }
func TestIncrementalDigestWalkEquivalence(t *testing.T) { walkView(t, "digest") }
func TestInspectValuationDifferential(t *testing.T)     { walkView(t, "valuation") }
func TestInspectPureOverEncoding(t *testing.T)          { walkView(t, "purity") }
func TestFaultBudgetZeroEquivalence(t *testing.T)       { walkView(t, "budget0") }
func TestPORProgressCertificate(t *testing.T)           { walkView(t, "progress") }
func TestIndependentDispatchesCommute(t *testing.T)     { walkView(t, "commute") }

// TestFaultDigestWalkEquivalence: the digest check over fault content —
// offline devices' stale Reported vectors, report epochs, non-empty
// in-flight buffers — so every fault mutation site must mark what it
// touches.
func TestFaultDigestWalkEquivalence(t *testing.T) {
	walkView(t, "digest", "fault", "fault1", pairFleet.name, largeFleet.name)
}

// TestFaultCanonicalFoldLargeOrbit: with five interchangeable presence
// sensors the canonical digest folds a large orbit over fault content.
func TestFaultCanonicalFoldLargeOrbit(t *testing.T) {
	if raceEnabled {
		t.Skip("the fleets walk outside the race detector")
	}
	if st := cellModel(t, cell{w: largeFleet}).SymmetryStats(); st.Largest < 5 {
		t.Fatalf("largest orbit %d: the extended presence fleet should form one of 5", st.Largest)
	}
	walkView(t, "digest", largeFleet.name)
}
