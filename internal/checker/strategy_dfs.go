package checker

import "bytes"

// sequentialDFS is the default strategy: a single-goroutine iterative
// depth-first search that threads the counter-example trail through the
// DFS stack. Exploration order, trails, and table outputs are fully
// deterministic given the system's Expand order — which is also what
// makes the search checkpointable: the WAL spills the stack as one
// next-index per frame, and resume rebuilds the identical stack by
// re-expanding along those indices (see wal.go for the durability
// contract).
type sequentialDFS struct{}

// dfsFrame is one stack frame of the iterative DFS: a stored state, the
// stubs of its transitions, and how many of them have been taken. The
// successor of stub i is generated (Step) only when the search is about
// to visit it — and not at all when it was predicted and the Predictor
// looks it up as a leaf — and becomes a frame (Keep) only when the store
// reports it new and it has transitions of its own. The invariant the
// checkpoint format leans on: for every non-top frame i, the child
// frame i+1 holds the successor of stubs[next-1].
type dfsFrame struct {
	state State
	stubs []Transition
	next  int
}

// dfsStubs is the search's free-list of frame stub buffers: a popped
// frame's buffer serves the next push.
type dfsStubs [][]Transition

func (f *dfsStubs) get() []Transition {
	if n := len(*f); n > 0 {
		b := (*f)[n-1]
		*f = (*f)[:n-1]
		return b
	}
	return nil
}

func (s sequentialDFS) search(e *engine) {
	// trail is the path to the top frame: one step per frame but the
	// root. A successor's step is appended only when it becomes a frame;
	// until then it is pending (the top frame's state and tr), and a
	// recorded violation's trail is built from the two.
	var trail []TrailStep
	x := e.newExpander()
	var free dfsStubs

	var stack []dfsFrame
	if e.wal != nil && e.wal.resumeCk != nil {
		stack, trail = resumeDFS(e, x)
	}
	if stack == nil {
		init, _ := e.visitInitial(x)
		if e.limitHit(x) {
			e.truncated.Store(true)
			return
		}
		stack = []dfsFrame{{state: init, stubs: e.enabled(init, nil, true)}}
	}

	// tr is the search's one successor: predict and confirm write into
	// it, Step's result lands in it. matched counts duplicates off the
	// shared atomic, folded into it at exit and before each checkpoint;
	// deepest mirrors MaxDepthReached.
	var tr Transition
	var matched int64
	deepest := int(e.maxDepth.Load())
	for len(stack) > 0 {
		if e.wal != nil {
			// Loop top is the one point where the stack invariant holds
			// for every frame, so it is the only checkpoint site.
			x.buf = e.wal.maybeCheckpoint(e, stack, &matched, x.buf)
		}
		if e.limitHit(x) {
			e.truncated.Store(true)
			break
		}
		top := &stack[len(stack)-1]
		if top.next >= len(top.stubs) || len(stack) > e.opts.MaxDepth {
			if len(stack) > e.opts.MaxDepth {
				e.truncated.Store(true)
			}
			if e.rec != nil {
				// The popped frame's state is dead: fully expanded, out of
				// the trail window, and recorded trails materialized their
				// replays before this point.
				e.rec.Recycle(top.state)
				top.state = nil
			}
			// Every stub was explored (child frames pop first), matched,
			// or clipped above; trail steps copy Label/Steps out, so the
			// buffer is reusable.
			free = append(free, top.stubs)
			top.stubs = nil
			stack = stack[:len(stack)-1]
			if len(trail) > 0 {
				trail = trail[:len(trail)-1]
			}
			continue
		}
		// A predicted successor is stepped only once the store reports
		// it new (engine.confirm).
		stub := &top.stubs[top.next]
		top.next++
		d, predicted := e.predict(x, top.state, stub, &tr)
		if !predicted {
			tr = e.stp.Step(x.scratch, top.state, stub)
		}

		depth := len(stack)
		if depth > deepest {
			deepest = depth
			e.noteDepth(depth)
		}
		// Admission order (shared with expandState): edge violations for
		// every successor, then digest → store, and only a state the store
		// reports new is inspected, counted and, unless it is a leaf, kept
		// and expanded. A duplicate's state violations were recorded when
		// its first copy was admitted (System.Inspect is a function of the
		// encoding), so skipping them changes no verdict.
		e.recordAll(x, tr.Violations, trail, top.state, &tr, depth)

		if !predicted {
			d, x.buf = e.digest(tr.Next, x.buf)
		}
		if e.st.seen(d) {
			matched++
			continue
		}
		// A new predicted successor the Predictor can tell is a leaf is
		// never stepped: its state violations come from the lookup. Any
		// other is confirmed, then inspected and its transitions listed
		// while it is still borrowed; only one with transitions is kept,
		// and the listed stubs become its frame's.
		var vs []Violation
		looked := false
		if predicted {
			if vs, looked = e.pred.InspectLeaf(x.scratch, top.state); !looked && !e.confirm(x, top.state, stub, &tr, d) {
				break
			}
		}
		e.logVisit(d)
		if !looked {
			vs = e.sys.Inspect(tr.Next)
		}
		e.recordAll(x, vs, trail, top.state, &tr, depth)
		e.explored.Add(1)
		var stubs []Transition
		if !looked {
			stubs = e.enabled(tr.Next, free.get(), true)
		}
		if len(stubs) == 0 {
			// A leaf is stored, recorded and counted, and never becomes a
			// frame. One at the depth bound still truncates the search:
			// its frame would have sat past the bound.
			if depth >= e.opts.MaxDepth {
				e.truncated.Store(true)
			}
			if stubs != nil {
				free = append(free, stubs)
			}
			continue
		}
		trail = append(trail, stepOf(top.state, &tr))
		stack = append(stack, dfsFrame{state: e.stp.Keep(x.scratch, tr.Next), stubs: stubs})
	}
	e.matched.Add(matched)
}

// resumeDFS rebuilds a checkpointed search. The rebuild is pure —
// deterministic re-expansion from the initial state touches neither
// the visited store nor the counters — so a failed integrity check can
// abandon cleanly: the WAL is reset and the caller falls through to a
// fresh search. Only after every frame verifies does the commit phase
// replay the logged visits into the store and restore counters and
// violations.
func resumeDFS(e *engine, x *expander) ([]dfsFrame, []TrailStep) {
	w := e.wal
	ck := w.resumeCk
	abandon := func() ([]dfsFrame, []TrailStep) {
		w.reset(walFingerprint(e.opts))
		return nil, nil
	}
	if len(ck.Frames) == 0 {
		return abandon()
	}

	// Phase 1: rebuild and verify. Each frame's recorded delta must
	// reproduce the re-stepped child's encoding byte for byte — checking
	// both that the model still generates the same graph and that the
	// block codec round-trips.
	init := e.sys.Initial()
	var enc, scratch []byte
	enc = init.Encode(enc)
	if !ck.Frames[0].Full || !bytes.Equal(enc, ck.Frames[0].Delta) {
		return abandon()
	}
	stack := make([]dfsFrame, 0, len(ck.Frames))
	stack = append(stack, dfsFrame{state: init, stubs: e.enabled(init, nil, false), next: ck.Frames[0].Next})
	var trail []TrailStep
	for i := 1; i < len(ck.Frames); i++ {
		parent := &stack[i-1]
		idx := parent.next - 1
		if idx < 0 || idx >= len(parent.stubs) {
			return abandon()
		}
		tr := e.stp.Step(x.scratch, parent.state, &parent.stubs[idx])
		child := e.stp.Keep(x.scratch, tr.Next)
		fr := ck.Frames[i]
		enc = child.Encode(enc[:0])
		if fr.Full {
			if !bytes.Equal(enc, fr.Delta) {
				return abandon()
			}
		} else {
			if e.delta == nil {
				return abandon()
			}
			recon, err := e.delta.DeltaApply(parent.state, fr.Delta, scratch[:0])
			if err != nil || !bytes.Equal(recon, enc) {
				return abandon()
			}
			scratch = recon
		}
		trail = append(trail, stepOf(parent.state, &tr))
		stack = append(stack, dfsFrame{state: child, stubs: e.enabled(child, nil, false), next: fr.Next})
	}

	// Phase 2: commit. Replaying the visit log rebuilds the visited
	// store exactly as it stood at the checkpoint (for the tiered store
	// the replay re-runs admission, so spill pressure re-forms
	// naturally); counters and the violation set are restored verbatim.
	for _, d := range w.resumeVisits {
		e.st.seen(d)
	}
	e.explored.Store(ck.Explored)
	e.matched.Store(ck.Matched)
	e.maxDepth.Store(ck.MaxDepth)
	e.porChoices.Store(ck.PORChoices)
	e.porPruned.Store(ck.PORPruned)
	e.faultTrs.Store(ck.FaultTrs)
	for _, v := range ck.Violations {
		f := Found{
			Violation: Violation{Property: v.Property, Detail: v.Detail},
			Depth:     v.Depth,
		}
		for _, st := range v.Trail {
			steps := st.Steps
			if steps == nil {
				steps = []string{}
			}
			f.Trail = append(f.Trail, TrailStep{Label: st.Label, Steps: steps})
		}
		e.found = append(e.found, f)
		e.distinct[f.Violation] = struct{}{}
	}

	w.lastCkptExplored = ck.Explored
	w.resumed = true
	w.resumeCk, w.resumeVisits = nil, nil
	return stack, trail
}
