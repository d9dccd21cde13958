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
// to visit it, and becomes a frame (Keep) only when the store reports
// it new. The invariant the checkpoint format leans on: for every
// non-top frame i, the child frame i+1 holds the successor of
// stubs[next-1].
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
	var trail []TrailStep
	x := e.newExpander()
	var free dfsStubs

	var stack []dfsFrame
	if e.wal != nil && e.wal.resumeCk != nil {
		stack, trail = resumeDFS(e, x)
	}
	if stack == nil {
		init, _ := e.visitInitial(x)
		if e.limitHit() {
			e.truncated.Store(true)
			return
		}
		var stubs []Transition
		stubs, x.buf = e.enabled(init, nil, x.buf, true)
		stack = []dfsFrame{{state: init, stubs: stubs}}
	}

	for len(stack) > 0 {
		if e.wal != nil {
			// Loop top is the one point where the stack invariant holds
			// for every frame, so it is the only checkpoint site.
			x.buf = e.wal.maybeCheckpoint(e, stack, x.buf)
		}
		if e.limitHit() {
			e.truncated.Store(true)
			break
		}
		top := &stack[len(stack)-1]
		if top.next >= len(top.stubs) || len(stack) > e.opts.MaxDepth {
			if len(stack) > e.opts.MaxDepth {
				e.truncated.Store(true)
				if e.dupRec != nil {
					// Eager successors clipped by the depth bound were
					// cloned but never digested or recorded anywhere —
					// hand them back. Keyed ones were never generated.
					for i := top.next; i < len(top.stubs); i++ {
						e.dupRec.Recycle(top.stubs[i].Next)
						top.stubs[i].Next = nil
					}
				}
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
		tr := e.stp.Step(x.scratch, top.state, &top.stubs[top.next])
		top.next++

		depth := len(stack)
		trail = append(trail, TrailStep{Label: tr.Label, Steps: tr.Steps, From: top.state, Key: tr.Key})
		e.noteDepth(depth)
		// Admission order (shared with expandShared): edge violations for
		// every successor, then digest → store, and only a state the store
		// reports new is kept, inspected, counted, and expanded. A
		// duplicate's state violations were reserved when its first copy
		// was admitted (System.Inspect is a function of the encoding), so
		// skipping them changes no verdict.
		if e.recordAll(tr.Violations, trail, depth) {
			e.truncated.Store(true)
			break
		}

		var d digest
		d, x.buf = e.digest(tr.Next, x.buf)
		if e.st.seen(d) {
			e.matched.Add(1)
			trail = trail[:len(trail)-1]
			if e.dupRec != nil {
				// An eager duplicate child never enters the stack, the
				// trail, or a recorded violation — its storage is
				// immediately reusable.
				e.dupRec.Recycle(tr.Next)
				top.stubs[top.next-1].Next = nil
			}
			continue
		}
		e.logVisit(d)
		next := e.stp.Keep(x.scratch, tr.Next)
		if e.recordAll(e.sys.Inspect(next), trail, depth) {
			e.truncated.Store(true)
			break
		}
		e.explored.Add(1)
		var stubs []Transition
		stubs, x.buf = e.enabled(next, free.get(), x.buf, true)
		stack = append(stack, dfsFrame{state: next, stubs: stubs})
	}
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
	var stubs []Transition
	stubs, x.buf = e.enabled(init, nil, x.buf, false)
	stack := make([]dfsFrame, 0, len(ck.Frames))
	stack = append(stack, dfsFrame{state: init, stubs: stubs, next: ck.Frames[0].Next})
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
		trail = append(trail, TrailStep{Label: tr.Label, Steps: tr.Steps, From: parent.state, Key: tr.Key})
		stubs, x.buf = e.enabled(child, nil, x.buf, false)
		stack = append(stack, dfsFrame{state: child, stubs: stubs, next: fr.Next})
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
	e.porFallback.Store(ck.PORFallback)
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
	e.reserved = len(e.found)
	e.violCount.Store(int64(len(e.found)))

	w.lastCkptExplored = ck.Explored
	w.resumed = true
	w.resumeCk, w.resumeVisits = nil, nil
	return stack, trail
}
