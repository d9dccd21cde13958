package checker

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// replayState is a counter state of replaySys. replayed marks a state
// Replay returned; dead marks one handed to Recycle.
type replayState struct {
	v, depth       int
	replayed, dead bool
}

func (s *replayState) Encode(buf []byte) []byte {
	return append(buf, byte(s.v), byte(s.v>>8), byte(s.depth))
}

// replaySys is chainSys with lazy trails: Expand's transitions carry a
// replay key and no steps, and Replay re-runs one into a state from the
// system's free list, recording "from v" and "to v" as its steps. The
// free list poisons what it is given, as poisonGrid does: a state
// handed to Recycle is marked dead and reused by the next state the
// system makes, so a state recycled while the search or a trail still
// needs it shows as a dead use, a double recycle or a broken trail.
type replaySys struct {
	bound int

	mu    sync.Mutex
	free  []*replayState
	fresh int // states allocated because free was empty

	replays  atomic.Int64 // successors Replay returned
	recycled atomic.Int64 // of those, handed to Recycle
	poisoned atomic.Int64 // uses of a dead state, double recycles
}

func (r *replaySys) get(v, depth int, replayed bool) *replayState {
	r.mu.Lock()
	var s *replayState
	if n := len(r.free); n > 0 {
		s, r.free = r.free[n-1], r.free[:n-1]
	} else {
		s = new(replayState)
		r.fresh++
	}
	r.mu.Unlock()
	*s = replayState{v: v, depth: depth, replayed: replayed}
	return s
}

func (r *replaySys) alive(st State) *replayState {
	s := st.(*replayState)
	if s.dead {
		r.poisoned.Add(1)
	}
	return s
}

func (r *replaySys) Initial() State { return r.get(1, 0, false) }

// replayNext is the value key 1 (inc) or 2 (dbl) takes v to.
func replayNext(v int, key uint64) int {
	if key == 2 {
		return v * 2
	}
	return v + 1
}

func (r *replaySys) Expand(st State) []Transition {
	s := r.alive(st)
	if s.depth >= r.bound {
		return nil
	}
	out := make([]Transition, 0, 2)
	for _, key := range []uint64{1, 2} {
		n := replayNext(s.v, key)
		out = append(out, Transition{
			Label: fmt.Sprintf("op%d->%d", key, n), // lazy steal trails drop it, and Replay restores it
			Key:   key,
			Next:  r.get(n, s.depth+1, false),
		})
	}
	return out
}

func (r *replaySys) Inspect(st State) []Violation {
	if s := r.alive(st); s.v%5 == 0 {
		return []Violation{{Property: "five", Detail: fmt.Sprintf("reached %d at %d", s.v, s.depth)}}
	}
	return nil
}

func (r *replaySys) Replay(from State, key uint64) (string, []string, State) {
	s := r.alive(from)
	n := r.get(replayNext(s.v, key), s.depth+1, true)
	r.replays.Add(1)
	label := fmt.Sprintf("op%d->%d", key, n.v)
	return label, []string{"from " + strconv.Itoa(s.v), "to " + strconv.Itoa(n.v)}, n
}

func (r *replaySys) Recycle(st State) {
	s := r.alive(st)
	if s.dead {
		return
	}
	if s.replayed {
		r.recycled.Add(1)
	}
	s.dead = true
	r.mu.Lock()
	r.free = append(r.free, s)
	r.mu.Unlock()
}

// TestMaterializeRecyclesReplayed: trail materialization hands every
// successor Replay returned back to the StateRecycler exactly once — on
// the next step's replay from it, when a later step's From supersedes
// it, and at the trail's end — and never a From state, which is the
// search's. A trail of any length then draws about one state from the
// free list, not one per step, and reads the same as a run of the
// system without the recycling hook.
func TestMaterializeRecyclesReplayed(t *testing.T) {
	t.Run("trail-shapes", func(t *testing.T) {
		sys := &replaySys{bound: 64}
		e, err := newEngine(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// froms returns n live search states, v = 1 … n.
		froms := func(n int) []*replayState {
			out := make([]*replayState, n)
			for i := range out {
				out[i] = &replayState{v: i + 1, depth: i}
			}
			return out
		}
		dfs := func(fs []*replayState) []TrailStep {
			ts := make([]TrailStep, len(fs))
			for i, f := range fs {
				ts[i] = TrailStep{Label: "inc", From: f, Key: 1}
			}
			return ts
		}
		chain := func(fs []*replayState) []TrailStep {
			ts := make([]TrailStep, 6)
			for i := range ts {
				ts[i] = TrailStep{Label: "inc", Key: 1}
			}
			ts[0].From = fs[0]
			ts[2] = TrailStep{Label: "keyless"}                  // breaks the chain
			ts[3] = TrailStep{Label: "inc", Key: 1, From: fs[3]} // resumes it
			ts[5].From = fs[5]                                   // supersedes step 4's successor
			return ts
		}
		for _, c := range []struct {
			name  string
			trail func([]*replayState) []TrailStep
			want  []string // each step's steps
		}{
			{"every-step-from", dfs, []string{"from 1|to 2", "from 2|to 3", "from 3|to 4", "from 4|to 5", "from 5|to 6", "from 6|to 7"}},
			{"first-from", func(fs []*replayState) []TrailStep {
				ts := dfs(fs)
				for i := 1; i < len(ts); i++ {
					ts[i].From = nil
				}
				return ts
			}, []string{"from 1|to 2", "from 2|to 3", "from 3|to 4", "from 4|to 5", "from 5|to 6", "from 6|to 7"}},
			{"broken-chain", chain, []string{"from 1|to 2", "from 2|to 3", "", "from 4|to 5", "from 5|to 6", "from 6|to 7"}},
		} {
			fs := froms(6)
			ts := c.trail(fs)
			before, recycled := sys.replays.Load(), sys.recycled.Load()
			e.materialize(ts)
			replays := sys.replays.Load() - before
			for i := range ts {
				if got := strings.Join(ts[i].Steps, "|"); got != c.want[i] {
					t.Errorf("%s: step %d steps %q, want %q", c.name, i, got, c.want[i])
				}
				if ts[i].From != nil || ts[i].Key != 0 {
					t.Errorf("%s: step %d keeps its From or Key", c.name, i)
				}
			}
			for i, f := range fs {
				if f.dead {
					t.Errorf("%s: From state %d was recycled", c.name, i)
				}
			}
			if got := sys.recycled.Load() - recycled; replays == 0 || got != replays {
				t.Errorf("%s: %d replayed states recycled, want all %d", c.name, got, replays)
			}
		}
		if n := sys.poisoned.Load(); n != 0 {
			t.Errorf("%d uses of a dead state", n)
		}

		// The allocation gate: a DFS trail draws one state from the free
		// list and gives it back, however long the trail. Replay going
		// back to a fresh clone per step would allocate 32 states a pass.
		fs := froms(32)
		e.materialize(dfs(fs))
		fresh := sys.fresh
		for range 10 {
			e.materialize(dfs(fs))
		}
		if got := sys.fresh - fresh; got != 0 {
			t.Errorf("10 materializations of a %d-step trail allocated %d fresh states, want 0", len(fs), got)
		}
	})

	for _, c := range []struct {
		name string
		opts Options
	}{
		{"dfs", Options{Strategy: StrategyDFS}},
		{"steal-1", Options{Strategy: StrategySteal, Workers: 1}},
		{"steal-4", Options{Strategy: StrategySteal, Workers: 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.opts.MaxDepth = 20
			hookless := &replaySys{bound: 9}
			want := Run(struct {
				System
				Replayer
			}{hookless, hookless}, c.opts)
			sys := &replaySys{bound: 9}
			got := Run(sys, c.opts)
			if len(want.Violations) < 10 {
				t.Fatalf("hook-less run found %d violations, want a vacuity-free ≥ 10", len(want.Violations))
			}
			if n := sys.poisoned.Load(); n != 0 {
				t.Errorf("%d uses of a dead state or double recycles", n)
			}
			if r, n := sys.replays.Load(), sys.recycled.Load(); r == 0 || n != r {
				t.Errorf("%d of %d replayed states recycled, want each exactly once", n, r)
			}
			if c.opts.Workers != 4 {
				assertSameRun(t, c.name, got, want)
				return
			}
			// Four workers find the same violations through paths that
			// vary run to run: every trail must still be one chain of
			// replays from the initial state to its violation.
			if !reflect.DeepEqual(violationKeys(got), violationKeys(want)) {
				t.Errorf("violation sets differ: %d vs hook-less %d", len(got.Violations), len(want.Violations))
			}
			for _, f := range got.Violations {
				v := 1
				for i, st := range f.Trail {
					if w := fmt.Sprintf("from %d|to ", v); !strings.HasPrefix(strings.Join(st.Steps, "|"), w) {
						t.Fatalf("%s: step %d steps %q, want %q…", f.Violation, i, st.Steps, w)
					}
					fmt.Sscanf(st.Steps[1], "to %d", &v)
					if !strings.HasSuffix(st.Label, "->"+strconv.Itoa(v)) {
						t.Fatalf("%s: step %d label %q does not reach %d", f.Violation, i, st.Label, v)
					}
				}
				if !strings.HasPrefix(f.Detail, fmt.Sprintf("reached %d ", v)) {
					t.Errorf("%s: trail ends at %d", f.Violation, v)
				}
			}
		})
	}
}
