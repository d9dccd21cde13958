package model

import (
	"bytes"
	"testing"

	"iotsan/internal/checker"
)

// scratchSpy is model.System() with NewScratch recorded, so a test can
// read the counters of the scratches a search made.
type scratchSpy struct {
	sysAdapter
	made []*Scratch
}

func (s *scratchSpy) NewScratch() checker.Scratch {
	sc := s.m.NewScratch()
	s.made = append(s.made, sc)
	return sc
}

// TestDFSCopiesOnlyStoredStates is the count gate on whole-state copies:
// an exhaustive DFS run copies the state vector once per stored state
// (Keep, gated in the root package's matrix) and once into its scratch
// — from the root; every later re-sync, pops included, is by touched
// blocks.
func TestDFSCopiesOnlyStoredStates(t *testing.T) {
	for _, incremental := range []bool{true, false} {
		m := cascadeModelOpts(t, Options{MaxEvents: 7, Incremental: incremental})
		spy := &scratchSpy{sysAdapter: sysAdapter{m}}
		res := checker.Run(spy, checker.Options{MaxDepth: 100})
		if res.Truncated || res.StatesMatched == 0 {
			t.Fatalf("incremental=%v: truncated=%v matched=%d", incremental, res.Truncated, res.StatesMatched)
		}
		if len(spy.made) != 1 {
			t.Fatalf("incremental=%v: DFS made %d scratches, want 1", incremental, len(spy.made))
		}
		if n := spy.made[0].FullSyncs(); n != 1 {
			t.Errorf("incremental=%v: %d whole-state copies into the scratch over %d stored / %d matched states, want 1",
				incremental, n, res.StatesStored, res.StatesMatched)
		}
	}
}

// TestScratchUnsettledParentsStayExact: a parent nobody has digested
// yet still carries stale block hashes that a later digest would
// refresh under the scratch, so the scratch must not put it on its
// chain — it copies such a parent in full on every step, and the
// successors stay exactly Expand's.
func TestScratchUnsettledParentsStayExact(t *testing.T) {
	m := cascadeModelOpts(t, Options{MaxEvents: 3, Incremental: true})
	sc := m.NewScratch()
	var a, b []byte
	cur := m.Initial() // never digested
	for depth := 0; depth < 3; depth++ {
		want := m.Expand(cur)
		stubs := m.Enabled(cur, nil)
		var kept *State
		for i := range stubs {
			tr := sc.Step(cur, &stubs[i])
			a, b = tr.Next.Encode(a[:0]), want[i].Next.Encode(b[:0])
			if !bytes.Equal(a, b) {
				t.Fatalf("depth %d successor %d: stepped encoding differs from Expand's", depth, i)
			}
			if i == 0 {
				kept = sc.Keep() // undigested: dirty blocks, so not settled either
			}
		}
		// Digesting the parent now refreshes its cache; the next round
		// steps from a child kept before that happened.
		m.IncrementalDigest(cur, false)
		h1, h2 := m.IncrementalDigest(kept, false)
		fresh := kept.Clone()
		fresh.MarkAllDirty()
		if w1, w2 := m.IncrementalDigest(fresh, false); h1 != w1 || h2 != w2 {
			t.Fatalf("depth %d: kept state's incremental digest differs from its from-scratch digest", depth)
		}
		cur = kept
	}
	if sc.FullSyncs() < 3 {
		t.Errorf("%d whole-state copies: unsettled parents must be copied in full", sc.FullSyncs())
	}
}
