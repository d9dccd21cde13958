//go:build iotsan_skipmark

// Negative runtime-oracle test for the dirty-mark contract. The
// iotsan_skipmark build tag arms a deliberate fault in the executors
// (internal/model/skipmark_on.go): enqueue appends pending invocations
// to the queue block without calling markQueue. This test replays the
// TestIncrementalDigestWalkEquivalence walk on a concurrent-design
// model and asserts the oracle DIVERGES — incremental digests computed
// from the stale queue-block hash must differ from the from-scratch
// digests of the same states.
//
// Together with the dirtymark analyzer this closes the loop from both
// sides: the analyzer proves statically that every queue write in the
// shipped code is paired with its mark, and this test proves the
// runtime equivalence oracle is not vacuous — if a mark were ever
// skipped anyway, the walk would fail the build.
//
// The tag also arms a second fault — sensorUpdate skips markDevice — for
// the other thing a mark now is: the record of what a scratch must copy
// back from the parent before its next step. A skipped mark there is a
// missed undo, and the keyed-vs-eager walk must diverge on it with no
// block cache in play at all. And the same fault is a stale atom: the
// Inspect differential must diverge on it too.
//
// Run with: go test -tags iotsan_skipmark -run TestSkipMark .
package iotsan_test

import (
	"math/rand"
	"testing"

	"iotsan/internal/model"
)

func TestSkipMarkOracleCatchesMissingQueueMark(t *testing.T) {
	cfg := porCorpusConfigs[0]
	m := incGroupModel(t, 1, cfg.napps, cfg.events, true)
	sys := m.System()
	rng := rand.New(rand.NewSource(7919))
	states, divergences := 0, 0
	check := func(st *model.State) {
		states++
		for _, canonical := range []bool{false, true} {
			h1, h2 := m.IncrementalDigest(st, canonical)
			sc := st.Clone()
			sc.MarkAllDirty()
			w1, w2 := m.IncrementalDigest(sc, canonical)
			if h1 != w1 || h2 != w2 {
				divergences++
			}
		}
	}
	for walk := 0; walk < 4; walk++ {
		cur := sys.Initial()
		for step := 0; step < 40; step++ {
			trs := sys.Expand(cur)
			if len(trs) == 0 {
				break
			}
			for _, tr := range trs {
				check(tr.Next.(*model.State))
			}
			cur = trs[rng.Intn(len(trs))].Next
		}
	}
	if states == 0 {
		t.Fatal("walk reached no states — the negative oracle is vacuous")
	}
	if divergences == 0 {
		t.Fatalf("markQueue was skipped on every enqueue, yet all %d states digest-matched their from-scratch oracle — the runtime oracle would miss a real missed mark", states)
	}
	t.Logf("oracle caught %d digest divergences across %d states with markQueue skipped", divergences, states)
}

// TestSkipMarkOracleCatchesMissedUndo: on a sequential-design model
// without the block cache — no queue block, no digests: only the
// skipped markDevice is in play — successors stepped in a scratch must
// differ from Expand's fresh-clone successors, because the scratch
// never restores the sensor attribute the previous step wrote.
func TestSkipMarkOracleCatchesMissedUndo(t *testing.T) {
	m := stealGroupModel(t, 2)
	if m.Opts.Incremental || m.Opts.Design != model.Sequential {
		t.Fatal("the negative oracle wants a sequential model without the block cache")
	}
	states, _, div := walkKeyed(m, 16, false)
	if states == 0 {
		t.Fatal("walk reached no states — the negative oracle is vacuous")
	}
	if div.count == 0 {
		t.Fatalf("markDevice was skipped on every sensor update, yet all %d stepped successors matched Expand's — the walk would miss a real missed undo", states)
	}
	t.Logf("walk caught %d divergences across %d successors with markDevice skipped; first: %s", div.count, states, div.first)
}

// TestSkipMarkOracleCatchesStaleAtom: the third reader of a mark is the
// atom valuation — a transition withdraws the freshness of the atoms
// that read a block it marked. With markDevice skipped on sensor
// updates, the atoms reading a sensor keep their parent's value on the
// successor, and the Inspect differential must see a settled word that
// differs from the from-scratch one. Along a walk of Expand's
// successors, not a search: the stale digests of the same fault would
// collapse a visited store to a handful of states.
func TestSkipMarkOracleCatchesStaleAtom(t *testing.T) {
	cfg := porCorpusConfigs[0]
	m := incGroupModel(t, 1, cfg.napps, cfg.events, true)
	o := newValuationOracle(t, m)
	rng := rand.New(rand.NewSource(7919))
	for walk := 0; walk < 4; walk++ {
		cur := m.Initial()
		m.IncrementalDigest(cur, false) // digest, then inspect: the engine's order
		o.inspect(cur)
		for step := 0; step < 40; step++ {
			trs := m.Expand(cur)
			if len(trs) == 0 {
				break
			}
			for _, tr := range trs {
				m.IncrementalDigest(tr.Next.(*model.State), false)
				o.inspect(tr.Next)
			}
			cur = trs[rng.Intn(len(trs))].Next.(*model.State)
		}
	}
	if o.inspected.Load() == 0 {
		t.Fatal("nothing was inspected — the negative oracle is vacuous")
	}
	if o.failures == 0 {
		t.Fatalf("markDevice was skipped on every sensor update, yet all %d inspected states settled to their from-scratch valuation — the differential would miss a real missed mark", o.inspected.Load())
	}
	t.Logf("differential caught %d divergences across %d inspected states with markDevice skipped; first: %s", o.failures, o.inspected.Load(), o.first)
}
