// Equivalence gates for the incremental block encode + digest path:
// caching per-block hashes and re-encoding only dirtied blocks must be
// observationally invisible. Two layers of teeth: (1) random walks over
// every corpus group and the interchangeable-device system assert that
// the incremental digest of every reached state equals the from-scratch
// digest of the same state with its whole cache invalidated — raw and
// canonical — so a single missed dirty mark anywhere in the executors
// fails the build; (2) full checker runs with the cache on and off must
// report identical violation sets under every strategy, composed with
// POR and with symmetry, with identical state-space counts and DFS
// trails wherever the search order is digest-partition deterministic.
package iotsan_test

import (
	"fmt"
	"math/rand"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
	"iotsan/internal/model"
	"iotsan/internal/props"
)

// incGroupModel builds a concurrent-design corpus-group model with the
// symmetry tables computed (so the canonical digest path is exercised)
// and the incremental cache explicitly on or off. The (apps, events)
// shapes reuse porCorpusConfigs: fully explorable, so the on/off runs
// compare complete searches.
func incGroupModel(t *testing.T, group, napps, maxEvents int, incremental bool) *model.Model {
	t.Helper()
	sources := corpus.Group(group)
	if napps > 0 && napps < len(sources) {
		sources = sources[:napps]
	}
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	sys := experiments.ExpertConfig(fmt.Sprintf("inc-group-%d", group), sources, apps)
	invs, err := props.CompileInvariants(sys, nil, props.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(sys, apps, model.Options{
		MaxEvents: maxEvents, CheckConflicts: true, Invariants: invs,
		Design: model.Concurrent, Symmetry: true, Incremental: incremental,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// walkDigests random-walks the transition system and, at every reached
// state (including all siblings at each step), asserts the incremental
// digest — computed from inherited block hashes plus the transition's
// dirty marks — equals the digest of a clone with every block
// invalidated, for both the raw and the canonical fold. The clone
// oracle re-encodes the entire vector, so any divergence pins a
// mutation site that forgot its mark (or a canonical fold that reused a
// block it should have re-encoded).
func walkDigests(t *testing.T, m *model.Model, seed int64) {
	t.Helper()
	sys := m.System()
	rng := rand.New(rand.NewSource(seed))
	verified := 0
	verify := func(st *model.State, at string) {
		for _, canonical := range []bool{false, true} {
			h1, h2 := m.IncrementalDigest(st, canonical)
			sc := st.Clone()
			sc.MarkAllDirty()
			w1, w2 := m.IncrementalDigest(sc, canonical)
			if h1 != w1 || h2 != w2 {
				t.Fatalf("%s: incremental digest (%#x,%#x) != from-scratch digest (%#x,%#x) [canonical=%v]",
					at, h1, h2, w1, w2, canonical)
			}
		}
		verified++
	}
	for walk := 0; walk < 4; walk++ {
		cur := sys.Initial()
		verify(cur.(*model.State), fmt.Sprintf("walk %d initial", walk))
		for step := 0; step < 40; step++ {
			trs := sys.Expand(cur)
			if len(trs) == 0 {
				break
			}
			for k, tr := range trs {
				verify(tr.Next.(*model.State), fmt.Sprintf("walk %d step %d succ %d (%s)", walk, step, k, tr.Label))
			}
			cur = trs[rng.Intn(len(trs))].Next
		}
	}
	if verified == 0 {
		t.Fatal("walk verified no states — the digest check is vacuous")
	}
	t.Logf("verified %d states (raw + canonical)", verified)
}

// TestIncrementalDigestWalkEquivalence: the per-state digest oracle on
// every corpus group and on the interchangeable-device system (whose
// orbits make the canonical fold actually permute and re-encode
// blocks).
func TestIncrementalDigestWalkEquivalence(t *testing.T) {
	for g := 1; g <= 6; g++ {
		g := g
		t.Run(fmt.Sprintf("group%d", g), func(t *testing.T) {
			t.Parallel()
			cfg := porCorpusConfigs[g-1]
			m := incGroupModel(t, g, cfg.napps, cfg.events, true)
			walkDigests(t, m, int64(g)*7919+1)
		})
	}
	t.Run("symmetry", func(t *testing.T) {
		t.Parallel()
		m, _, _, err := experiments.SymmetryEncodeWorkload(true)
		if err != nil {
			t.Fatal(err)
		}
		if st := m.SymmetryStats(); st.Orbits == 0 {
			t.Fatal("symmetry workload carries no orbits — the canonical walk is vacuous")
		}
		walkDigests(t, m, 104729)
	})
}

// TestIncrementalDigestNoCollision: over the whole reachable set of
// every corpus group — enumerated by a plain breadth-first search keyed
// on the full Encode bytes, sharing nothing with the engine — the raw
// block-hash fold maps distinct encodings to distinct h1 and distinct
// h2, and equal encodings to equal digests. The fold is a sum of
// position-salted terms: this is the check that summing lost nothing a
// 64-bit fingerprint is expected to keep.
func TestIncrementalDigestNoCollision(t *testing.T) {
	for g := 1; g <= 6; g++ {
		g := g
		t.Run(fmt.Sprintf("group%d", g), func(t *testing.T) {
			t.Parallel()
			if raceEnabled && g != 3 {
				t.Skip("one group is enough under the race detector")
			}
			cfg := porCorpusConfigs[g-1]
			m := incGroupModel(t, g, cfg.napps, cfg.events, true)
			type dg struct{ h1, h2 uint64 }
			byEnc := map[string]dg{}
			byH1, byH2 := map[uint64]string{}, map[uint64]string{}
			frontier := []*model.State{m.Initial()}
			var buf []byte
			for len(frontier) > 0 {
				var next []*model.State
				for _, s := range frontier {
					buf = s.Encode(buf[:0])
					h1, h2 := m.IncrementalDigest(s, false)
					if prev, seen := byEnc[string(buf)]; seen {
						if prev != (dg{h1, h2}) {
							t.Fatalf("equal encodings, different digests: %#x/%#x vs %#x/%#x", prev.h1, prev.h2, h1, h2)
						}
						continue
					}
					enc := string(buf)
					byEnc[enc] = dg{h1, h2}
					if other, dup := byH1[h1]; dup && other != enc {
						t.Fatalf("h1 %#x shared by two distinct encodings", h1)
					}
					if other, dup := byH2[h2]; dup && other != enc {
						t.Fatalf("h2 %#x shared by two distinct encodings", h2)
					}
					byH1[h1], byH2[h2] = enc, enc
					for _, tr := range m.Expand(s) {
						next = append(next, tr.Next.(*model.State))
					}
				}
				frontier = next
			}
			if len(byEnc) < 100 {
				t.Errorf("only %d reachable states — the check is thin", len(byEnc))
			}
			t.Logf("%d reachable states, no digest shared", len(byEnc))
		})
	}
}

// incEquivRun verifies one (options, strategy) configuration on a
// cache-off oracle model and a cache-on model: identical distinct
// violations always; identical explored/matched/stored counts and —
// under DFS — identical counter-example trails whenever the search
// order is determined by the digest partition alone (symmetry off: the
// cached-hash orbit profiles may canonicalize orbits through a
// different representative, which legitimately reorders a quotient
// search without changing what it finds).
func incEquivRun(t *testing.T, oracleM, incM *model.Model, base checker.Options, strat checker.StrategyKind, symmetry bool) {
	t.Helper()
	o := base
	o.Strategy = strat
	o.Workers = 2
	o.Symmetry = symmetry
	off := checker.Run(oracleM.System(), o)
	on := checker.Run(incM.System(), o)
	name := fmt.Sprintf("%v por=%v symmetry=%v", strat, o.POR, symmetry)
	if off.Truncated || on.Truncated {
		t.Fatalf("%s: truncated (off=%v on=%v); the equivalence gate needs full exploration", name, off.Truncated, on.Truncated)
	}
	want, got := violationSet(off), violationSet(on)
	if len(want) == 0 {
		t.Fatalf("%s: oracle found no violations — the equivalence check is vacuous", name)
	}
	if !equalStringSlices(got, want) {
		t.Errorf("%s: violation sets differ:\nincremental: %v\noracle:      %v", name, got, want)
	}
	if !symmetry {
		// Without canonicalization the two digest schemes induce the same
		// state partition, so the searches are step-for-step identical: a
		// count drift means the incremental digest aliased or split states.
		if on.StatesExplored != off.StatesExplored || on.StatesMatched != off.StatesMatched ||
			on.StatesStored != off.StatesStored {
			t.Errorf("%s: state space diverges: incremental explored=%d matched=%d stored=%d / oracle explored=%d matched=%d stored=%d",
				name, on.StatesExplored, on.StatesMatched, on.StatesStored,
				off.StatesExplored, off.StatesMatched, off.StatesStored)
		}
		if strat == checker.StrategyDFS && len(on.Violations) == len(off.Violations) {
			for k := range on.Violations {
				ot, it := checker.FormatTrail(off.Violations[k]), checker.FormatTrail(on.Violations[k])
				if it != ot {
					t.Errorf("%s: trail for %s diverges:\n--- incremental ---\n%s\n--- oracle ---\n%s",
						name, on.Violations[k].Property, it, ot)
				}
			}
		}
	}
}

// TestIncrementalEncodeEquivalence: checker-level on/off equivalence on
// every corpus group — each strategy, plain, with POR, and with
// symmetry reduction.
func TestIncrementalEncodeEquivalence(t *testing.T) {
	strategies := []checker.StrategyKind{checker.StrategyDFS, checker.StrategySteal}
	for g := 1; g <= 6; g++ {
		g := g
		t.Run(fmt.Sprintf("group%d", g), func(t *testing.T) {
			t.Parallel()
			cfg := porCorpusConfigs[g-1]
			oracleM := incGroupModel(t, g, cfg.napps, cfg.events, false)
			incM := incGroupModel(t, g, cfg.napps, cfg.events, true)
			for _, mode := range []struct {
				por, sym bool
			}{{false, false}, {true, false}, {false, true}} {
				for _, strat := range strategies {
					incEquivRun(t, oracleM, incM,
						checker.Options{MaxDepth: 100, POR: mode.por}, strat, mode.sym)
				}
			}
		})
	}
	// The interchangeable-device system: heavy orbits, POR composed with
	// symmetry, so the canonical fold's block-reuse decisions face real
	// permutations under every strategy.
	t.Run("symmetry-system", func(t *testing.T) {
		t.Parallel()
		oracleM, _, _, err := experiments.SymmetryEncodeWorkload(false)
		if err != nil {
			t.Fatal(err)
		}
		incM, _, _, err := experiments.SymmetryEncodeWorkload(true)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			por, sym bool
		}{{false, false}, {true, false}, {false, true}, {true, true}} {
			for _, strat := range strategies {
				incEquivRun(t, oracleM, incM,
					checker.Options{MaxDepth: 100, POR: mode.por}, strat, mode.sym)
			}
		}
	})
}
