// Gates for the engine's admission order. Every strategy records a
// successor's transition violations, asks the visited store, and runs
// System.Inspect only on a state the store reports new. That is exact
// as long as Inspect is a function of the state's encoding, and these
// tests hold both halves: an oracle that inspects every successor
// without any product switch, and a walk that checks the purity
// contract itself.
package iotsan_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"iotsan/internal/checker"
	"iotsan/internal/experiments"
	"iotsan/internal/model"
)

// engineSystem is every hook model.System() implements. The wrappers
// below embed it, so the engine finds the same optional interfaces on
// them and takes the same code path as on the bare system.
type engineSystem interface {
	checker.System
	checker.Replayer
	checker.Reducer
	checker.ProgressCertifier
	checker.CanonicalEncoder
	HasSymmetry() bool
	checker.IncrementalDigester
	checker.StateRecycler
	checker.TransitionRecycler
	checker.DeltaCodec
}

func asEngineSystem(t *testing.T, m *model.Model) engineSystem {
	t.Helper()
	sys, ok := m.System().(engineSystem)
	if !ok {
		t.Fatalf("model.System() (%T) no longer implements every hook the test wrappers forward", m.System())
	}
	return sys
}

// edgeInspectSystem is the independent oracle: Expand appends each
// successor's Inspect result to the transition's own violations, and
// Inspect answers only for the initial state. The engine records
// transition violations for every successor it generates, before the
// visited store is consulted, so a run over this wrapper inspects every
// successor, through a path the admission order does not touch.
type edgeInspectSystem struct {
	engineSystem
	initial checker.State
}

func (e *edgeInspectSystem) Initial() checker.State {
	e.initial = e.engineSystem.Initial()
	return e.initial
}

func (e *edgeInspectSystem) Expand(s checker.State) []checker.Transition {
	trs := e.engineSystem.Expand(s)
	for i := range trs {
		if vs := e.engineSystem.Inspect(trs[i].Next); len(vs) > 0 {
			own := trs[i].Violations
			trs[i].Violations = append(own[:len(own):len(own)], vs...)
		}
	}
	return trs
}

func (e *edgeInspectSystem) Inspect(s checker.State) []checker.Violation {
	if s == e.initial {
		return e.engineSystem.Inspect(s)
	}
	return nil
}

// countingSystem counts the Expand and Inspect calls of one run.
type countingSystem struct {
	engineSystem
	expands, inspects atomic.Int64
}

func (c *countingSystem) Expand(s checker.State) []checker.Transition {
	c.expands.Add(1)
	return c.engineSystem.Expand(s)
}

func (c *countingSystem) Inspect(s checker.State) []checker.Violation {
	c.inspects.Add(1)
	return c.engineSystem.Inspect(s)
}

// admissionWorkload is one model of the admission matrix.
type admissionWorkload struct {
	name     string
	build    func(t *testing.T) *model.Model
	maxDepth int
}

func admissionWorkloads() []admissionWorkload {
	var ws []admissionWorkload
	for g := 1; g <= 6; g++ {
		g := g
		ws = append(ws, admissionWorkload{
			name: fmt.Sprintf("group%d", g),
			build: func(t *testing.T) *model.Model {
				cfg := porCorpusConfigs[g-1]
				return incGroupModel(t, g, cfg.napps, cfg.events, true)
			},
			maxDepth: 100,
		})
	}
	ws = append(ws,
		admissionWorkload{name: "symmetry", build: symWorkloadModel, maxDepth: 100},
		admissionWorkload{name: "fault", maxDepth: 116, build: func(t *testing.T) *model.Model {
			m, _, _, err := experiments.FaultWorkload(true, 2)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
	)
	return ws
}

// TestInspectAfterDedupEquivalence: on the six corpus groups, the
// symmetry workload and the fault workload, under {plain, POR,
// symmetry, POR+symmetry} × {dfs, steal}, the engine reports
// exactly what the inspect-every-successor oracle reports — the same
// (Property, Detail) set and the same explored/matched/stored counts;
// on DFS, whose order is deterministic, the same violations in the same
// order with the same trails and depths. The same runs carry the
// call-count gate: Inspect runs once per stored state — not once per
// explored plus once per matched state — which on the steal strategy
// also proves that depth-relaxation re-expansions inspect nothing.
//
// Under the race detector only the cheapest group runs; CI runs the
// whole matrix without it.
func TestInspectAfterDedupEquivalence(t *testing.T) {
	strategies := []checker.StrategyKind{checker.StrategyDFS, checker.StrategySteal}
	modes := []struct{ por, sym bool }{{false, false}, {true, false}, {false, true}, {true, true}}
	workloads := admissionWorkloads()
	var ran, relaxed atomic.Int64 // workloads run; steal runs that re-expanded at least one state
	t.Run("matrix", func(t *testing.T) {
		for _, w := range workloads {
			w := w
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				if raceEnabled && w.name != "group3" {
					t.Skipf("%s skipped under the race detector (group3 covers the interleavings)", w.name)
				}
				ran.Add(1)
				sys := asEngineSystem(t, w.build(t))
				for _, mode := range modes {
					for _, strat := range strategies {
						opts := checker.Options{MaxDepth: w.maxDepth, POR: mode.por, Symmetry: mode.sym,
							Strategy: strat, Workers: 2}
						name := fmt.Sprintf("%v por=%v sym=%v", strat, mode.por, mode.sym)

						want := checker.Run(&edgeInspectSystem{engineSystem: sys}, opts)
						counted := &countingSystem{engineSystem: sys}
						got := checker.Run(counted, opts)
						if want.Truncated || got.Truncated {
							t.Fatalf("%s: truncated (oracle=%v engine=%v); the gate needs full exploration", name, want.Truncated, got.Truncated)
						}
						if len(want.Violations) == 0 {
							t.Fatalf("%s: the oracle found no violations — the comparison is vacuous", name)
						}
						if !equalStringSlices(violationSet(got), violationSet(want)) {
							t.Errorf("%s: violation sets differ:\nengine: %q\noracle: %q", name, violationSet(got), violationSet(want))
						}
						if got.StatesExplored != want.StatesExplored || got.StatesMatched != want.StatesMatched ||
							got.StatesStored != want.StatesStored {
							t.Errorf("%s: state space diverges: engine explored=%d matched=%d stored=%d / oracle %d/%d/%d", name,
								got.StatesExplored, got.StatesMatched, got.StatesStored,
								want.StatesExplored, want.StatesMatched, want.StatesStored)
						}
						if strat == checker.StrategyDFS && len(got.Violations) == len(want.Violations) {
							for k := range want.Violations {
								g, o := got.Violations[k], want.Violations[k]
								if g.Depth != o.Depth || checker.FormatTrail(g) != checker.FormatTrail(o) {
									t.Errorf("%s: violation %d diverges:\n--- engine (depth %d) ---\n%s--- oracle (depth %d) ---\n%s",
										name, k, g.Depth, checker.FormatTrail(g), o.Depth, checker.FormatTrail(o))
								}
							}
						}

						if n := int(counted.inspects.Load()); n != got.StatesStored {
							t.Errorf("%s: %d Inspect calls for %d stored states (explored=%d matched=%d): Inspect must run once per stored state",
								name, n, got.StatesStored, got.StatesExplored, got.StatesMatched)
						}
						if strat == checker.StrategySteal && int(counted.expands.Load()) > got.StatesExplored {
							relaxed.Add(1)
						}
					}
				}
			})
		}
	})
	if int(ran.Load()) == len(workloads) && relaxed.Load() == 0 {
		t.Error("no steal run re-expanded a state: the matrix no longer exercises depth relaxation")
	}
}

// TestInspectPureOverEncoding holds the contract the admission order
// rests on (checker.System.Inspect): along random walks of the corpus
// groups and the symmetry workload, two states with equal Encode bytes
// return equal Inspect results, and so do two states with equal
// CanonicalEncode bytes — the key the store deduplicates on under
// Options.Symmetry — even when their raw encodings differ.
func TestInspectPureOverEncoding(t *testing.T) {
	for _, w := range admissionWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			sys := asEngineSystem(t, w.build(t))
			type verdict struct {
				raw     []byte
				inspect string
			}
			byRaw := map[string]string{}
			byCanon := map[string]verdict{}
			var rawRepeats, folded int
			var buf []byte
			rng := rand.New(rand.NewSource(15))
			for walk := 0; walk < 150; walk++ {
				s := sys.Initial()
				for step := 0; step < 40; step++ {
					got := fmt.Sprintf("%q", sys.Inspect(s))
					buf = s.Encode(buf[:0])
					if prev, ok := byRaw[string(buf)]; !ok {
						byRaw[string(buf)] = got
					} else if rawRepeats++; prev != got {
						t.Fatalf("walk %d step %d: equal encodings, different Inspect results:\n%s\n%s", walk, step, prev, got)
					}
					raw := append([]byte(nil), buf...)
					buf = sys.CanonicalEncode(s, buf[:0])
					if prev, ok := byCanon[string(buf)]; !ok {
						byCanon[string(buf)] = verdict{raw: raw, inspect: got}
					} else {
						if !bytes.Equal(prev.raw, raw) {
							folded++
						}
						if prev.inspect != got {
							t.Fatalf("walk %d step %d: equal canonical encodings, different Inspect results:\n%s\n%s", walk, step, prev.inspect, got)
						}
					}
					trs := sys.Expand(s)
					if len(trs) == 0 {
						break
					}
					s = trs[rng.Intn(len(trs))].Next
				}
			}
			if rawRepeats == 0 {
				t.Error("no encoding repeated along the walks — the check is vacuous")
			}
			if w.name == "symmetry" && folded == 0 {
				t.Error("no two raw-distinct states shared a canonical encoding — the orbit half of the check is vacuous")
			}
			t.Logf("%d distinct states, %d repeats, %d orbit-folded repeats", len(byRaw), rawRepeats, folded)
		})
	}
}
