package iotsan

import (
	"sync/atomic"

	"iotsan/internal/ir"
	"iotsan/internal/model"
)

// Every scratch these tests make re-steps what it splices from its
// transition memo and fails the run on a difference (model.CheckSplices):
// each new state a memo-on search stores is checked against a real step.
func init() { model.CheckSplices(true) }

// CompiledCounts exposes the report's plan counters — handler programs
// compiled and invariant atom tables resolved during the call — to the
// compile-once gate in the external test package.
func (r *Report) CompiledCounts() (programs, atomTables int) {
	return r.programs, r.atomTables
}

// VerifyEachSetAlone verifies every related set of sys in group order,
// each on one worker with a searchKit of its own, so that no set starts
// from what another grew: the reference the kit-equivalence test holds
// Analyze's sets to.
func VerifyEachSetAlone(sys *System, apps map[string]*ir.App, opts Options) ([]GroupResult, error) {
	opts = opts.withDefaults()
	names, translate := translated(apps)
	pl, groups, err := relatedSets(&Report{}, sys, names, translate, opts)
	if err != nil {
		return nil, err
	}
	out := make([]GroupResult, len(groups))
	for i, g := range groups {
		gr, err := verifyGroup(pl, pl.groupInstances(g), opts, i, new(atomic.Bool), 1, new(searchKit))
		if err != nil {
			return nil, err
		}
		out[i] = *gr
	}
	return out, nil
}
