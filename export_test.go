package iotsan

import "iotsan/internal/model"

// Every scratch these tests make re-steps what it splices from its
// transition memo and fails the run on a difference (model.CheckSplices):
// each new state a memo-on search stores is checked against a real step.
func init() { model.CheckSplices(true) }

// CompiledCounts exposes the report's plan counters — handler programs
// compiled and invariant atom tables resolved during the call — to the
// compile-once gate in the external test package.
func (r *Report) CompiledCounts() (programs, atomTables int) {
	return r.compiled.Programs, r.compiled.AtomTables
}
