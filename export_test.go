package iotsan

// CompiledCounts exposes the report's plan counters — handler programs
// compiled and invariant atom tables resolved during the call — to the
// compile-once gate in the external test package.
func (r *Report) CompiledCounts() (programs, atomTables int) {
	return r.compiled.Programs, r.compiled.AtomTables
}
