package iotsan

import "flag"

// RegisterFlags declares the checker-engine command-line flags on fs,
// each writing straight into the Options field it names; after fs
// parses, o is the engine configuration. It is the only declaration of
// the engine's flag surface — cmd/iotsan and cmd/iotsan-bench both call
// it, so the two front-ends cannot drift. Call it on a zero Options:
// the flag defaults are the zero values, except -max-faults 1.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.Func("strategy",
		"checker search strategy: dfs (sequential, default) or steal (work-stealing, -workers goroutines)",
		func(s string) (err error) { o.Strategy, err = ParseStrategy(s); return })
	fs.IntVar(&o.Workers, "workers", 0,
		"engine width: apps translated, concurrent related sets, and steal goroutines (0 = GOMAXPROCS)")
	fs.BoolVar(&o.POR, "por", false,
		"partial-order reduction: prune equivalent handler interleavings (concurrent design)")
	fs.BoolVar(&o.Symmetry, "symmetry", false,
		"symmetry reduction: fold states related by permutations of interchangeable devices")
	fs.BoolVar(&o.Failures, "failures", false,
		"enumerate transient failures per external event or timer firing: sensor offline, sensor report lost, or the cascade's actuator commands lost")
	fs.BoolVar(&o.Faults, "faults", false,
		"persistent fault injection: device outages, delayed/dropped commands, stale reads")
	fs.IntVar(&o.MaxFaults, "max-faults", 1,
		"budget of fault transitions per path with -faults (outages and drops each cost one; 0 keeps the fault layer inert)")
	fs.Func("store",
		"visited-state store: exhaustive (in-memory hash-compact, default), bitstate (supertrace bit array), or tiered (out-of-core: memory-budgeted hot tier spilling to a memory-mapped hash table behind a heap filter; requires -store-dir); bitstate and tiered are -strategy dfs only",
		func(s string) (err error) { o.Store, err = ParseStore(s); return })
	fs.StringVar(&o.StoreDir, "store-dir", "",
		"scratch directory for -store tiered and -checkpoint/-resume (per-group tier files and the checkpoint WAL)")
	fs.Int64Var(&o.MemBudget, "mem-budget", 0,
		"bytes of the hot tier per related set with -store tiered, refused with any other store; the older half spills to disk when the newer half fills (0 = 64 MiB)")
	fs.BoolVar(&o.Checkpoint, "checkpoint", false,
		"write-ahead checkpoint the search to <store-dir>/*/wal.log (-strategy dfs, any store); a killed run can continue with -resume")
	fs.BoolVar(&o.Resume, "resume", false,
		"resume each related set from its last durable checkpoint in -store-dir and go on checkpointing (-strategy dfs; falls back to a fresh search when no intact checkpoint exists)")
}
