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
		"checker goroutines for -strategy steal and the -group-parallel budget (0 = GOMAXPROCS)")
	fs.BoolVar(&o.GroupParallel, "group-parallel", false,
		"verify independent related sets concurrently under one shared worker budget")
	fs.BoolVar(&o.POR, "por", false,
		"partial-order reduction: prune equivalent handler interleavings (concurrent design)")
	fs.BoolVar(&o.Symmetry, "symmetry", false,
		"symmetry reduction: fold states related by permutations of interchangeable devices")
	fs.BoolVar(&o.Failures, "failures", false,
		"enumerate transient device/communication failure modes per command")
	fs.BoolVar(&o.Faults, "faults", false,
		"persistent fault injection: device outages, delayed/dropped commands, stale reads")
	fs.IntVar(&o.MaxFaults, "max-faults", 1,
		"budget of fault transitions per path with -faults (outages and drops each cost one; 0 keeps the fault layer inert)")
	fs.Func("store",
		"visited-state store: exhaustive (in-memory hash-compact, default), bitstate (supertrace bit array), or tiered (out-of-core: memory-budgeted hot tier spilling to file-backed filter + disk hash tiers; requires -store-dir)",
		func(s string) (err error) { o.Store, err = ParseStore(s); return })
	fs.StringVar(&o.StoreDir, "store-dir", "",
		"scratch directory for -store tiered (per-group tier files and the checkpoint WAL)")
	fs.Int64Var(&o.MemBudget, "mem-budget", 0,
		"approximate resident bytes of hot-tier fingerprints per related set with -store tiered (0 = 64 MiB)")
	fs.BoolVar(&o.Checkpoint, "checkpoint", false,
		"write-ahead checkpoint the search to <store-dir>/*/wal.log (tiered store, sequential DFS); a killed run can continue with -resume")
	fs.BoolVar(&o.Resume, "resume", false,
		"resume each related set from its last durable checkpoint in -store-dir (falls back to a fresh search when no intact checkpoint exists)")
}
