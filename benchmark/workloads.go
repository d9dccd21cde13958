package main

import (
	"fmt"

	"iotsan"
	"iotsan/internal/corpus"
	"iotsan/internal/experiments"
)

// A workload is one named set of inputs and engine options. A pass is
// one iotsan.Analyze call per system; a sample is passesPerSample
// consecutive passes.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json,
	// README).
	why string
	// passesPerSample (the issue's N) is fixed per workload: later PRs
	// may lower sample counts, never this.
	passesPerSample int
	// split marks the workloads whose systems are
	// experiments.RandomGroups(split); the fixed paper configurations
	// have one input and one expected-verdict entry.
	split bool
	// workers is the number of checker goroutines the options start
	// (the multiplier in checker.self_s).
	workers int
	opts    iotsan.Options
	// tempStore gives every Analyze call a fresh StoreDir, created and
	// removed outside the timed window.
	tempStore bool
	// interpreterOracle marks the workloads cheap enough for
	// -write-expected to repeat under Options.Interpreter, the
	// tree-walking executor that shares no code with compiled handlers.
	interpreterOracle bool
	systems           func(split int64) ([]system, error)
}

// A system is what iotsan.Analyze receives: a configuration plus the
// raw Groovy source of every installed app.
type system struct {
	sys     *iotsan.System
	sources map[string]string
}

var workloads = []workload{
	{
		name:            "market_scan",
		why:             "six 25-app market systems at 1 event: the only workload where parsing, translation, type inference, related sets, invariant compilation and model.New (about 75% of a pass) outweigh search",
		passesPerSample: 12,
		split:           true,
		workers:         1,
		opts:            iotsan.Options{MaxEvents: 1},
		systems:         marketSystems,

		interpreterOracle: true,
	},
	{
		name:            "market_t5",
		why:             "the same systems at 3 events on DFS (Table 5 shape): 81 medium related sets and 127 violations, so trail replay and multi-group orchestration show and the front-end is under 2%",
		passesPerSample: 1,
		split:           true,
		workers:         1,
		opts:            iotsan.Options{MaxEvents: 3},
		systems:         marketSystems,
	},
	{
		name:            "table8_dfs",
		why:             "the paper's Table 8 system at 5 events, one deep related set of 141372 states on DFS with the in-memory store: Expand, Inspect, digest and store are everything",
		passesPerSample: 1,
		workers:         1,
		opts:            iotsan.Options{MaxEvents: 5, NoDepGraph: true},
		systems:         table8Systems,
	},
	{
		name:            "table8_steal2",
		why:             "the Table 8 state graph through the work-stealing deques, sharded store and epoch reclaimer on 2 workers: a scheduler or store change moves this workload alone",
		passesPerSample: 1,
		workers:         2,
		opts:            iotsan.Options{MaxEvents: 5, NoDepGraph: true, Strategy: iotsan.StrategySteal, Workers: 2},
		systems:         table8Systems,
	},
	{
		name:            "table8_tiered_wal",
		why:             "the Table 8 state graph with a 64 KiB hot tier spilling to disk plus the write-ahead log: the writes-beside-reads case, absent from table8_dfs",
		passesPerSample: 1,
		workers:         1,
		opts: iotsan.Options{MaxEvents: 5, NoDepGraph: true,
			Store: iotsan.StoreTiered, MemBudget: 64 << 10, Checkpoint: true},
		tempStore: true,
		systems:   table8Systems,
	},
	{
		name:            "symfleet_reduced",
		why:             "interchangeable-device fleet, concurrent design, POR plus symmetry (26907 states folded from 1072113): the only workload running pending dispatch, Reduce and the canonical-fold digest",
		passesPerSample: 10,
		workers:         1,
		opts: iotsan.Options{MaxEvents: 3, Design: iotsan.Concurrent,
			POR: true, Symmetry: true, NoDepGraph: true},
		systems: symfleetSystems,

		interpreterOracle: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func newSystem(name string, sources []corpus.Source) (system, error) {
	// ExpertConfig binds inputs, so it needs the apps translated once;
	// Analyze still receives the raw sources and translates them again
	// on every pass.
	apps, err := experiments.TranslateAll(sources)
	if err != nil {
		return system{}, err
	}
	s := system{
		sys:     experiments.ExpertConfig(name, sources, apps),
		sources: make(map[string]string, len(sources)),
	}
	for _, src := range sources {
		s.sources[src.Name] = src.Groovy
	}
	return s, nil
}

// marketSystems is the paper's random six-way split of the 150 market
// apps (§10.1), one 25-app system per group.
func marketSystems(split int64) ([]system, error) {
	var out []system
	for i, group := range experiments.RandomGroups(split) {
		s, err := newSystem(fmt.Sprintf("market-%d", i+1), group)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// table8Systems is the five-app system of experiments.RunTable8.
func table8Systems(int64) ([]system, error) {
	var sources []corpus.Source
	for _, name := range []string{"Good Night", "It's Too Cold", "Light Follows Me",
		"Darken Behind Me", "Lights Out at Night"} {
		src, ok := corpus.ByName(name)
		if !ok {
			return nil, fmt.Errorf("corpus has no app %q", name)
		}
		sources = append(sources, src)
	}
	s, err := newSystem("table8", sources)
	if err != nil {
		return nil, err
	}
	return []system{s}, nil
}

func symfleetSystems(int64) ([]system, error) {
	sys, _, err := experiments.SymmetrySystem("symfleet")
	if err != nil {
		return nil, err
	}
	s := system{sys: sys, sources: map[string]string{}}
	for _, src := range corpus.SymmetryGroup() {
		s.sources[src.Name] = src.Groovy
	}
	return []system{s}, nil
}
