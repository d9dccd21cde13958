package main

import "encoding/json"

// A metric is one named number the benchmark reports. End-to-end metrics
// carry the regression bound. Layer metrics say whether the number is a
// count that must repeat exactly between runs of one commit; README.md
// has the table of which end-to-end metric each layer should move.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
	exact  bool
}

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds): the timed budget, shared by the run's child processes.
const runSeconds = 6

// The bounds are set from the run-to-run spread measured in the sandbox
// the benchmark was defined in (benchmark/README.md), not from what one
// would like to detect: passes of one binary differ by about a tenth
// there.
var endToEnd = []metric{
	{name: "verdict_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

var perLayer = []metric{
	{name: "groovy.lex_s", unit: "s", better: "lower"},
	{name: "groovy.parse_s", unit: "s", better: "lower"},
	{name: "groovy.source_kb", unit: "KB", better: "lower", exact: true},
	{name: "groovy.tokens", unit: "count", better: "lower", exact: true},
	{name: "groovy.parse_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "smartapp.translate_s", unit: "s", better: "lower"},
	{name: "smartapp.handlers_s", unit: "s", better: "lower"},
	{name: "smartapp.apps", unit: "count", better: "lower", exact: true},
	{name: "smartapp.handlers", unit: "count", better: "lower", exact: true},
	{name: "typeinfer.infer_s", unit: "s", better: "lower"},
	{name: "depgraph.build_s", unit: "s", better: "lower"},
	{name: "depgraph.related_sets", unit: "count", better: "lower", exact: true},
	{name: "depgraph.scale_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "props.compile_s", unit: "s", better: "lower"},
	{name: "props.invariants", unit: "count", better: "lower", exact: true},
	{name: "model.build_s", unit: "s", better: "lower"},
	{name: "model.build_calls", unit: "count", better: "lower", exact: true},
	{name: "model.expand_s", unit: "s", better: "lower"},
	{name: "model.expand_calls", unit: "count", better: "lower", exact: true},
	{name: "model.transitions", unit: "count", better: "lower", exact: true},
	{name: "model.inspect_s", unit: "s", better: "lower"},
	{name: "model.inspect_calls", unit: "count", better: "lower", exact: true},
	{name: "model.digest_s", unit: "s", better: "lower"},
	{name: "model.digest_calls", unit: "count", better: "lower", exact: true},
	{name: "model.recycle_s", unit: "s", better: "lower"},
	{name: "model.reduce_s", unit: "s", better: "lower"},
	{name: "model.reduce_calls", unit: "count", better: "lower", exact: true},
	{name: "model.replay_s", unit: "s", better: "lower"},
	{name: "model.replay_calls", unit: "count", better: "lower", exact: true},
	{name: "model.delta_s", unit: "s", better: "lower"},
	{name: "checker.run_s", unit: "s", better: "lower"},
	{name: "checker.self_s", unit: "s", better: "lower"},
	{name: "checker.states_explored", unit: "count", better: "lower", exact: true},
	{name: "checker.states_matched", unit: "count", better: "lower", exact: true},
	{name: "checker.states_stored", unit: "count", better: "lower", exact: true},
	{name: "checker.new_state_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "checker.states_per_s", unit: "1/s", better: "higher"},
	{name: "checker.violations", unit: "count", better: "lower", exact: true},
	{name: "checker.por_pruned", unit: "count", better: "higher", exact: true},
	{name: "checker.store_spilled", unit: "count", better: "lower", exact: true},
	{name: "checker.store_disk_hits", unit: "count", better: "lower"},
	{name: "checker.store_filter_rejects", unit: "count", better: "higher"},
	{name: "checker.store_peak_resident", unit: "count", better: "lower"},
	{name: "checker.wal_bytes", unit: "bytes", better: "lower"},
	{name: "checker.wal_checkpoints", unit: "count", better: "lower", exact: true},
	{name: "iotsan.analyze_s", unit: "s", better: "lower"},
	{name: "iotsan.other_s", unit: "s", better: "lower"},
	{name: "iotsan.groups", unit: "count", better: "lower", exact: true},
	{name: "proc.alloc_mb", unit: "MB", better: "lower"},
	{name: "proc.allocs_per_state", unit: "count", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.cpu_s", unit: "s", better: "lower"},
	{name: "proc.trace_overhead", unit: "ratio", better: "lower"},
}

// manifest renders BENCHMARK.json from the tables above; bench_test.go
// holds the committed file to it.
func manifest() []byte {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricEntry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricEntry   `json:"end_to_end"`
		PerLayer   []metricEntry   `json:"per_layer"`
	}
	file.Command = []string{"bash", "benchmark/run.sh"}
	file.Paths = []string{"benchmark"}
	file.RunSeconds = runSeconds
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, workloadEntry{w.name, w.why})
	}
	for _, m := range endToEnd {
		file.EndToEnd = append(file.EndToEnd, metricEntry{m.name, m.unit, m.better, &m.bound})
	}
	for _, m := range perLayer {
		file.PerLayer = append(file.PerLayer, metricEntry{m.name, m.unit, m.better, nil})
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		panic(err) // only unmarshalable types fail, and there are none
	}
	return append(out, '\n')
}
