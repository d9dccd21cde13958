// Command benchmark is the repository's benchmark: six workloads over
// iotsan.Analyze, timed end to end in child processes and traced layer
// by layer from the outside. README.md in this directory is the manual.
//
//	bash benchmark/run.sh                       every workload, results under benchmark/results/
//	bash benchmark/run.sh -workload W -trace 0  one driver run: a JSON object on the last line
//	bash benchmark/run.sh -compare OLD NEW      regression table between two result files
//	bash benchmark/run.sh -write-expected       regenerate benchmark/expected.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// setupChildren is how many child processes share one untraced run: each
// sets up from cold, so a run yields that many set-up times and peak
// memories, and the medians are reported.
const setupChildren = 3

func main() {
	var (
		workloadName  = flag.String("workload", "", "run this one workload and print the driver's JSON line (default: run all, write a result file)")
		split         = flag.Int64("split", 1, "which random six-way split of the market apps: experiments.RandomGroups(split)")
		seed          = flag.Int64("seed", 1, "orders the systems within a pass; every seed is the same work")
		seconds       = flag.Float64("seconds", runSeconds, "timed budget of one run, in seconds")
		trace         = flag.Int("trace", 0, "0: end-to-end metrics from untraced samples; 1: per-layer metrics from traced passes")
		dir           = flag.String("dir", defaultDir(), "the benchmark's own directory (results/ and expected.json live in it)")
		compare       = flag.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json")
		writeExpected = flag.Bool("write-expected", false, "regenerate expected.json after cross-checking the verdicts")
		printManifest = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
		isChild       = flag.Bool("child", false, "internal: measure one workload in this process")
		spawned       = flag.Int64("spawned", 0, "internal: when the parent started this child, Unix nanoseconds")
	)
	flag.Parse()
	results := filepath.Join(*dir, "results")
	budget := time.Duration(*seconds * float64(time.Second))
	in := inputs{split: *split, seed: *seed}

	var err error
	switch {
	case *printManifest:
		_, err = os.Stdout.Write(manifest())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare OLD.json NEW.json"))
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *writeExpected:
		err = writeExpectedFile(filepath.Join(*dir, "expected.json"), results)
	case *isChild:
		err = childMain(*workloadName, in, budget, *trace == 1, time.Unix(0, *spawned), results)
	case *workloadName != "":
		err = driverRun(*workloadName, in, budget, *trace == 1, results)
	default:
		err = runAll(in, budget, results)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// defaultDir finds the benchmark directory from either the repository
// root (run.sh) or the directory itself (go run .).
func defaultDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return "benchmark"
	}
	return "."
}

func childMain(name string, in inputs, budget time.Duration, traced bool, spawned time.Time, results string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	res, err := runChild(w, in, budget, traced, spawned, results)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawnChild measures one workload in a fresh process and waits for it.
func spawnChild(w workload, in inputs, budget time.Duration, traced bool, results string) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-child", "-workload", w.name,
		"-split", strconv.FormatInt(in.split, 10), "-seed", strconv.FormatInt(in.seed, 10),
		"-seconds", strconv.FormatFloat(budget.Seconds(), 'f', -1, 64),
		"-trace", traceArg, "-dir", filepath.Dir(results),
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child for %s: %w", w.name, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("child for %s: %w", w.name, err)
	}
	return &res, nil
}

// A workloadResult is one workload's section of a result file.
type workloadResult struct {
	Expected string             `json:"expected"`
	Passes   int                `json:"passes_attempted"`
	Wrong    int                `json:"wrong_verdicts"`
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// SharePct answers "where does a pass go": each part's share of the
	// traced pass, in percent (callback busy time divided by workers).
	SharePct map[string]float64 `json:"share_of_traced_pass_pct,omitempty"`
}

func (r *workloadResult) count(c *childResult) {
	r.Expected = c.Expected
	r.Passes += c.Passes
	r.Wrong += c.Wrong
}

// measureEndToEnd splits budget over setupChildren untraced children and
// summarizes their samples, set-up times and peak memories.
func measureEndToEnd(w workload, in inputs, budget time.Duration, results string) (*workloadResult, error) {
	r := &workloadResult{}
	var samples, setups, peaks []float64
	for i := 0; i < setupChildren; i++ {
		c, err := spawnChild(w, in, budget/setupChildren, false, results)
		if err != nil {
			return nil, err
		}
		r.count(c)
		samples = append(samples, c.SampleS...)
		setups = append(setups, c.SetupS)
		peaks = append(peaks, c.PeakRSSMB)
	}
	values := map[string][]float64{"verdict_s": samples, "peak_rss_mb": peaks, "setup_s": setups}
	r.EndToEnd = map[string]summary{}
	for _, m := range endToEnd {
		r.EndToEnd[m.name] = summarize(values[m.name], m.unit)
	}
	return r, nil
}

// measureLayers runs one traced child.
func measureLayers(w workload, in inputs, budget time.Duration, results string) (*workloadResult, error) {
	c, err := spawnChild(w, in, budget, true, results)
	if err != nil {
		return nil, err
	}
	r := &workloadResult{PerLayer: c.Layers, SharePct: sharePct(c.Layers, w.workers)}
	r.count(c)
	return r, nil
}

func sharePct(m map[string]float64, workers int) map[string]float64 {
	total, k := m["iotsan.analyze_s"], float64(workers)
	pct := func(seconds float64) float64 { return 100 * seconds / total }
	return map[string]float64{
		"front_end":    pct(m["groovy.lex_s"] + m["groovy.parse_s"] + m["typeinfer.infer_s"] + m["smartapp.translate_s"] + m["smartapp.handlers_s"] + m["depgraph.build_s"]),
		"model_build":  pct(m["props.compile_s"] + m["model.build_s"]),
		"expand":       pct(m["model.expand_s"] / k),
		"inspect":      pct(m["model.inspect_s"] / k),
		"digest":       pct(m["model.digest_s"] / k),
		"recycle":      pct(m["model.recycle_s"] / k),
		"reduce":       pct(m["model.reduce_s"] / k),
		"trail_replay": pct(m["model.replay_s"] / k),
		"delta_codec":  pct(m["model.delta_s"] / k),
		"checker_self": pct(m["checker.self_s"] / k),
		"other":        pct(m["iotsan.other_s"]),
	}
}

// driverRun is one run as the benchmark driver makes it: one workload,
// and on the last line of standard output one JSON object.
func driverRun(name string, in inputs, budget time.Duration, traced bool, results string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var r *workloadResult
	if traced {
		if r, err = measureLayers(w, in, budget, results); err != nil {
			return err
		}
		for _, m := range perLayer {
			metrics[m.name] = value{r.PerLayer[m.name], m.unit}
		}
	} else {
		if r, err = measureEndToEnd(w, in, budget, results); err != nil {
			return err
		}
		for _, m := range endToEnd {
			metrics[m.name] = value{r.EndToEnd[m.name].Median, m.unit}
		}
	}
	printWorkload(w, r)
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"correct": r.Wrong == 0, "attempted": r.Passes, "failed": r.Wrong, "metrics": metrics,
	})
}

// A resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Env       environment                `json:"env"`
	Split     int64                      `json:"split"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runAll measures every workload, untraced and then traced, prints every
// metric by name and writes the result file. Any wrong verdict fails it.
func runAll(in inputs, budget time.Duration, results string) error {
	file := resultFile{Env: pinProcs(), Split: in.split, Seed: in.seed, Seconds: budget.Seconds(), Workloads: map[string]*workloadResult{}}
	wrong := 0
	for _, w := range workloads {
		r, err := measureEndToEnd(w, in, budget, results)
		if err != nil {
			return err
		}
		traced, err := measureLayers(w, in, budget, results)
		if err != nil {
			return err
		}
		r.PerLayer, r.SharePct = traced.PerLayer, traced.SharePct
		r.Passes += traced.Passes
		r.Wrong += traced.Wrong
		printWorkload(w, r)
		file.Workloads[w.name] = r
		wrong += r.Wrong
	}
	path := filepath.Join(results, fmt.Sprintf("result-split%d.json", in.split))
	if err := writeJSON(path, file); err != nil {
		return err
	}
	fmt.Printf("nproc=%d GOMAXPROCS=%d %s commit=%s\nwrote %s and one trace-<workload>.json per workload\n",
		file.Env.NProc, file.Env.GOMAXPROCS, file.Env.Go, file.Env.Commit, path)
	if wrong > 0 {
		return fmt.Errorf("%d wrong verdicts", wrong)
	}
	return nil
}

func printWorkload(w workload, r *workloadResult) {
	fmt.Printf("== %s (checked against %s verdicts): wrong_verdicts = %d of %d passes_attempted\n",
		w.name, r.Expected, r.Wrong, r.Passes)
	if r.Expected == "self" {
		fmt.Println("   expected.json has no entry for this split: passes were checked for agreeing with the first pass only")
	}
	for _, m := range endToEnd {
		if s, ok := r.EndToEnd[m.name]; ok {
			fmt.Printf("   %-30s %12.4f %-6s n=%d q1=%.4f q3=%.4f min=%.4f max=%.4f\n",
				m.name, s.Median, m.unit, s.N, s.Q1, s.Q3, s.Min, s.Max)
		}
	}
	if r.PerLayer == nil {
		return
	}
	for _, m := range perLayer {
		fmt.Printf("   %-30s %12.4f %s\n", m.name, r.PerLayer[m.name], m.unit)
	}
	parts := make([]string, 0, len(r.SharePct))
	for part := range r.SharePct {
		parts = append(parts, part)
	}
	sort.Slice(parts, func(i, j int) bool { return r.SharePct[parts[i]] > r.SharePct[parts[j]] })
	fmt.Print("   share of the traced pass:")
	for _, part := range parts {
		fmt.Printf(" %s %.1f%%", part, r.SharePct[part])
	}
	fmt.Println()
}
