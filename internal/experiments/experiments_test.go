package experiments

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"iotsan"
)

// The engine configuration handed to an experiment must reach the
// checker: a tiered store given to RunTable8 leaves its tier files
// under the store directory and explores the in-memory state count.
func TestTable8HonoursStoreOptions(t *testing.T) {
	const stateCap = 400_000
	mem, err := RunTable8(iotsan.Options{}, []int{3}, stateCap)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tiered, err := RunTable8(iotsan.Options{Store: iotsan.StoreTiered, StoreDir: dir, MemBudget: 64 << 10}, []int{3}, stateCap)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "group-000")); err != nil || !fi.IsDir() {
		t.Errorf("tiered run left no %s/group-000 directory (err=%v): store options did not reach the engine", dir, err)
	}
	if tiered[0].States != mem[0].States || tiered[0].Truncated != mem[0].Truncated {
		t.Errorf("tiered run: states=%d truncated=%v, in-memory run: states=%d truncated=%v",
			tiered[0].States, tiered[0].Truncated, mem[0].States, mem[0].Truncated)
	}
}

// An experiment defaults the per-set limits only when the caller left
// them unset: a caller's state cap or deadline is the one that stops
// the search, and without one the experiment's own applies.
func TestExperimentsHonourCallerLimits(t *testing.T) {
	var opts iotsan.Options
	defaultLimits(&opts, 60000, 10*time.Second)
	if opts.MaxStatesPerSet != 60000 || opts.Deadline != 10*time.Second {
		t.Errorf("unset limits defaulted to %d states / %v, want the experiment's 60000 / 10s", opts.MaxStatesPerSet, opts.Deadline)
	}
	opts = iotsan.Options{MaxStatesPerSet: 7, Deadline: 10 * time.Minute}
	defaultLimits(&opts, 60000, 10*time.Second)
	if opts.MaxStatesPerSet != 7 || opts.Deadline != 10*time.Minute {
		t.Errorf("set limits overwritten with %d states / %v", opts.MaxStatesPerSet, opts.Deadline)
	}

	// Through to the checker, on Table 8 at 3 events.
	run := func(opts iotsan.Options, stateCap int) Table8Row {
		t.Helper()
		rows, err := RunTable8(opts, []int{3}, stateCap)
		if err != nil {
			t.Fatal(err)
		}
		return rows[0]
	}
	full := run(iotsan.Options{}, 400_000)
	if full.Truncated || full.States < 1000 {
		t.Fatalf("the uncapped row explored %d states (truncated=%v): nothing for a cap to cut", full.States, full.Truncated)
	}
	if capped := run(iotsan.Options{MaxStatesPerSet: 200}, 400_000); !capped.Truncated || capped.States >= full.States/2 {
		t.Errorf("the caller's 200-state cap did not reach the checker: states=%d truncated=%v", capped.States, capped.Truncated)
	}
	if own := run(iotsan.Options{}, 200); !own.Truncated || own.States >= full.States/2 {
		t.Errorf("the experiment's own 200-state cap did not apply to unset options: states=%d truncated=%v", own.States, own.Truncated)
	}
	if late := run(iotsan.Options{Deadline: time.Nanosecond}, 400_000); !late.Truncated {
		t.Errorf("the caller's 1ns deadline did not reach the checker: states=%d", late.States)
	}
}

// TestDeadlineOvershoot: the engine reads the clock on one limit check
// in 256, so a 50 ms deadline on the Table 8 system at 5 events (several
// hundred ms of search) must still stop the search within 10 ms of it.
// Load on the machine can only lengthen an overshoot, so the best of
// three runs is what the bound is held against.
func TestDeadlineOvershoot(t *testing.T) {
	sys, apps, err := Table8System()
	if err != nil {
		t.Fatal(err)
	}
	const deadline, slack = 50 * time.Millisecond, 10 * time.Millisecond
	best := time.Hour
	for try := 0; try < 3 && best >= deadline+slack; try++ {
		rep, err := iotsan.AnalyzeTranslated(sys, apps, iotsan.Options{
			MaxEvents: 5, NoDepGraph: true, Deadline: deadline, MaxStatesPerSet: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		res := rep.Groups[0].Result
		if len(rep.Groups) != 1 || !res.Truncated {
			t.Fatalf("%d groups, truncated=%v after %v (%d states): the deadline did not stop the search",
				len(rep.Groups), res.Truncated, res.Elapsed, res.StatesExplored)
		}
		if res.Elapsed < deadline {
			t.Fatalf("search stopped at %v, before its %v deadline", res.Elapsed, deadline)
		}
		best = min(best, res.Elapsed)
	}
	if best >= deadline+slack {
		t.Errorf("a %v deadline stopped the search only after %v (best of 3), want < %v", deadline, best, deadline+slack)
	}
}
