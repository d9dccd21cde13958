package checker

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// newTestTiered opens a tiered store in a test temp dir with a byte
// budget small enough that the entry budget bottoms out at the
// tieredMinBudget floor — any workload past 512 distinct fingerprints
// spills to the disk tier.
func newTestTiered(t *testing.T) *tieredStore {
	t.Helper()
	ts, err := newTieredStore(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestTieredStoreExact: the tiered store keeps the exact hash-compact
// contract of the in-memory stores — first seen of an h1 is false,
// every later seen is true, and size() counts each fingerprint once —
// across enough distinct fingerprints that most of them spill to the
// disk tier mid-run.
func TestTieredStoreExact(t *testing.T) {
	ts := newTestTiered(t)
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	digests := make([]digest, n)
	for i := range digests {
		digests[i] = digest{h1: rng.Uint64(), h2: rng.Uint64()}
	}
	// Interleave fresh inserts with probes of older (possibly spilled)
	// fingerprints.
	for i, d := range digests {
		if ts.seen(d) {
			t.Fatalf("insert %d: fresh digest reported seen", i)
		}
		if !ts.seen(d) {
			t.Fatalf("insert %d: digest lost immediately after insert", i)
		}
		if i > 0 {
			if old := digests[rng.Intn(i)]; !ts.seen(old) {
				t.Fatalf("insert %d: earlier digest lost (spill visibility)", i)
			}
		}
		if got := ts.size(); got != i+1 {
			t.Fatalf("insert %d: size() = %d, want %d", i, got, i+1)
		}
	}
	st := ts.close()
	if got := ts.size(); got != n {
		t.Errorf("size() after close = %d, want %d", got, n)
	}
	if st.StoredNew != n {
		t.Errorf("StoredNew = %d, want %d", st.StoredNew, n)
	}
	if st.Spilled == 0 {
		t.Error("no fingerprints spilled — the budget floor never engaged and the test is vacuous")
	}
	if st.PeakResident > tieredMinBudget {
		t.Errorf("peak resident %d exceeds the budget floor %d", st.PeakResident, tieredMinBudget)
	}
}

// TestTieredStoreH1Compact: membership is keyed on h1 alone, exactly
// like hashStore — a second digest with the same h1 and a different h2
// is a hit, in the hot tier and in the disk tier.
func TestTieredStoreH1Compact(t *testing.T) {
	ts := newTestTiered(t)
	defer ts.close()
	if ts.seen(digest{h1: 42, h2: 1}) {
		t.Fatal("fresh digest seen")
	}
	if !ts.seen(digest{h1: 42, h2: 99}) {
		t.Fatal("same-h1 digest not seen (hash-compact contract broken)")
	}
	for i := uint64(1); i <= 4*tieredMinBudget; i++ {
		ts.seen(digest{h1: 1000 + i})
	}
	if !ts.disk.set.has(42) {
		t.Fatal("h1 42 never spilled — the test is vacuous")
	}
	if !ts.seen(digest{h1: 42, h2: 7}) {
		t.Fatal("same-h1 digest not seen in the disk tier")
	}
}

// TestTieredStoreDeterministic: the store runs on the caller's
// goroutine alone, so one digest stream gives the same counters every
// time; the hot tier peaks at exactly its entry budget, and its two
// generations' slot arrays never take more than MemBudget bytes (or the
// 512-entry floor's share of them).
func TestTieredStoreDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stream := make([]digest, 1, 160_000) // the zero digest first, so it spills
	for len(stream) < cap(stream) {
		if len(stream) > 0 && rng.Intn(3) == 0 {
			stream = append(stream, stream[rng.Intn(len(stream))])
		} else {
			stream = append(stream, digest{h1: rng.Uint64(), h2: rng.Uint64()})
		}
	}
	stream = append(stream, digest{})
	for _, memBudget := range []int64{1, tieredMinBudget * tieredEntryBytes, 64 << 10, 100_000, 1 << 20} {
		run := func() StoreStats {
			ts, err := newTieredStore(t.TempDir(), memBudget)
			if err != nil {
				t.Fatal(err)
			}
			limit := max(memBudget, tieredMinBudget*tieredEntryBytes)
			for i, d := range stream {
				ts.seen(d)
				if b := 8 * int64(len(ts.cur.slots)+len(ts.old.slots)); b > limit {
					t.Fatalf("MemBudget %d, digest %d: hot slot arrays take %d bytes, over %d", memBudget, i, b, limit)
				}
			}
			return ts.close()
		}
		first, second := run(), run()
		if first != second {
			t.Errorf("MemBudget %d: two runs of one stream differ:\n%+v\n%+v", memBudget, first, second)
		}
		budget := max(memBudget/tieredEntryBytes, tieredMinBudget) &^ 1
		if first.PeakResident != budget {
			t.Errorf("MemBudget %d: peak resident %d, want the entry budget %d", memBudget, first.PeakResident, budget)
		}
		if first.Spilled == 0 || first.DiskHits == 0 || first.FilterRejects == 0 {
			t.Errorf("MemBudget %d: a tier went unexercised: %+v", memBudget, first)
		}
	}
}

// TestDiskTableGrow: a table grown one reservation at a time, across
// several doublings into new files, keeps every record, its filter has
// no false negative after any grow, and only the live file remains.
func TestDiskTableGrow(t *testing.T) {
	dir := t.TempDir()
	dt, err := newDiskTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.close()
	const n = 8 * diskTableMinSlots
	rng := rand.New(rand.NewSource(3))
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = rng.Uint64()
		if err := dt.reserve(1); err != nil {
			t.Fatal(err)
		}
		dt.add(hs[i])
	}
	if dt.gen < 3 {
		t.Fatalf("table grew %d times; the test must cross several grows", dt.gen)
	}
	for i, h := range hs {
		if !dt.mayHave(h) {
			t.Fatalf("record %d: filter false negative after grow", i)
		}
		if !dt.set.has(h) {
			t.Fatalf("record %d lost after grow", i)
		}
	}
	if dt.set.n != n {
		t.Errorf("count = %d, want %d", dt.set.n, n)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "disk-*.tbl")); len(files) != 1 {
		t.Errorf("disk tier files after grow: %v, want only the live one", files)
	}
}

// TestDiskTableZeroDigest: the zero fingerprint (the empty-slot
// encoding) is a flag beside the table, and the filter covers it.
func TestDiskTableZeroDigest(t *testing.T) {
	dt, err := newDiskTable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dt.close()
	if dt.set.has(0) {
		t.Fatal("empty table claims zero digest")
	}
	dt.add(0)
	if !dt.mayHave(0) || !dt.set.has(0) {
		t.Fatal("zero digest lost")
	}
}

// TestStoreDirNotADirectory: when StoreDir is a regular file, neither
// the tiered store nor the checkpoint WAL can open, and Run reports the
// failure in Result.Err instead of panicking.
func TestStoreDirNotADirectory(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"tiered":     {Store: Tiered, StoreDir: file},
		"checkpoint": {Checkpoint: true, StoreDir: file},
	} {
		res := Run(&chainSys{bound: 3, bad: 99}, opts)
		if res.Err == nil {
			t.Errorf("%s: Run reported no error", name)
		}
		if res.StatesExplored != 0 {
			t.Errorf("%s: explored %d states without a store", name, res.StatesExplored)
		}
	}
}

// TestTieredChainEquivalence: a complete DFS over the chain system with
// the tiered store under heavy spill reports the identical
// explored/matched/stored counts and violation sets as the in-memory
// exhaustive store. The tiered store is DFS-only, so DFS is the one
// strategy case.
func TestTieredChainEquivalence(t *testing.T) {
	sys := &chainSys{bound: 13, bad: 24}
	t.Run(StrategyDFS.String(), func(t *testing.T) {
		base := Options{MaxDepth: 20, Strategy: StrategyDFS}
		mem := Run(sys, base)
		tiered := base
		tiered.Store = Tiered
		tiered.StoreDir = t.TempDir()
		tiered.MemBudget = 1
		tr := Run(sys, tiered)
		if mem.StatesExplored != tr.StatesExplored || mem.StatesMatched != tr.StatesMatched ||
			mem.StatesStored != tr.StatesStored {
			t.Errorf("state space diverges: tiered explored=%d matched=%d stored=%d / inmem explored=%d matched=%d stored=%d",
				tr.StatesExplored, tr.StatesMatched, tr.StatesStored,
				mem.StatesExplored, mem.StatesMatched, mem.StatesStored)
		}
		if mem.HasViolation("bad-value") != tr.HasViolation("bad-value") {
			t.Errorf("violations diverge: inmem=%v tiered=%v",
				mem.HasViolation("bad-value"), tr.HasViolation("bad-value"))
		}
		if tr.Store.StoredNew == 0 {
			t.Error("tiered store recorded no admissions — wiring broken")
		}
		if tr.Store.Spilled == 0 && tr.StatesStored > 2*tieredMinBudget {
			t.Errorf("no spill despite %d stored states vs %d-entry budget floor",
				tr.StatesStored, tieredMinBudget)
		}
		t.Logf("stored=%d spilled=%d peak=%d disk-hits=%d filter-rejects=%d",
			tr.Store.StoredNew, tr.Store.Spilled, tr.Store.PeakResident,
			tr.Store.DiskHits, tr.Store.FilterRejects)
	})
}

// initHookSys runs hook when the search asks for its initial state:
// after the engine opened its store, before the first seen.
type initHookSys struct {
	*chainSys
	hook func()
}

func (s initHookSys) Initial() State {
	s.hook()
	return s.chainSys.Initial()
}

// TestTieredSpillFailureDegrades: when the disk tier cannot grow (its
// directory replaced by a regular file once the store is open — not a
// permission change, which root ignores), the store stops spilling and
// keeps the generation hot. The search runs to exhaustion with the
// in-memory store's counts and verdict, Spilled stays where the first
// table filled, and every fingerprint is counted in exactly one tier.
func TestTieredSpillFailureDegrades(t *testing.T) {
	sys := &chainSys{bound: 16, bad: 24}
	base := Options{MaxDepth: 20}
	mem := Run(sys, base)

	dir := filepath.Join(t.TempDir(), "store")
	tiered := base
	tiered.Store, tiered.StoreDir, tiered.MemBudget = Tiered, dir, 1
	tr := Run(initHookSys{sys, func() {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}}, tiered)
	if tr.Err != nil {
		t.Fatalf("Run: %v", tr.Err)
	}
	if tr.StatesExplored != mem.StatesExplored || tr.StatesMatched != mem.StatesMatched ||
		tr.StatesStored != mem.StatesStored || !equalStrings(violationKeys(tr), violationKeys(mem)) {
		t.Errorf("degraded run diverges: explored=%d matched=%d stored=%d violations=%q / in-memory %d %d %d %q",
			tr.StatesExplored, tr.StatesMatched, tr.StatesStored, violationKeys(tr),
			mem.StatesExplored, mem.StatesMatched, mem.StatesStored, violationKeys(mem))
	}
	// The first table takes whole generations of half the budget until
	// the next one would pass its load bound; that grow fails.
	half := int64(tieredMinBudget / 2)
	limit := int64(diskTableMinSlots - diskTableMinSlots/4)
	if want := limit / half * half; tr.Store.Spilled != want {
		t.Errorf("Spilled = %d, want %d (frozen at the failed grow)", tr.Store.Spilled, want)
	}
	st := tr.Store
	if st.StoredNew != int64(tr.StatesStored) || st.Spilled+st.PeakResident != st.StoredNew {
		t.Errorf("tiers do not partition the fingerprints: stored=%d size=%d spilled=%d resident=%d",
			st.StoredNew, tr.StatesStored, st.Spilled, st.PeakResident)
	}
	if st.PeakResident <= 2*half {
		t.Errorf("peak resident %d: the search never outgrew the budget after the failure — vacuous", st.PeakResident)
	}
}
