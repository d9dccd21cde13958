package checker

import (
	"math/rand"
	"sync"
	"testing"
)

// newTestTiered opens a tiered store in a test temp dir with a byte
// budget small enough that the entry budget bottoms out at the
// tieredMinBudget floor — any workload past ~512 distinct fingerprints
// engages eviction and the write-behind spiller.
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
// every later seen is true — across enough distinct fingerprints that
// most of them spill to the disk tier mid-run.
func TestTieredStoreExact(t *testing.T) {
	ts := newTestTiered(t)
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	digests := make([]digest, n)
	for i := range digests {
		digests[i] = digest{h1: rng.Uint64(), h2: rng.Uint64()}
	}
	// Interleave fresh inserts with probes of older (possibly spilled)
	// fingerprints, so lookups race the spiller's hot-tier deletions.
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
	}
	// size() is exact only once the spiller has drained (a digest
	// mid-spill is briefly counted in both tiers), so check after close.
	st := ts.close()
	if got := ts.size(); got != n {
		t.Errorf("size() = %d, want %d", got, n)
	}
	if st.StoredNew != n {
		t.Errorf("StoredNew = %d, want %d", st.StoredNew, n)
	}
	if st.Spilled == 0 {
		t.Error("no fingerprints spilled — the budget floor never engaged and the test is vacuous")
	}
	// Overshoot above the budget is bounded by the spill queue: each
	// over-budget insert queues one eviction, so resident can lead the
	// write-behind spiller by at most the channel capacity (plus the
	// entry in the spiller's hand).
	if limit := int64(tieredMinBudget + cap(ts.spillCh) + 8); st.PeakResident > limit {
		t.Errorf("peak resident %d exceeds budget floor + spill queue bound %d", st.PeakResident, limit)
	}
}

// TestTieredStoreH1Compact: membership is keyed on h1 alone, exactly
// like hashStore — a second digest with the same h1 and a different h2
// is a hit (recorded as an H1 collision once it compares against the
// disk tier's record).
func TestTieredStoreH1Compact(t *testing.T) {
	ts := newTestTiered(t)
	if ts.seen(digest{h1: 42, h2: 1}) {
		t.Fatal("fresh digest seen")
	}
	if !ts.seen(digest{h1: 42, h2: 99}) {
		t.Fatal("same-h1 digest not seen (hash-compact contract broken)")
	}
	ts.close()
}

// TestTieredStoreConcurrent: many goroutines inserting overlapping
// fingerprint sets must admit each distinct h1 exactly once in total —
// the shard-lock/spiller ordering may move entries between tiers but
// can never double-admit or lose one. Run under -race in CI.
func TestTieredStoreConcurrent(t *testing.T) {
	ts := newTestTiered(t)
	const workers = 8
	const n = 4000
	digests := make([]digest, n)
	rng := rand.New(rand.NewSource(7))
	for i := range digests {
		digests[i] = digest{h1: rng.Uint64(), h2: rng.Uint64()}
	}
	var wg sync.WaitGroup
	fresh := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for _, i := range r.Perm(n) {
				if !ts.seen(digests[i]) {
					fresh[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, f := range fresh {
		total += f
	}
	if total != n {
		t.Errorf("distinct admissions = %d, want %d", total, n)
	}
	st := ts.close() // drain the spiller so size() is exact
	if got := ts.size(); got != n {
		t.Errorf("size() = %d, want %d", got, n)
	}
	if st.Spilled == 0 {
		t.Error("no spill under concurrent pressure — vacuous")
	}
}

// TestDiskTableGrow: inserts past the 60% load factor rebuild into a
// doubled file without losing records.
func TestDiskTableGrow(t *testing.T) {
	dt, err := newDiskTable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dt.close()
	const n = (1 << diskTableInitLog) // forces at least one grow
	rng := rand.New(rand.NewSource(3))
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = rng.Uint64()
		if err := dt.insert(hs[i], hs[i]*3); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range hs {
		h2, ok := dt.lookup(h)
		if !ok || h2 != h*3 {
			t.Fatalf("record %d lost after grow (ok=%v h2=%d)", i, ok, h2)
		}
	}
	if dt.count() != n {
		t.Errorf("count = %d, want %d", dt.count(), n)
	}
}

// TestDiskTableZeroDigest: the all-zero record encoding (empty slot)
// has an out-of-band existence flag.
func TestDiskTableZeroDigest(t *testing.T) {
	dt, err := newDiskTable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dt.close()
	if _, ok := dt.lookup(0); ok {
		t.Fatal("empty table claims zero digest")
	}
	if err := dt.insert(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := dt.lookup(0); !ok {
		t.Fatal("zero digest lost")
	}
}

// TestTieredChainEquivalence: complete searches over the chain system
// with the tiered store under heavy spill report the identical
// explored/matched/stored counts and violation sets as the in-memory
// exhaustive store, for every strategy.
func TestTieredChainEquivalence(t *testing.T) {
	sys := &chainSys{bound: 13, bad: 24}
	for _, strat := range []StrategyKind{StrategyDFS, StrategySteal} {
		t.Run(strat.String(), func(t *testing.T) {
			base := Options{MaxDepth: 20, Strategy: strat, Workers: 2}
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
}
