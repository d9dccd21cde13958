package checker

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Tiered out-of-core visited store.
//
// Three tiers behind the one store interface, all keyed by the engine's
// canonical 128-bit digest (engine.digest is the single funnel, so no
// tier ever sees a state — only fingerprints):
//
//	hot    lock-striped in-process shards (h1 → h2) bounded by
//	       Options.MemBudget; the working set of recent fingerprints.
//	filter a file-backed bit array whose k probe positions derive from
//	       h1 alone. A fingerprint's bits are set when it spills, so a
//	       filter negative proves the disk tier cannot contain it and
//	       the common fresh-state lookup never touches the disk table.
//	disk   an open-addressed hash-table file of 16-byte (h1, h2)
//	       records. Membership compares h1 only — exactly the
//	       hash-compact semantics of the in-memory exhaustive stores,
//	       so a tiered run explores the identical state graph; h2 is
//	       stored as a collision diagnostic (StoreStats.H1Collisions).
//
// Spill is write-behind: eviction candidates (budget-pressure FIFO per
// shard, plus digests the reclamation layer retires — see
// reclaimer.drain) queue to a single spiller goroutine that writes the
// disk record and filter bits first and only then deletes the hot
// entry. A fingerprint is therefore always findable in hot ∪ disk, and
// because every lookup checks the hot shard and the filter under the
// same shard lock the spiller deletes under, the spill of a digest can
// never race a concurrent seen of the same digest into a false "new".
//
// The tier files are per-run scratch (recreated on open): crash
// durability lives entirely in the checkpoint WAL, which rebuilds the
// store from logged visit digests on resume.

// tieredShards is the hot tier's lock-stripe count: enough that the
// frontier workers rarely contend, few enough that per-shard FIFO
// rings stay cheap.
const tieredShards = 64

// tieredShard is one hot-tier stripe: the fingerprint map plus a FIFO
// ring of insertion order for budget-pressure eviction (ring entries
// whose fingerprint already spilled are skipped lazily).
//
//iotsan:padded
type tieredShard struct {
	mu   sync.Mutex
	m    map[uint64]uint64 // h1 → h2
	ring []uint64          // h1 insertion order; head..len(ring) live
	head int
	// mutex(8) + map(8) + slice(24) + int(8) = 48; pad to a cache line
	// so neighbouring shards' hot mutexes never false-share.
	_ [16]byte
}

// tieredBudgetDefault is the hot-tier entry budget when MemBudget is
// unset; tieredEntryBytes the approximate resident cost of one hot
// entry (map bucket share + ring slot).
const (
	tieredBudgetDefault = 1 << 20
	tieredEntryBytes    = 64
	tieredMinBudget     = 512
)

type tieredStore struct {
	shards [tieredShards]tieredShard
	budget int64 // max hot-tier entries
	filter *bitFilter
	disk   *diskTable

	resident atomic.Int64
	peak     atomic.Int64
	// evictCursor round-robins budget-pressure eviction over shards so
	// no one stripe is drained preferentially.
	evictCursor atomic.Uint64

	spillCh chan digest
	spillWG sync.WaitGroup

	hotHits   atomic.Int64
	diskHits  atomic.Int64
	filterNeg atomic.Int64
	stored    atomic.Int64
	spilled   atomic.Int64
	h1Collide atomic.Int64
}

// newTieredStore opens the tier files under dir (recreating them — the
// tiers are scratch; the WAL is the durable artifact) and starts the
// write-behind spiller.
func newTieredStore(dir string, memBudget int64) (*tieredStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("checker: tiered store requires a store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checker: tiered store: %w", err)
	}
	budget := int64(tieredBudgetDefault)
	if memBudget > 0 {
		budget = memBudget / tieredEntryBytes
		if budget < tieredMinBudget {
			budget = tieredMinBudget
		}
	}
	filter, err := newBitFilter(filepath.Join(dir, "filter.bits"))
	if err != nil {
		return nil, err
	}
	disk, err := newDiskTable(dir)
	if err != nil {
		filter.close()
		return nil, err
	}
	ts := &tieredStore{budget: budget, filter: filter, disk: disk,
		spillCh: make(chan digest, 4096)}
	for i := range ts.shards {
		ts.shards[i].m = make(map[uint64]uint64)
	}
	ts.spillWG.Add(1)
	go ts.spiller()
	return ts, nil
}

// seen implements the store contract with hash-compact semantics
// identical to hashStore and linkTable: membership is keyed on h1.
// The whole decision runs under one shard lock; the spiller sets the
// filter bit and the disk record before deleting a hot entry (also
// under this lock), so a digest mid-spill is found in whichever tier
// currently holds it.
func (ts *tieredStore) seen(d digest) bool {
	sh := &ts.shards[d.h1>>58&(tieredShards-1)]
	sh.mu.Lock()
	if _, ok := sh.m[d.h1]; ok {
		sh.mu.Unlock()
		ts.hotHits.Add(1)
		return true
	}
	if ts.filter.maybeContains(d.h1) {
		if h2, ok := ts.disk.lookup(d.h1); ok {
			sh.mu.Unlock()
			ts.diskHits.Add(1)
			if h2 != d.h2 {
				ts.h1Collide.Add(1)
			}
			return true
		}
	} else {
		ts.filterNeg.Add(1)
	}
	sh.m[d.h1] = d.h2
	sh.ring = append(sh.ring, d.h1)
	sh.mu.Unlock()
	ts.stored.Add(1)
	r := ts.resident.Add(1)
	for {
		p := ts.peak.Load()
		if r <= p || ts.peak.CompareAndSwap(p, r) {
			break
		}
	}
	if r > ts.budget {
		ts.evictOne()
	}
	return false
}

func (ts *tieredStore) peek(d digest) bool {
	sh := &ts.shards[d.h1>>58&(tieredShards-1)]
	sh.mu.Lock()
	if _, ok := sh.m[d.h1]; ok {
		sh.mu.Unlock()
		return true
	}
	if ts.filter.maybeContains(d.h1) {
		if _, ok := ts.disk.lookup(d.h1); ok {
			sh.mu.Unlock()
			return true
		}
	}
	sh.mu.Unlock()
	return false
}

// size counts distinct stored fingerprints across the hot and disk
// tiers. A digest mid-spill is briefly counted in both (its disk
// record is written before its hot entry is deleted), so the count is
// exact only while the spiller is quiescent — the engine reads it
// after close has drained the spill queue.
func (ts *tieredStore) size() int {
	return int(ts.resident.Load() + ts.disk.count())
}

// evictOne picks the oldest hot entry of the next shard (round-robin)
// and queues it for spill. The entry stays visible in the hot tier
// until the spiller has made it durable in the disk tier.
func (ts *tieredStore) evictOne() {
	for tries := 0; tries < tieredShards; tries++ {
		sh := &ts.shards[ts.evictCursor.Add(1)&(tieredShards-1)]
		var d digest
		found := false
		sh.mu.Lock()
		for sh.head < len(sh.ring) {
			h1 := sh.ring[sh.head]
			sh.head++
			if sh.head == len(sh.ring) {
				sh.ring = sh.ring[:0]
				sh.head = 0
			}
			if h2, ok := sh.m[h1]; ok {
				d, found = digest{h1: h1, h2: h2}, true
				break
			}
		}
		sh.mu.Unlock()
		if found {
			ts.spillCh <- d
			return
		}
	}
}

// spillHint marks d a preferred eviction candidate: the reclamation
// layer calls it when the state behind d retires (proven cold —
// expanded and unreachable from any live worker), so under memory
// pressure eviction ordering follows epoch order. Below budget the
// hint is a no-op — nothing needs to leave memory.
func (ts *tieredStore) spillHint(d digest) {
	if ts.resident.Load() <= ts.budget {
		return
	}
	ts.spillCh <- d
}

// spiller is the single write-behind goroutine: for each queued digest
// still resident in the hot tier it writes the disk record, sets the
// filter bits, and only then deletes the hot entry (under the shard
// lock every lookup holds), preserving hot ∪ disk visibility at every
// instant.
func (ts *tieredStore) spiller() {
	defer ts.spillWG.Done()
	for d := range ts.spillCh {
		sh := &ts.shards[d.h1>>58&(tieredShards-1)]
		sh.mu.Lock()
		h2, ok := sh.m[d.h1]
		sh.mu.Unlock()
		if !ok {
			continue // already spilled (duplicate hint) or never stored
		}
		if err := ts.disk.insert(d.h1, h2); err != nil {
			// Disk-tier failure (out of space): keep the entry hot —
			// correctness is unaffected, the run just stops shrinking.
			continue
		}
		ts.filter.set(d.h1)
		sh.mu.Lock()
		delete(sh.m, d.h1)
		sh.mu.Unlock()
		ts.resident.Add(-1)
		ts.spilled.Add(1)
	}
}

// close stops the spiller, releases the tier files, and returns the
// run's per-tier counters. Callers must have quiesced every search
// goroutine first (the engine closes from finish, after the strategy
// returned).
func (ts *tieredStore) close() StoreStats {
	close(ts.spillCh)
	ts.spillWG.Wait()
	st := StoreStats{
		HotHits:       ts.hotHits.Load(),
		DiskHits:      ts.diskHits.Load(),
		FilterRejects: ts.filterNeg.Load(),
		StoredNew:     ts.stored.Load(),
		Spilled:       ts.spilled.Load(),
		H1Collisions:  ts.h1Collide.Load(),
		PeakResident:  ts.peak.Load(),
	}
	ts.filter.close()
	ts.disk.close()
	return st
}

// mix64 avalanches h1 into the independent second word the filter's
// double-hash probe stride needs. Pure word mixing of an
// already-funnelled digest — no state bytes are hashed here, so the
// single-funnel property (digestfunnel) is preserved by construction.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// filterLogBits sizes the filter at 2^27 bits = 16 MB — k=3 probes keep
// the false-positive rate under ~1% up to ~10M spilled fingerprints,
// and a false positive only costs one disk probe, never correctness.
const (
	filterLogBits = 27
	filterK       = 3
)

// bitFilter is the middle tier: a file-backed (mmap where available)
// bit array over the spilled fingerprints. Probes derive from h1 alone
// — the membership key — so the filter can never reject a fingerprint
// the disk tier holds.
type bitFilter struct {
	words []uint64
	mask  uint64
	mf    *mappedFile
}

func newBitFilter(path string) (*bitFilter, error) {
	n := uint64(1) << filterLogBits
	mf, err := openMapped(path, int(n/8))
	if err != nil {
		return nil, fmt.Errorf("checker: tiered store filter: %w", err)
	}
	return &bitFilter{words: mf.words, mask: n - 1, mf: mf}, nil
}

func (f *bitFilter) probe(h1 uint64, i int) uint64 {
	return (h1 + uint64(i)*(mix64(h1)|1)) & f.mask
}

func (f *bitFilter) maybeContains(h1 uint64) bool {
	for i := 0; i < filterK; i++ {
		pos := f.probe(h1, i)
		if atomic.LoadUint64(&f.words[pos/64])&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

func (f *bitFilter) set(h1 uint64) {
	for i := 0; i < filterK; i++ {
		pos := f.probe(h1, i)
		w, bit := &f.words[pos/64], uint64(1)<<(pos%64)
		// Load + CAS rather than atomic.OrUint64 — see
		// atomicBitStore.setBit for the miscompilation this sidesteps.
		for {
			old := atomic.LoadUint64(w)
			if old&bit != 0 || atomic.CompareAndSwapUint64(w, old, old|bit) {
				break
			}
		}
	}
}

func (f *bitFilter) close() { f.mf.close() }

// diskTable is the bottom tier: an open-addressed, linear-probed hash
// table file of 16-byte (h1, h2) little-endian records; a record of
// all zeroes is an empty slot (the one real digest colliding with that
// encoding is tracked out of band). Records are never deleted. Inserts
// come only from the spiller goroutine; lookups take the read lock, so
// growth (a rebuild into a doubled file) excludes them.
type diskTable struct {
	mu      sync.RWMutex
	dir     string
	gen     int
	mf      *mappedFile
	mask    uint64
	n       uint64
	hasZero bool
}

// diskTableInitLog is log2 of the initial record capacity (2^16 × 16 B
// = 1 MB); the table rebuilds at double size past 60% load.
const diskTableInitLog = 16

func newDiskTable(dir string) (*diskTable, error) {
	dt := &diskTable{dir: dir}
	if err := dt.open(diskTableInitLog); err != nil {
		return nil, err
	}
	return dt, nil
}

func (dt *diskTable) open(logCap int) error {
	cap := uint64(1) << logCap
	mf, err := openMapped(filepath.Join(dt.dir, fmt.Sprintf("disk-%d.tbl", dt.gen)), int(cap*16))
	if err != nil {
		return fmt.Errorf("checker: tiered store disk tier: %w", err)
	}
	dt.mf = mf
	dt.mask = cap - 1
	return nil
}

func (dt *diskTable) record(idx uint64) (h1, h2 uint64) {
	return dt.mf.words[idx*2], dt.mf.words[idx*2+1]
}

func (dt *diskTable) setRecord(idx, h1, h2 uint64) {
	dt.mf.words[idx*2], dt.mf.words[idx*2+1] = h1, h2
}

func (dt *diskTable) lookup(h1 uint64) (h2 uint64, ok bool) {
	dt.mu.RLock()
	defer dt.mu.RUnlock()
	if h1 == 0 && dt.hasZero {
		// The all-zero digest cannot be distinguished from an empty
		// slot in record form; its h2 is not retained.
		return 0, true
	}
	for idx := h1 & dt.mask; ; idx = (idx + 1) & dt.mask {
		r1, r2 := dt.record(idx)
		if r1 == 0 && r2 == 0 {
			return 0, false
		}
		if r1 == h1 {
			return r2, true
		}
	}
}

// insert adds (h1, h2) if absent. Spiller-goroutine only.
func (dt *diskTable) insert(h1, h2 uint64) error {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if h1 == 0 && h2 == 0 {
		dt.hasZero = true
		return nil
	}
	if dt.n*10 >= (dt.mask+1)*6 {
		if err := dt.grow(); err != nil {
			return err
		}
	}
	for idx := h1 & dt.mask; ; idx = (idx + 1) & dt.mask {
		r1, r2 := dt.record(idx)
		if r1 == 0 && r2 == 0 {
			dt.setRecord(idx, h1, h2)
			dt.n++
			return nil
		}
		if r1 == h1 {
			return nil
		}
	}
}

// grow rebuilds into a doubled file and removes the old generation.
// Caller holds the write lock.
func (dt *diskTable) grow() error {
	old, oldMask := dt.mf, dt.mask
	oldPath := old.path
	dt.gen++
	logCap := 1
	for c := (oldMask + 1) * 2; c > 1; c >>= 1 {
		logCap++
	}
	if err := dt.open(logCap - 1); err != nil {
		dt.mf, dt.mask = old, oldMask
		dt.gen--
		return err
	}
	for i := uint64(0); i <= oldMask; i++ {
		h1, h2 := old.words[i*2], old.words[i*2+1]
		if h1 == 0 && h2 == 0 {
			continue
		}
		for idx := h1 & dt.mask; ; idx = (idx + 1) & dt.mask {
			r1, r2 := dt.record(idx)
			if r1 == 0 && r2 == 0 {
				dt.setRecord(idx, h1, h2)
				break
			}
		}
	}
	old.close()
	os.Remove(oldPath)
	return nil
}

func (dt *diskTable) count() int64 {
	dt.mu.RLock()
	defer dt.mu.RUnlock()
	n := int64(dt.n)
	if dt.hasZero {
		n++
	}
	return n
}

func (dt *diskTable) close() {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.mf.close()
}

// mappedFile is a file-backed []uint64: memory-mapped where the
// platform supports it (mmap_unix.go), a heap buffer written back on
// close elsewhere (mmap_fallback.go). The words view is little-endian
// on disk in the fallback; the mmap path inherits native order, which
// is fine — tier files are per-run scratch, never moved across hosts.
type mappedFile struct {
	f     *os.File
	path  string
	words []uint64
	raw   []byte
	unmap func() error
	heap  bool
}

func openMapped(path string, size int) (*mappedFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		return nil, err
	}
	mf := &mappedFile{f: f, path: path}
	if data, unmap, err := mapFile(f, size); err == nil {
		mf.raw = data
		mf.unmap = unmap
		mf.words = bytesToWords(data)
		return mf, nil
	}
	// Portable fallback: heap-resident, flushed on close. Loses the
	// out-of-core property on platforms without mmap but keeps every
	// search semantically identical.
	mf.heap = true
	mf.words = make([]uint64, size/8)
	return mf, nil
}

func (mf *mappedFile) close() {
	if mf.heap {
		buf := make([]byte, len(mf.words)*8)
		for i, w := range mf.words {
			binary.LittleEndian.PutUint64(buf[i*8:], w)
		}
		mf.f.WriteAt(buf, 0)
	} else if mf.unmap != nil {
		mf.unmap()
	}
	mf.f.Close()
}
