package checker

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// Tiered out-of-core visited store.
//
// Two tiers behind the one store interface, both keyed by h1, the first
// word of the engine's digest (engine.digest is the single funnel, so
// no tier ever sees a state, only fingerprints). Membership is exactly
// the hash-compact semantics of hashStore, so a tiered run explores the
// identical state graph. Both tiers use digestSet's layout:
//
//	hot   two digestSet generations on the heap, cur and old. A new
//	      fingerprint enters cur. When cur holds half the entry budget,
//	      old spills to disk and the two swap, so at most the budget is
//	      ever resident.
//	disk  a digestSet whose slot array is a memory-mapped file of
//	      8-byte h1 words, fronted by a heap filter the table owns: a
//	      blocked Bloom filter of one 64-bit word per 8 slots with all
//	      k=3 bits of a key in one word (Putze, Sanders & Singler, WEA
//	      2007). A filter negative proves the key is not on disk, so the
//	      common fresh-state lookup never touches the mapped file.
//
// The store serves the single-goroutine DFS alone (Options.Validate
// refuses it to steal), so a spill runs on the search's goroutine and
// nothing is locked. Before a spill the disk table grows to fit the
// whole generation; a failed grow leaves the generation hot and stops
// spilling, so every fingerprint stays in exactly one tier and the run
// continues in memory.
//
// The tier files are per-run scratch (recreated on open): crash
// durability lives entirely in the checkpoint WAL, which rebuilds the
// store from logged visit digests on resume.

// tieredEntryBytes is the MemBudget bytes one hot-tier entry is charged.
// A generation of half the budget sits in a power-of-two slot array at
// most 3/4 full, so the two generations' arrays take under 64/3 bytes
// an entry: 24 keeps them inside MemBudget.
const (
	tieredDefaultBytes = 64 << 20
	tieredEntryBytes   = 24
	tieredMinBudget    = 512
)

type tieredStore struct {
	cur, old digestSet
	half     int // entries in cur that trigger a spill; the budget is 2*half
	disk     *diskTable
	// stuck is set when the disk tier failed to grow: nothing more
	// spills, and the hot tier grows without bound.
	stuck bool

	hotHits, diskHits, filterRejects, peak int64
}

// newTieredStore opens the disk tier under dir (recreating its file —
// the tiers are scratch; the WAL is the durable artifact).
func newTieredStore(dir string, memBudget int64) (*tieredStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("checker: tiered store requires a store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checker: tiered store: %w", err)
	}
	if memBudget <= 0 {
		memBudget = tieredDefaultBytes
	}
	disk, err := newDiskTable(dir)
	if err != nil {
		return nil, err
	}
	budget := max(memBudget/tieredEntryBytes, tieredMinBudget)
	return &tieredStore{half: int(budget / 2), disk: disk}, nil
}

// seen implements the store contract: the hot generations, then the
// disk tier behind its filter, and a miss enters cur.
func (ts *tieredStore) seen(d digest) bool {
	k := d.h1
	if ts.cur.has(k) || ts.old.has(k) {
		ts.hotHits++
		return true
	}
	if !ts.disk.mayHave(k) {
		ts.filterRejects++
	} else if ts.disk.set.has(k) {
		ts.diskHits++
		return true
	}
	ts.cur.add(k)
	if ts.cur.n >= ts.half && !ts.stuck {
		ts.spill()
	}
	return false
}

// spill moves old to the disk tier and swaps the generations, leaving
// cur empty. When the disk table cannot grow to fit old, both
// generations stay hot.
func (ts *tieredStore) spill() {
	if ts.disk.reserve(ts.old.n) != nil {
		ts.stuck = true
		return
	}
	ts.peak = max(ts.peak, int64(ts.cur.n+ts.old.n))
	for _, k := range ts.old.slots {
		if k != 0 {
			ts.disk.add(k)
		}
	}
	if ts.old.zero {
		ts.disk.add(0)
	}
	clear(ts.old.slots)
	ts.old.n, ts.old.zero = 0, false
	ts.cur, ts.old = ts.old, ts.cur
}

// size counts the stored fingerprints; each is in exactly one tier.
func (ts *tieredStore) size() int { return ts.cur.n + ts.old.n + ts.disk.set.n }

// close releases the disk tier and returns the run's per-tier counters.
// size stays readable after it. Nothing leaves the disk tier, so its
// size is the spill count.
func (ts *tieredStore) close() StoreStats {
	ts.disk.close()
	return StoreStats{
		HotHits:       ts.hotHits,
		DiskHits:      ts.diskHits,
		FilterRejects: ts.filterRejects,
		StoredNew:     int64(ts.size()),
		Spilled:       int64(ts.disk.set.n),
		PeakResident:  max(ts.peak, int64(ts.cur.n+ts.old.n)),
	}
}

// mix64 avalanches h1 into the word the filter's index and bits come
// from. Pure word mixing of an already-funnelled digest — no state
// bytes are hashed here, so the single-funnel property (digestfunnel)
// holds by construction.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// diskTableMinSlots is the disk tier's first capacity (32 KB of file).
const diskTableMinSlots = 1 << 12

// diskTable is the bottom tier: a digestSet over a mapped file of h1
// words (the zero key is set's flag), and the filter over its keys.
// Records are never deleted. Only reserve grows the table, into a new
// file of the next generation; add never grows it.
type diskTable struct {
	dir    string
	gen    int
	mf     *mappedFile
	set    digestSet // slots is mf.words
	filter []uint64  // one word per 8 slots
	fshift uint8     // 64 - log2(len(filter))
}

func newDiskTable(dir string) (*diskTable, error) {
	dt := &diskTable{dir: dir, gen: -1}
	if err := dt.remap(diskTableMinSlots); err != nil {
		return nil, err
	}
	return dt, nil
}

// remap moves the table into a new file of size slots and rebuilds the
// filter from its records; on failure the table is unchanged.
func (dt *diskTable) remap(size int) error {
	mf, err := openMapped(filepath.Join(dt.dir, fmt.Sprintf("disk-%d.tbl", dt.gen+1)), size*8)
	if err != nil {
		return fmt.Errorf("checker: tiered store disk tier: %w", err)
	}
	old := dt.mf
	dt.set.rehash(mf.words)
	dt.mf = mf
	dt.gen++
	dt.filter = make([]uint64, size/8)
	dt.fshift = dt.set.shift + 3
	for _, k := range dt.set.slots {
		if k != 0 {
			dt.mark(k)
		}
	}
	if dt.set.zero {
		dt.mark(0)
	}
	if old != nil {
		old.close()
		os.Remove(old.path)
	}
	return nil
}

// reserve grows the table, if need be, so extra more keys fit under
// its load bound.
func (dt *diskTable) reserve(extra int) error {
	size := len(dt.set.slots)
	for dt.set.n+extra > size-size/4 {
		size *= 2
	}
	if size == len(dt.set.slots) {
		return nil
	}
	return dt.remap(size)
}

// add inserts k; the caller has made room for it.
func (dt *diskTable) add(k uint64) {
	if !dt.set.add(k) {
		dt.mark(k)
	}
}

// filterWord returns k's filter word and the mask of its three bits.
func (dt *diskTable) filterWord(k uint64) (*uint64, uint64) {
	m := mix64(k)
	return &dt.filter[m>>dt.fshift], 1<<(m&63) | 1<<(m>>6&63) | 1<<(m>>12&63)
}

func (dt *diskTable) mark(k uint64) {
	w, bits := dt.filterWord(k)
	*w |= bits
}

// mayHave is the filter test: false proves k is not on disk.
func (dt *diskTable) mayHave(k uint64) bool {
	w, bits := dt.filterWord(k)
	return *w&bits == bits
}

func (dt *diskTable) close() { dt.mf.close() }

// mappedFile is a file-backed []uint64: memory-mapped where the
// platform supports it (mmap_unix.go), a heap buffer written back on
// close elsewhere (mmap_fallback.go). The words view is little-endian
// on disk in the fallback; the mmap path inherits native order, which
// is fine — tier files are per-run scratch, never moved across hosts.
type mappedFile struct {
	f     *os.File
	path  string
	words []uint64
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
