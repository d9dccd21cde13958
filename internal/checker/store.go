package checker

import "math/bits"

// digest is the 128-bit fingerprint of an encoded state vector: two
// independent 64-bit hashes. h1 keys the exhaustive stores and the
// link table; bitstate probes are derived from both by double
// hashing, so the k probe positions are pairwise independent instead of
// all being unfolded from a single 64-bit value.
//
// Both hashes are deterministic functions of the state vector (FNV-1a
// and an independent multiplicative-xor hash) rather than seeded
// hash/maphash: a model checker's runs must be reproducible — a
// bitstate run that pruned a violation behind a hash collision has to
// prune the same states when rerun — and the exhaustive exploration
// stays byte-for-byte identical across invocations.
type digest struct{ h1, h2 uint64 }

// fnv1a is the primary state-vector hash (the same function the
// original sequential checker used, keeping exploration identical).
// Raw hash primitive: every call outside engine.digest bypasses the
// single digest funnel and is rejected by the digestfunnel analyzer.
//
//iotsan:hash-sink
func fnv1a(data []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// hash2 is the second, independent hash for bitstate double hashing: a
// multiplicative-xor pass with a different odd multiplier (so it is not
// an affine transform of fnv1a — FNV with a different offset basis
// would be), finalized with splitmix64 for avalanche.
//
//iotsan:hash-sink
func hash2(data []byte) uint64 {
	const mult = 0x9e3779b97f4a7c15 // 2^64/φ, odd
	h := uint64(0x2545f4914f6cdd1d)
	for _, b := range data {
		h = (h ^ uint64(b)) * mult
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// store is the visited-state set abstraction. seen inserts the state
// fingerprint, reporting whether it was already present; size returns
// the number of stored entries (approximate for bitstate).
//
// Four implementations, each with the workload it is there for:
// linkTable (the frontier strategy's only store, fused with its depths
// and expansion claims: table8_steal2) and, for the single-goroutine
// DFS, hashStore (exhaustive: table8_dfs, market_t5), tieredStore
// (out-of-core exhaustive: table8_tiered_wal) and bitStore (-store
// bitstate, the paper's supertrace mode; no benchmark workload yet). linkTable alone
// is safe for concurrent use: the other three serve one goroutine, and
// tieredStore spills on it.
type store interface {
	seen(d digest) bool
	size() int
}

// newStore builds the visited store for a run: the link table for the
// frontier strategy, which runs on no other (Options.Validate), and the
// selected store for the DFS. Only the tiered store can fail: it
// returns the error of opening its files (missing StoreDir, I/O
// failure).
func newStore(opts Options) (store, error) {
	switch {
	case opts.Strategy == StrategySteal:
		return &linkTable{}, nil
	case opts.Store == Bitstate:
		return newBitStore(opts.bitstateBits), nil
	case opts.Store == Tiered:
		ts, err := newTieredStore(opts.StoreDir, opts.MemBudget)
		if err != nil {
			return nil, err
		}
		return ts, nil
	}
	return &hashStore{set: opts.Tables.take()}, nil
}

// Tables hands a finished search's visited table to the next search run
// with the same Tables: the iotsan group scheduler gives each of its
// workers one, so a related set after a worker's first starts its DFS
// table at the size the last one reached, cleared, instead of doubling
// up from empty. Only the exhaustive DFS store takes and keeps a table.
// A Tables serves one search at a time; the zero value holds nothing.
type Tables struct{ slots []uint64 }

// maxKeptSlots bounds the table a Tables keeps: 8,192 slots, 64 KiB,
// the table of a search of up to 6,144 states. A kept table is live
// between searches and in a smaller search that inherits it, and the
// collector's heap goal doubles what is live: on a 2-vCPU VM, keeping
// 256 KiB tables cost market_t5 about 5 % in peak RSS, 64 KiB ones
// about 3 %.
const maxKeptSlots = 1 << 13

// take returns an empty set over the kept table, cleared, or the zero
// set when nothing is kept.
func (t *Tables) take() digestSet {
	var set digestSet
	if t != nil && t.slots != nil {
		clear(t.slots)
		set.rehash(t.slots)
		t.slots = nil
	}
	return set
}

// Len returns the slots of the table t holds: 0 when it holds none.
func (t *Tables) Len() int { return len(t.slots) }

// keep takes st's table for the next search when st is the DFS hash
// store and the table is at most maxKeptSlots.
func (t *Tables) keep(st store) {
	if hs, ok := st.(*hashStore); ok && t != nil && len(hs.set.slots) <= maxKeptSlots {
		t.slots = hs.set.slots
	}
}

// digestSet is the flat visited table behind hashStore (the link
// table's shards share its layout): an open-addressed, linear-probe set
// of 64-bit fingerprints in one []uint64. A zero slot is empty, so the zero fingerprint lives in
// a flag beside the table. The table doubles whenever the next insert
// could push it past 75 % load, which bounds every probe sequence. The
// zero value is an empty set that allocates on its first insert; the
// DFS store of a search run with Tables starts over the cleared table
// of the search before it instead (Tables.take), and allocates only
// when it outgrows that.
//
// Fingerprints arrive already mixed, but the link table has spent
// their top bits on shard selection and nothing promises the low bits
// of an arbitrary System's encoding hash; a slot index is therefore the
// top bits of a Fibonacci multiply of the whole word (plain word
// mixing — the state hash stays engine.digest's).
type digestSet struct {
	slots []uint64 // power-of-two length; 0 = empty slot
	n     int      // keys stored, the zero key included
	limit int      // n at which the next insert doubles the table (3/4 of len(slots))
	shift uint8    // 64 - log2(len(slots))
	zero  bool     // the zero key is a member
}

const (
	digestSetMinSlots = 8
	slotMix           = 0x9e3779b97f4a7c15 // 2^64/φ, odd
)

// find walks k's probe sequence to the slot that holds k or, failing
// that, the empty slot where k belongs. k is non-zero and the table
// allocated; the load bound guarantees an empty slot exists.
func (t *digestSet) find(k uint64) (i uint64, found bool) {
	mask := uint64(len(t.slots) - 1)
	for i = k * slotMix >> t.shift; ; i = (i + 1) & mask {
		switch t.slots[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// add inserts k, reporting whether it was already a member.
func (t *digestSet) add(k uint64) bool {
	if k == 0 {
		was := t.zero
		if !was {
			t.zero = true
			t.n++
		}
		return was
	}
	if t.n >= t.limit {
		t.grow()
	}
	i, found := t.find(k)
	if !found {
		t.slots[i] = k
		t.n++
	}
	return found
}

// has reports whether k is a member of the set without inserting it.
func (t *digestSet) has(k uint64) bool {
	if k == 0 {
		return t.zero
	}
	if len(t.slots) == 0 {
		return false
	}
	_, found := t.find(k)
	return found
}

// grow doubles the table (or allocates the first one); the old array is
// garbage as soon as it returns.
func (t *digestSet) grow() {
	t.rehash(make([]uint64, max(2*len(t.slots), digestSetMinSlots)))
}

// rehash moves every key into slots, a zeroed power-of-two array the
// keys fit in under the load bound. The tiered store's disk tier passes
// a mapped file here.
func (t *digestSet) rehash(slots []uint64) {
	old := t.slots
	t.slots = slots
	t.limit = len(slots) - len(slots)/4
	t.shift = uint8(64 - bits.TrailingZeros(uint(len(slots))))
	for _, k := range old {
		if k != 0 {
			i, _ := t.find(k)
			t.slots[i] = k
		}
	}
}

// hashStore is the exhaustive hash-compact store of the
// single-goroutine DFS: one digestSet, no lock — 8 bytes a slot, where
// the frontier strategy's linkTable pays a lock per probe and 12 bytes
// a slot for the depth and expansion claim the DFS keeps on its stack.
// The engine picks between the two from the strategy, not from an
// option.
type hashStore struct{ set digestSet }

func (s *hashStore) seen(d digest) bool { return s.set.add(d.h1) }
func (s *hashStore) size() int          { return s.set.n }

// bitstateK is the number of bits, one per hash function, a bitStore
// sets per state.
const bitstateK = 3

// probe returns the i-th bit position for a fingerprint by double
// hashing: pos_i = h1 + i*(h2|1). Forcing the stride odd keeps it
// coprime with the power-of-two table size, so the k probes are
// distinct and independent across the two hash functions.
func (d digest) probe(i int, mask uint64) uint64 {
	return (d.h1 + uint64(i)*(d.h2|1)) & mask
}

// bitStore is Spin's BITSTATE: bitstateK probes into a 2^bits bit
// array. A state is seen when all its bits were already set, so a state
// whose bits other states set is lost without being visited — the
// supertrace trade of completeness for memory.
type bitStore struct {
	bits  []uint64
	mask  uint64
	count int
}

// newBitStore allocates a 2^logBits bit array (0 = 2^26 bits, 8 MB;
// at least 2^10).
func newBitStore(logBits uint) *bitStore {
	if logBits == 0 {
		logBits = 26
	}
	n := uint64(1) << max(logBits, 10)
	return &bitStore{bits: make([]uint64, n/64), mask: n - 1}
}

func (s *bitStore) seen(d digest) bool {
	all := true
	for i := 0; i < bitstateK; i++ {
		pos := d.probe(i, s.mask)
		w, b := &s.bits[pos/64], uint64(1)<<(pos%64)
		if *w&b == 0 {
			*w |= b
			all = false
		}
	}
	if !all {
		s.count++
	}
	return all
}

func (s *bitStore) size() int { return s.count }
