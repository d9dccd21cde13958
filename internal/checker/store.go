package checker

import (
	"math/bits"
	"sync/atomic"
)

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
// fingerprint, reporting whether it was already present; peek looks a
// fingerprint up without inserting it (the partial-order reduction
// proviso probes candidate successors before committing to a reduced
// expansion); size returns the number of stored entries (approximate
// for bitstate).
//
// Four implementations, each with the workload it is there for:
// hashStore (single-goroutine exhaustive: table8_dfs, market_t5),
// linkTable (concurrent exhaustive, fused with the frontier strategy's
// parent links: table8_steal2), tieredStore (out-of-core exhaustive:
// table8_tiered_wal) and atomicBitStore (-store bitstate, the paper's
// supertrace mode; no benchmark workload yet). Only hashStore is unsafe
// for concurrent use.
type store interface {
	seen(d digest) bool
	peek(d digest) bool
	size() int
}

// newStore builds the visited store for a run. concurrent picks the
// link table over the single-goroutine exhaustive store; the bitstate
// and tiered stores are concurrency-safe by construction and serve both
// strategies. A tiered store that cannot open its files (missing
// StoreDir, I/O failure) is an environment error the caller cannot
// recover mid-run, so it panics with the cause — the iotsan layer
// validates and creates the directory before running.
func newStore(opts Options, concurrent bool) store {
	switch opts.Store {
	case Bitstate:
		return newAtomicBitStore(opts.BitstateBits, opts.BitstateK)
	case Tiered:
		ts, err := newTieredStore(opts.StoreDir, opts.MemBudget)
		if err != nil {
			panic(err)
		}
		return ts
	}
	if concurrent {
		return &linkTable{}
	}
	return &hashStore{}
}

// digestSet is the flat visited table behind hashStore (the link
// table's shards share its layout): an open-addressed, linear-probe set
// of 64-bit fingerprints in one []uint64. A zero slot is empty, so the zero fingerprint lives in
// a flag beside the table. The table doubles whenever the next insert
// could push it past 75 % load, which bounds every probe sequence. The
// zero value is an empty set that allocates on its first insert — the
// store of a ten-state related set costs nothing.
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

// has reports whether k is a member.
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

// grow doubles the table (or allocates the first one) and re-inserts
// every key; the old array is garbage as soon as it returns.
func (t *digestSet) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = digestSetMinSlots
	}
	t.slots = make([]uint64, size)
	t.limit = size - size/4
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, k := range old {
		if k != 0 {
			i, _ := t.find(k)
			t.slots[i] = k
		}
	}
}

// hashStore is the exhaustive hash-compact store of the
// single-goroutine DFS: one digestSet, no lock — 8 bytes a state, where
// the frontier strategy's linkTable pays a lock per probe and 32 bytes
// for the parent link the DFS keeps on its stack. The engine picks
// between the two from the strategy, not from an option.
type hashStore struct{ set digestSet }

func (s *hashStore) seen(d digest) bool { return s.set.add(d.h1) }
func (s *hashStore) peek(d digest) bool { return s.set.has(d.h1) }
func (s *hashStore) size() int          { return s.set.n }

// bitstateDefaults normalises the bitstate sizing parameters.
func bitstateDefaults(logBits uint, k int) (uint, int) {
	if logBits == 0 {
		logBits = 26
	}
	if logBits < 10 {
		logBits = 10
	}
	if k <= 0 {
		k = 3
	}
	return logBits, k
}

// probe returns the i-th bit position for a fingerprint by double
// hashing: pos_i = h1 + i*(h2|1). Forcing the stride odd keeps it
// coprime with the power-of-two table size, so the k probes are
// distinct and independent across the two hash functions.
func (d digest) probe(i int, mask uint64) uint64 {
	return (d.h1 + uint64(i)*(d.h2|1)) & mask
}

// atomicBitStore is Spin's BITSTATE: k probes into a 2^bits bit array,
// set with lock-free atomic bit operations so insertion scales with
// cores; in the DFS's single goroutine its membership is exactly that
// of a plain bit array. Two workers racing on the same unseen state may
// both observe it as new (both count it explored); that duplication is
// harmless — their successors are deduplicated in turn — and is the
// standard trade-off in lock-free bitstate implementations.
type atomicBitStore struct {
	bits  []atomic.Uint64
	mask  uint64
	k     int
	count atomic.Int64
}

func newAtomicBitStore(logBits uint, k int) *atomicBitStore {
	logBits, k = bitstateDefaults(logBits, k)
	n := uint64(1) << logBits
	return &atomicBitStore{bits: make([]atomic.Uint64, n/64), mask: n - 1, k: k}
}

func (s *atomicBitStore) seen(d digest) bool {
	all := true
	for i := 0; i < s.k; i++ {
		pos := d.probe(i, s.mask)
		w, b := pos/64, pos%64
		if !s.setBit(w, uint64(1)<<b) {
			all = false
		}
	}
	if !all {
		s.count.Add(1)
	}
	return all
}

// setBit sets mask's bit in word w, reporting whether it was already
// set. A load + CompareAndSwap loop rather than atomic.Uint64.Or: with
// the Or form, go1.24.0 emits code for this method that faults on its
// first call (SIGSEGV in the checker's test suite, reproducible by
// swapping the forms back; a minimal standalone Or-with-result-consumed
// program does not trigger it, so the miscompilation is specific to
// this inlining/register context). The load fast path — bit already
// set, no write — is also what bitstate lookups mostly hit once the
// array fills.
func (s *atomicBitStore) setBit(w, mask uint64) bool {
	for {
		old := s.bits[w].Load()
		if old&mask != 0 {
			return true
		}
		if s.bits[w].CompareAndSwap(old, old|mask) {
			return false
		}
	}
}

func (s *atomicBitStore) peek(d digest) bool {
	for i := 0; i < s.k; i++ {
		pos := d.probe(i, s.mask)
		if s.bits[pos/64].Load()&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

func (s *atomicBitStore) size() int { return int(s.count.Load()) }
