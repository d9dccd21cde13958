package model

import "math/bits"

// Incremental block encode + digest.
//
// The state vector is block-structured: block 0 is the header (mode +
// event budget), blocks 1..nDev the per-device attribute vectors,
// blocks 1+nDev..nDev+nApp the per-app frames, then the pending queue
// and the command log. When Options.Incremental is set, every State
// carries a per-block 64-bit hash cache plus a dirty bitset; Clone
// inherits the parent's hashes and the executors mark exactly the
// blocks they write (the mark contract is documented in the README).
// The engine digest then re-encodes only dirty blocks into a pooled
// scratch buffer and swaps their terms in a position-salted sum over
// the block hashes (foldTerms), instead of re-serializing — or even
// re-folding — the whole vector per child state.
//
// The per-block hash is FNV-1a over exactly the bytes the per-block
// encoder in state.go would append, and the full encoding is the
// concatenation of those encoders, so incremental and from-scratch
// digests agree on which states are distinct by construction (the
// combined digest values differ from hashing the flat vector, which is
// fine: nothing persists or orders on digest values).

// Block indices within a state with nDev devices and nApp apps:
//
//	0                  header (Mode, EventsUsed, FaultsUsed if > 0)
//	1 + d              device d (+ stale Reported vector + epoch while offline)
//	1 + nDev + i       app i
//	1 + nDev + nApp    queue
//	2 + nDev + nApp    command log (+ in-flight buffer when non-empty)
//
// Fault-injection state deliberately lives inside existing blocks
// rather than a block of its own: every extension encodes zero bytes
// while no fault has occurred, so a faults-enabled model with a zero
// budget digests byte-identically to a faults-off model (the
// MaxFaults=0 equivalence gate). Fault mutation sites mark the blocks
// they touch through the same markHeader/markDevice/markCmds contract.
func (s *State) nBlocks() int    { return 3 + len(s.Devices) + len(s.Apps) }
func (s *State) queueBlock() int { return 1 + len(s.Devices) + len(s.Apps) }
func (s *State) cmdsBlock() int  { return 2 + len(s.Devices) + len(s.Apps) }

func maskWords(n int) int { return (n + 63) / 64 }

// initCache allocates the block-hash cache with every block dirty. The
// three slices are cut from a single backing array so the whole cache
// is one allocation (Clone's alloc budget is load-bearing, see
// TestCloneAllocBudget).
func (s *State) initCache() {
	nb := s.nBlocks()
	hw := maskWords(nb)
	aw := maskWords(len(s.Apps))
	back := make([]uint64, nb+hw+aw)
	s.blockHash = back[:nb:nb]
	s.dirtyMask = back[nb : nb+hw : nb+hw]
	s.devRefMask = back[nb+hw:]
	s.fold = [2]uint64{}
	for b := range s.blockHash {
		t1, t2 := foldTerms(b, 0)
		s.fold[0] += t1
		s.fold[1] += t2
	}
	s.MarkAllDirty()
}

// cloneCacheFrom copies p's cache into s (same shape: Clone never adds
// devices or apps). One allocation.
func (s *State) cloneCacheFrom(p *State) {
	back := make([]uint64, len(p.blockHash)+len(p.dirtyMask)+len(p.devRefMask))
	nb, hw := len(p.blockHash), len(p.dirtyMask)
	s.blockHash = back[:nb:nb]
	s.dirtyMask = back[nb : nb+hw : nb+hw]
	s.devRefMask = back[nb+hw:]
	copy(s.blockHash, p.blockHash)
	copy(s.dirtyMask, p.dirtyMask)
	copy(s.devRefMask, p.devRefMask)
}

// markBlock flags block b stale (dirtyMask, states with a cache) and
// touched (touchMask, a scratch's working state). Executors mark
// unconditionally; on a plain state without a cache it is a no-op.
func (s *State) markBlock(b int) {
	w, bit := b>>6, uint64(1)<<uint(b&63)
	if s.dirtyMask != nil {
		s.dirtyMask[w] |= bit
	}
	if s.touchMask != nil {
		s.touchMask[w] |= bit
	}
}

// The mark helpers below are the write half of the dirty-mask
// contract: every mutation of block-backed State storage must be
// paired with the matching helper in the same function. A mark is both
// "this block's cached hash is stale" and "a scratch must copy this
// block back from the parent before the next step" — a missed mark is a
// wrong digest and a missed undo. The //iotsan:marks annotations teach
// the dirtymark analyzer (internal/analysis) the mutation→mark map.

//iotsan:marks header
func (s *State) markHeader() { s.markBlock(0) }

//iotsan:marks device
func (s *State) markDevice(d int) { s.markBlock(1 + d) }

//iotsan:marks app
func (s *State) markApp(i int) { s.markBlock(1 + len(s.Devices) + i) }

//iotsan:marks queue
func (s *State) markQueue() { s.markBlock(s.queueBlock()) }

//iotsan:marks cmds
func (s *State) markCmds() { s.markBlock(s.cmdsBlock()) }

// MarkAllDirty marks every block: all cached hashes stale, every atom
// of the valuation stale and, on a scratch's working state, every block
// due for re-sync. Callers that mutate a State outside the executor
// layer (symmetry canonicalization, test harnesses) must call it before
// the state is digested, inspected or stepped from again.
//
//iotsan:marks all
func (s *State) MarkAllDirty() {
	fillMask(s.dirtyMask, s.nBlocks())
	fillMask(s.touchMask, s.nBlocks())
	s.atomFresh = 0
}

// fillMask sets the low nb bits of mask (nil = nothing to do).
func fillMask(mask []uint64, nb int) {
	for w := range mask {
		n := nb - w<<6
		if n >= 64 {
			mask[w] = ^uint64(0)
		} else {
			mask[w] = 1<<uint(n) - 1
		}
	}
}

func (s *State) setDevRef(i int, has bool) {
	if has {
		s.devRefMask[i>>6] |= 1 << uint(i&63)
	} else {
		s.devRefMask[i>>6] &^= 1 << uint(i&63)
	}
}

func (s *State) appHasDevRef(i int) bool {
	return s.devRefMask[i>>6]&(1<<uint(i&63)) != 0
}

// Hash/mix constants: FNV-1a (matching the checker store's h1) plus a
// multiplicative mix with a splitmix64 finalizer for h2.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	mixMult     = 0x9e3779b97f4a7c15
	mixSeed     = 0x2545f4914f6cdd1d
)

// fnv1a64 is a raw hash primitive; outside the //iotsan:digest-funnel
// functions below, hashing encode bytes with it bypasses the single
// digest funnel and is rejected by the digestfunnel analyzer.
//
//iotsan:hash-sink
func fnv1a64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// foldTerms returns block b's two terms of the raw engine digest, which
// is the pair of sums of these terms over all blocks. A sum is
// commutative, so replacing one block's hash is one subtraction and one
// addition (refreshBlocks) instead of a fold over every block; the
// position enters through the salt mixed into each term, so swapping
// the hashes of two blocks still changes the digest, as it changes the
// flat encoding. The two salts differ, which keeps h2 independent of h1
// for the stores that probe with both.
func foldTerms(b int, bh uint64) (uint64, uint64) {
	k := uint64(b + 1)
	return splitmix64(bh ^ k*mixMult), splitmix64(bh ^ k*foldSalt2)
}

const foldSalt2 = 0xc2b2ae3d27d4eb4f

// blockMix folds block hashes in canonical order into the (h1, h2)
// digest of the symmetry path (canonicalFold), where the blocks a state
// folds and their order depend on the state and a cached sum has
// nothing to be incremental against. Both folds are order-sensitive:
// swapping two block hashes changes the result, mirroring
// position-sensitivity of the flat encoding.
type blockMix struct {
	h1, h2 uint64
}

//iotsan:hash-sink
func newBlockMix() blockMix { return blockMix{h1: fnvOffset64, h2: mixSeed} }

func (x *blockMix) mix(bh uint64) {
	x.h1 = (x.h1 ^ bh) * fnvPrime64
	x.h2 = (x.h2 ^ bh) * mixMult
}

// sum finalizes the fold; h2 gets the splitmix64 finalizer so the two
// hashes stay independent (h2 backs the hash-compact/bitstate second
// key).
func (x *blockMix) sum() (uint64, uint64) {
	return x.h1, splitmix64(x.h2)
}

func splitmix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// refreshBlocks re-encodes every dirty block into a pooled encode
// buffer and updates its cached hash and the state's fold, clearing the
// dirty mask (refreshDirty). No-op (and allocation-free) on clean or
// cache-less states. A scratch refreshes its working state with its own
// buffer instead (Scratch.refresh), so the successor path takes nothing
// from the pool.
func (m *Model) refreshBlocks(s *State) {
	if s.cacheSettled() {
		return
	}
	bp := m.encBufs.Get().(*[]byte)
	*bp = refreshDirty(s, *bp)
	m.encBufs.Put(bp)
}

// refreshDirty re-encodes every dirty block of s into buf, swaps its
// hash into the cache and its terms into the fold, and clears the dirty
// mask; it returns buf, grown as needed. A refreshed block counts as
// touched: its cache entry now differs from the one a scratch
// inherited.
//
//iotsan:digest-funnel
func refreshDirty(s *State, buf []byte) []byte {
	nDev, nApp := len(s.Devices), len(s.Apps)
	for wi, word := range s.dirtyMask {
		for word != 0 {
			b := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			var ref bool
			buf, ref = encodeBlock(s, b, buf[:0])
			if b > nDev && b <= nDev+nApp {
				s.setDevRef(b-1-nDev, ref)
			}
			bh := fnv1a64(buf)
			o1, o2 := foldTerms(b, s.blockHash[b])
			n1, n2 := foldTerms(b, bh)
			s.fold[0] += n1 - o1
			s.fold[1] += n2 - o2
			s.blockHash[b] = bh
		}
		if s.touchMask != nil {
			s.touchMask[wi] |= s.dirtyMask[wi]
		}
		s.dirtyMask[wi] = 0
	}
	return buf
}

// IncrementalDigest returns the engine digest of s computed from the
// per-block hash cache, refreshing dirty blocks first. With canonical
// set (and a symmetry table present) it folds the blocks through the
// orbit-canonical view instead of index order, reusing cached raw
// hashes for every block the canonicalization leaves untouched.
// Exported for the checker (via the IncrementalDigester interface) and
// for equivalence tests.
//
//iotsan:digest-funnel
func (m *Model) IncrementalDigest(s *State, canonical bool) (uint64, uint64) {
	// Refresh before any canonical-view construction: orbit profiles key
	// on cached device-block hashes, which must reflect content, never
	// dirtiness (dirty masks are not invariant under the group action).
	m.refreshBlocks(s)
	if !canonical || m.sym == nil {
		return s.fold[0], s.fold[1]
	}
	return m.canonicalFold(s)
}

// canonicalFold combines cached block hashes through the canonical
// (orbit-permuted) view: device blocks fold in canonical order, app
// blocks re-encode only under a non-identity renaming when they hold a
// device reference, the queue block re-encodes only when
// canonicalization actually produced a normalised copy, and the command
// block, which never names an orbit device, always folds its cached
// hash.
//
//iotsan:digest-funnel
func (m *Model) canonicalFold(s *State) (uint64, uint64) {
	cs := m.sym.scratch.Get().(*canonScratch)
	cv := m.buildCanonView(s, cs)
	nDev := len(s.Devices)

	mx := newBlockMix()
	mx.mix(s.blockHash[0])
	identity := true
	for p := 0; p < nDev; p++ {
		d := cv.order[p]
		if int(d) != p {
			identity = false
		}
		mx.mix(s.blockHash[1+d])
	}

	var bp *[]byte
	var buf []byte
	for i := range s.Apps {
		if identity || !s.appHasDevRef(i) {
			mx.mix(s.blockHash[1+nDev+i])
			continue
		}
		if bp == nil {
			bp = m.encBufs.Get().(*[]byte)
			buf = *bp
		}
		buf = buf[:0]
		buf, _ = encodeApp(buf, &s.Apps[i], cv.devMap)
		mx.mix(fnv1a64(buf))
	}
	if cv.queueAliased {
		mx.mix(s.blockHash[s.queueBlock()])
	} else {
		if bp == nil {
			bp = m.encBufs.Get().(*[]byte)
			buf = *bp
		}
		buf = encodeQueue(buf[:0], cv.queue)
		mx.mix(fnv1a64(buf))
	}
	mx.mix(s.blockHash[s.cmdsBlock()])
	if bp != nil {
		*bp = buf
		m.encBufs.Put(bp)
	}
	m.sym.scratch.Put(cs)
	return mx.sum()
}
