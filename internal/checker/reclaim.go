package checker

import "sync/atomic"

// Epoch-based reclamation for the work-stealing frontier.
//
// PR 6's StateRecycler free-lists made the sequential DFS hot path
// allocation-free, but the frontier strategy could not join it: a
// state consumed from a Chase–Lev deque has crossed worker boundaries,
// and a thief that loaded the entry pointer during its scavenge pass
// may still hold that pointer after the consumer is done with the
// state. Recycling the state straight into the model's free-list would
// let a later Expand scribble over storage a concurrent steal attempt
// can still see.
//
// The layered safety argument:
//
//  1. The deque's top-CAS discipline already guarantees a thief never
//     *dereferences* a stale entry: steal loads the entry pointer first
//     but uses it only after winning the top CAS, and the CAS fails for
//     any slot a consumer has advanced past. A dereference therefore
//     implies the entry was never consumed — and an unconsumed entry is
//     never retired.
//  2. The epoch layer makes the recycle safe even without leaning on
//     that implication. Every worker passes a quiescent point (the top
//     of its scavenge loop, where it holds no frontier references) and
//     pins the global epoch there. A consumed-and-fully-expanded state
//     is not recycled directly; it is retired into the consuming
//     worker's limbo list stamped with the worker's pinned epoch e, and
//     only handed to StateRecycler.Recycle once the global epoch has
//     advanced twice past e. Advancing requires every online worker —
//     including crew grown and retired dynamically under WorkerBudget —
//     to re-pin, so by reclamation time every steal attempt that was in
//     flight when the state was retired has completed or restarted.
//
// The two layers compose: (1) bounds which stale pointers can ever be
// dereferenced, (2) bounds how long retired storage stays out of the
// free-list, and together no Expand reuse can ever be observed through
// a deque, with or without the race detector.
//
// Epoch bookkeeping is intentionally cheap on the hot path: a pin is
// one load of the global epoch plus at most one store to the worker's
// own padded cell; tryAdvance is a read-only scan of the (small) slot
// array with a single CAS on success; retire is an append to an
// owner-local bucket.

// reclaimEpochLag is how far the global epoch must move past a limbo
// bucket's fill epoch before its states are reclaimed. Two advances
// guarantee every worker online at retire time has re-pinned (passed a
// quiescent point) since: one advance can already be in flight when the
// retiring worker reads the epoch, the second cannot complete without
// every online worker's fresh pin.
const reclaimEpochLag = 2

// limboBucket holds states retired at one epoch, alongside their
// visited-store digests: a retired state is exactly a proven-cold
// state, so its digest is the tiered store's preferred spill candidate
// — drain hands states to the free-list and digests to the spill
// write-behind in the same pass, which is how eviction ordering falls
// out of epoch order for free. Buckets are recycled modulo
// reclaimEpochLag+1: by the time a bucket's index comes around again
// the global epoch has necessarily advanced past its fill epoch by at
// least reclaimEpochLag+1, so refilling it first drains it.
type limboBucket struct {
	epoch   uint64
	states  []State
	digests []digest
}

// reclaimSlot is one worker's view of the reclamation protocol. The
// slot index is the worker's deque index: ownership transfers with the
// deque on retire/respawn (the freeMu publish in strategy_steal.go
// happens strictly after goOffline, so a replacement under the same
// index never shares the slot with its predecessor and inherits any
// limbo states the predecessor could not yet reclaim).
//
//iotsan:padded
type reclaimSlot struct {
	// local is 0 while the slot has no online worker, else the epoch the
	// owner last pinned plus one. Written by the owner, scanned by every
	// worker in tryAdvance; padded so neighbouring slots' pins do not
	// false-share.
	local atomic.Uint64
	_     [56]byte
	limbo [reclaimEpochLag + 1]limboBucket // owner-only
	_pad  [24]byte
}

// reclaimer coordinates epoch-based reclamation for one search. spill,
// when non-nil (tiered store), receives each drained state's digest —
// the write-behind attachment point the out-of-core store evicts
// through.
type reclaimer struct {
	rec    StateRecycler
	spill  func(digest)
	global atomic.Uint64
	slots  []reclaimSlot
}

func newReclaimer(rec StateRecycler, slots int, spill func(digest)) *reclaimer {
	rc := &reclaimer{rec: rec, spill: spill, slots: make([]reclaimSlot, slots)}
	// Start above zero so an empty bucket's zero fill-epoch can never
	// alias a live epoch.
	rc.global.Store(1)
	return rc
}

// online marks slot w as participating; the initial pin is conservative
// (the worker holds no references yet). Owner-only.
func (rc *reclaimer) online(w int) {
	rc.slots[w].local.Store(rc.global.Load() + 1)
}

// offline marks slot w as not participating, so a retired worker cannot
// block epoch advancement forever. The caller must hold no frontier
// references and — on the retire path — must call this strictly before
// publishing its deque index for reuse, or the replacement's pin could
// be wiped. Owner-only.
func (rc *reclaimer) offline(w int) {
	rc.slots[w].local.Store(0)
}

// pin records that worker w is at a quiescent point (it holds no
// references into any deque) and returns the pinned epoch, under which
// the worker's next consumed state is retired. It also opportunistically
// reclaims the worker's limbo buckets whose epochs the world has moved
// past. Owner-only.
func (rc *reclaimer) pin(w int) uint64 {
	s := &rc.slots[w]
	g := rc.global.Load()
	if s.local.Load() != g+1 {
		s.local.Store(g + 1)
	}
	for i := range s.limbo {
		b := &s.limbo[i]
		if len(b.states) > 0 && b.epoch+reclaimEpochLag <= g {
			rc.drain(b)
		}
	}
	return g
}

// retire places a consumed, fully expanded state in w's limbo, stamped
// with the epoch w pinned before consuming it and paired with its
// visited-store digest (the spill candidate drain forwards to the
// tiered store). Owner-only.
//
//iotsan:retires s
func (rc *reclaimer) retire(w int, epoch uint64, s State, d digest) {
	b := &rc.slots[w].limbo[epoch%(reclaimEpochLag+1)]
	if b.epoch != epoch {
		// The bucket index wrapped around: its fill epoch trails the
		// pinned epoch by at least reclaimEpochLag+1, so its states'
		// grace period has long passed.
		if len(b.states) > 0 {
			rc.drain(b)
		}
		b.epoch = epoch
	}
	b.states = append(b.states, s)
	b.digests = append(b.digests, d)
}

// tryAdvance moves the global epoch forward one step if every online
// worker has pinned the current epoch. Lock-free and read-mostly; any
// worker may call it, and losing the CAS just means someone else
// advanced first.
func (rc *reclaimer) tryAdvance() {
	g := rc.global.Load()
	for i := range rc.slots {
		l := rc.slots[i].local.Load()
		if l != 0 && l != g+1 {
			return // an online worker has not pinned epoch g yet
		}
	}
	rc.global.CompareAndSwap(g, g+1)
}

// drain recycles a grace-period-expired bucket's states and, with a
// tiered store attached, hands their digests to the spill write-behind
// — the retired set is exactly the proven-cold set, so this is the one
// place eviction pressure enters in epoch order.
func (rc *reclaimer) drain(b *limboBucket) {
	for i, st := range b.states {
		rc.rec.Recycle(st)
		b.states[i] = nil
	}
	b.states = b.states[:0]
	if rc.spill != nil {
		for _, d := range b.digests {
			rc.spill(d)
		}
	}
	b.digests = b.digests[:0]
}

// drainAll reclaims every limbo state unconditionally. Only safe after
// the search has fully drained (wg.Wait returned): no worker holds any
// frontier reference, so the grace periods are moot.
func (rc *reclaimer) drainAll() {
	for i := range rc.slots {
		for j := range rc.slots[i].limbo {
			rc.drain(&rc.slots[i].limbo[j])
		}
	}
}
