package checker

import (
	"math/rand"
	"testing"
)

// digestSetKeys is the differential workload of the flat visited table:
// a million random fingerprints plus the shapes a probe scheme can get
// wrong — the zero fingerprint (the empty-slot sentinel), sequential
// keys, keys that agree on their low 40 bits or on their high 40 bits
// (one shard's worth of digests shares its top byte), and multiples of
// slotMix's inverse, which the slot multiply maps to 0, 1, 2, … so they
// all start probing at slot 0. Every key appears at least twice so both
// answers of add are exercised.
func digestSetKeys() []uint64 {
	rng := rand.New(rand.NewSource(15))
	keys := make([]uint64, 0, 2_300_000)
	for i := 0; i < 1_000_000; i++ {
		keys = append(keys, rng.Uint64())
	}
	keys = append(keys, 0, 0)
	for i := uint64(0); i < 50_000; i++ {
		keys = append(keys, i, i<<40|0xabcdef, 0xfedcba<<40|i)
	}
	// slotMix is odd, so it has an inverse mod 2^64 (Newton iteration:
	// each step doubles the number of correct low bits).
	inv := uint64(slotMix)
	for i := 0; i < 6; i++ {
		inv *= 2 - slotMix*inv
	}
	if inv*slotMix != 1 {
		panic("slotMix inverse")
	}
	for i := uint64(1); i <= 2_000; i++ {
		keys = append(keys, i*inv)
	}
	n := len(keys)
	for i := 0; i < n; i += 3 {
		keys = append(keys, keys[i])
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// TestDigestSetDifferential: the flat table answers add and has exactly
// as a Go map does on every key of the adversarial workload, its size
// is exact after every insert, the load stays at or under 75 %, and the
// run crosses many doublings (8 slots → 2 M).
func TestDigestSetDifferential(t *testing.T) {
	keys := digestSetKeys()
	var set digestSet
	ref := make(map[uint64]struct{}, len(keys))
	if set.has(0) || set.has(42) {
		t.Fatal("empty set reports a member")
	}
	growths := 0
	for i, k := range keys {
		_, want := ref[k]
		if got := set.has(k); got != want {
			t.Fatalf("op %d: has(%#x) = %v, map says %v", i, k, got, want)
		}
		slots := len(set.slots)
		if got := set.add(k); got != want {
			t.Fatalf("op %d: add(%#x) = %v, map says %v", i, k, got, want)
		}
		if len(set.slots) != slots {
			growths++
		}
		ref[k] = struct{}{}
		if set.n != len(ref) {
			t.Fatalf("op %d: size %d, map holds %d", i, set.n, len(ref))
		}
		if set.n > len(set.slots)-len(set.slots)/4+1 {
			t.Fatalf("op %d: %d keys in %d slots exceeds 75%% load", i, set.n, len(set.slots))
		}
	}
	if growths < 15 {
		t.Errorf("only %d growths; the workload must cross many doublings", growths)
	}
	for k := range ref {
		if !set.has(k) {
			t.Fatalf("has(%#x) lost a stored key after the final growth", k)
		}
	}
	for i := 0; i < 100_000; i++ {
		k := rand.Uint64()
		if _, in := ref[k]; !in && set.has(k) {
			t.Fatalf("has(%#x) reports a key that was never stored", k)
		}
	}
}

// TestDigestSetStartsEmpty: an idle link-table shard owns no memory —
// what lets 256 of them per frontier search cost nothing — and the first
// insert allocates the minimum table.
func TestDigestSetStartsEmpty(t *testing.T) {
	var s linkTable
	for i := range s.shards {
		if s.shards[i].slots != nil || s.shards[i].text != nil {
			t.Fatalf("shard %d allocated before its first insert", i)
		}
	}
	if s.seen(digest{h1: 7}) || !s.seen(digest{h1: 7}) || s.size() != 1 {
		t.Fatal("first insert misreported")
	}
	if got := len(s.shards[0].slots); got != digestSetMinSlots {
		t.Errorf("first insert allocated %d slots, want %d", got, digestSetMinSlots)
	}
}
