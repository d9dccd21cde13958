package model

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"iotsan/internal/device"
	"iotsan/internal/eval"
	"iotsan/internal/ir"
)

// Symmetry reduction over interchangeable devices.
//
// Device inventories routinely contain interchangeable instances — two
// identical presence sensors, three door contacts — and every
// permutation of such devices induces an isomorphic subspace the
// checker would otherwise explore separately. This file implements an
// orbit-based symmetry reduction: at model construction the devices are
// partitioned into *orbits* of pairwise-interchangeable instances, and
// the checker's visited store keys on a canonicalized state encoding in
// which each orbit's device blocks (together with the dependent state
// that references devices by index) are permuted into a canonical
// representative. Isomorphic states then collide in the store and only
// one representative subspace is explored. The command log and the
// in-flight buffer never name an orbit device (command-capable devices
// are singletons, see buildSymmetry), so they are encoded as they are.
//
// Interchangeability is proved statically, from the artifacts the
// partial-order-reduction work already extracts. Devices i and j share
// an orbit only when the transposition (i j) is an automorphism of the
// generated transition system:
//
//   - identical schema (the same device model) and identical initial
//     attribute values, so the permuted initial state is the initial
//     state;
//   - identical association role, so every invariant's association
//     bindings are fixed by the swap (invariants quantify over
//     ByAssociation/ByCapability sets, which are unions of orbits);
//   - identical subscription sequences: the table-order sequence of
//     (app, handler, attribute, value-filter) entries sourced at i
//     equals that of j, giving each subscription of an orbit device a
//     *role* index and the swap a subscription bijection;
//   - identical binding positions: i appears in an app input's device
//     list exactly when j does (position within the list is
//     deliberately ignored — uniform broadcasts commute, and the
//     canonicalization normalises their order-dependent queue
//     footprints);
//   - every app observing the devices carries a symmetry certificate
//     from the compile-time effects analysis (eval.AppEffects): no
//     Unknown footprints and no DeviceIdentity uses (identity reads,
//     position-sensitive list extraction, device-list-derived state
//     writes) that could distinguish the instances.
//
// Soundness does not rest on the canonical choice being a perfect
// orbit minimum: the canonical key of a state s is the raw encoding of
// g(s) for some genuine group element g (a product of within-orbit
// transpositions applied to device blocks, device references in app
// state and queued events, composed with a queue normalisation that is
// itself a bisimulation — the pending queue is semantically a multiset
// in the concurrent design and always empty between transitions in the
// sequential one). Two states can therefore only collide in the store
// when they are genuinely related by the symmetry group; a suboptimal
// canonical choice merely folds less. The checker keeps raw states in
// its frontier and trails, so counter-example replay reproduces
// concrete executions of the raw model.
//
// Symmetry composes multiplicatively with partial-order reduction: POR
// prunes interleavings before successors reach the store, and symmetry
// folds the survivors across device permutations.

// symData is the symmetry-reduction table, built at New when
// Options.Symmetry is set and at least one non-trivial orbit exists.
type symData struct {
	orbitOf   []int32   // device index → orbit id, -1 for singletons
	orbits    [][]int32 // orbit id → member device indices, ascending
	roleOf    []int32   // subscription index → role among its device's subs (-1 otherwise)
	subByRole [][]int32 // device index → role → subscription index (orbit devices only)

	scratch sync.Pool // *canonScratch
}

// SymmetryStats summarises the computed orbits.
type SymmetryStats struct {
	Orbits  int // non-trivial orbits (≥2 devices)
	Devices int // devices inside non-trivial orbits
	Largest int // size of the largest orbit
}

// SymmetryStats reports the orbit structure computed at New (zero when
// Options.Symmetry was off or no devices are interchangeable).
func (m *Model) SymmetryStats() SymmetryStats {
	var st SymmetryStats
	if m.sym == nil {
		return st
	}
	st.Orbits = len(m.sym.orbits)
	for _, o := range m.sym.orbits {
		st.Devices += len(o)
		if len(o) > st.Largest {
			st.Largest = len(o)
		}
	}
	return st
}

// DeviceOrbits returns the non-trivial device orbits as slices of
// device indices (copies; ascending within each orbit).
func (m *Model) DeviceOrbits() [][]int {
	if m.sym == nil {
		return nil
	}
	out := make([][]int, len(m.sym.orbits))
	for i, o := range m.sym.orbits {
		out[i] = make([]int, len(o))
		for j, d := range o {
			out[i][j] = int(d)
		}
	}
	return out
}

// buildSymmetry partitions the devices into orbits by signature
// refinement and assembles the subscription role tables. Called from
// New (after subscriptions are resolved and programs compiled) when
// Options.Symmetry is set.
func (m *Model) buildSymmetry() {
	nd := len(m.Devices)
	if nd < 2 {
		return
	}

	// Per-app symmetry certificate: reuse the compile-time footprints
	// when the app compiled, run the standalone extraction otherwise. An
	// app with any Unknown or DeviceIdentity method can distinguish the
	// devices it observes, so those devices must stay singletons.
	unsafeApp := make([]bool, len(m.Apps))
	for i, app := range m.Apps {
		if len(app.App.Fields) > 0 {
			// Script-level fields can carry device-list data between
			// handlers outside the per-method taint analysis; they are
			// rare, so their apps conservatively stay uncertified.
			unsafeApp[i] = true
			continue
		}
		var eff map[string]*eval.Effects
		if app.Prog != nil {
			eff = app.Prog.Effects
		}
		if eff == nil {
			eff = eval.AppEffects(app.App)
		}
		for _, e := range eff {
			if e.Unknown || e.DeviceIdentity {
				unsafeApp[i] = true
				break
			}
		}
	}

	// Binding occurrences per device: which (app, input) positions name
	// it, whether as the single bound device, and how many times.
	type occ struct {
		app    int
		input  string
		single bool
		count  int
	}
	occs := make([][]occ, nd)
	for ai, app := range m.Apps {
		for _, in := range app.App.Inputs {
			b, ok := app.Bindings[in.Name]
			if !ok {
				continue
			}
			devs := devicesOf(b)
			if len(devs) == 0 {
				continue
			}
			single := b.Kind == ir.VDevice
			counts := map[int]int{}
			for _, d := range devs {
				counts[d]++
			}
			for d, c := range counts {
				occs[d] = append(occs[d], occ{app: ai, input: in.Name, single: single, count: c})
			}
		}
	}

	// Signature refinement: devices with equal signatures are pairwise
	// interchangeable; everything that must be fixed by a transposition
	// goes into the signature.
	sigs := make([]string, nd)
	attrBuf := make([]int16, 0, 16)
	for i, d := range m.Devices {
		var sb strings.Builder
		fmt.Fprintf(&sb, "model=%s\x01assoc=%s\x01", d.Model.Name, d.Assoc)
		if deviceHasCommands(d) {
			// Command-capable devices stay singletons: command-log
			// violation details name the commanded device's label, so a
			// handler commanding individual orbit members (evt.device,
			// broadcast) after a fold point could surface only the
			// representative's label — dropping label-distinct reports
			// and breaking the exact violation-set guarantee. Pure
			// sensors can never appear in those details (DeviceCommand
			// ignores commands their schema lacks), so no command-log or
			// in-flight entry ever names an orbit device and the
			// canonical path leaves both as they are.
			fmt.Fprintf(&sb, "commands-dev=%d\x01", i)
		}
		attrBuf = attrBuf[:0]
		for range d.Attrs {
			attrBuf = append(attrBuf, 0)
		}
		m.initialAttrs(i, attrBuf)
		fmt.Fprintf(&sb, "init=%v\x01", attrBuf)
		// Table-order subscription sequence: equality across an orbit
		// both proves subscription symmetry and makes the k-th entry of
		// each device's sequence a well-defined role.
		for _, sub := range m.subs {
			if sub.Source == i {
				fmt.Fprintf(&sb, "sub=%d.%s.%s.%s\x01", sub.AppIdx, sub.Handler, sub.Attr, sub.Value)
			}
		}
		for _, o := range occs[i] {
			fmt.Fprintf(&sb, "bind=%d.%s.%v.%d\x01", o.app, o.input, o.single, o.count)
			if unsafeApp[o.app] {
				// The observing app can tell devices apart: pin this
				// device to a singleton orbit.
				fmt.Fprintf(&sb, "unsafe-dev=%d\x01", i)
			}
		}
		sigs[i] = sb.String()
	}

	groups := map[string][]int32{}
	for i := range m.Devices {
		groups[sigs[i]] = append(groups[sigs[i]], int32(i))
	}

	p := &symData{orbitOf: make([]int32, nd)}
	for i := range p.orbitOf {
		p.orbitOf[i] = -1
	}
	// Deterministic orbit order: by smallest member.
	var orbitKeys []string
	for k, g := range groups {
		if len(g) >= 2 {
			orbitKeys = append(orbitKeys, k)
		}
	}
	slices.SortFunc(orbitKeys, func(a, b string) int {
		return cmp.Compare(groups[a][0], groups[b][0])
	})
	for _, k := range orbitKeys {
		id := int32(len(p.orbits))
		members := groups[k] // already ascending: devices were appended in index order
		for _, d := range members {
			p.orbitOf[d] = id
		}
		p.orbits = append(p.orbits, members)
	}
	if len(p.orbits) == 0 {
		return
	}

	// Role tables: the k-th subscription (in table order) sourced at an
	// orbit device is that device's role-k subscription; equal signature
	// sequences guarantee role-wise identical (app, handler, attr,
	// value) projections across the orbit.
	p.roleOf = make([]int32, len(m.subs))
	p.subByRole = make([][]int32, nd)
	for si := range p.roleOf {
		p.roleOf[si] = -1
	}
	for si, sub := range m.subs {
		if sub.Source >= 0 && p.orbitOf[sub.Source] >= 0 {
			d := sub.Source
			p.roleOf[si] = int32(len(p.subByRole[d]))
			p.subByRole[d] = append(p.subByRole[d], int32(si))
		}
	}

	p.scratch.New = func() any {
		return &canonScratch{
			view: canonView{
				order:  make([]int32, nd),
				devMap: make([]int32, nd),
			},
			prof:       make([][]byte, nd),
			itemsByDev: make([][]itemSpan, nd),
		}
	}
	m.sym = p
}

// deviceHasCommands reports whether the device's schema exposes any
// actuator command — the devices whose labels can be embedded in
// conflicting/repeated-command violation details.
func deviceHasCommands(d *DevInst) bool {
	for _, cn := range d.Model.Capabilities {
		if c := device.CapabilityByName(cn); c != nil && len(c.Commands) > 0 {
			return true
		}
	}
	return false
}

// canonScratch is the reusable per-encode working set of the canonical
// path: the permutation view, per-device profile keys, and the sorting
// arenas. Checked out of symData.scratch so concurrent expansions never
// share one.
type canonScratch struct {
	view    canonView
	prof    [][]byte // device index → profile key (orbit devices only)
	members []int32
	// itemsByDev buckets the per-device queue and stored-reference
	// profile items in one pass over s.Queue and the app values (device
	// index → spans into arena, the reusable flat byte store — no
	// per-item allocation on the digest hot path); touched records which
	// buckets the current view used, so resetting costs O(touched), not
	// O(devices).
	itemsByDev [][]itemSpan
	arena      []byte
	touched    []int32
	qpos       []int32
	qtmp       []Pending
	// queueBuf owns the storage behind cv.queue when the rename pass
	// actually runs; when nothing renames, the view aliases the state's
	// own (read-only) queue instead, and queueBuf must NOT be re-derived
	// from the view — appending into an aliased slice would scribble
	// over an immutable shared state.
	queueBuf []Pending
	// refHdr holds the current reference-item header while walking app
	// values (kept out of arena: arena may reallocate mid-walk).
	refHdr []byte
}

// addItem appends the arena span [start, len(arena)) to device d's
// profile-item bucket.
func (cs *canonScratch) addItem(d, start int) {
	if len(cs.itemsByDev[d]) == 0 {
		cs.touched = append(cs.touched, int32(d))
	}
	cs.itemsByDev[d] = append(cs.itemsByDev[d],
		itemSpan{start: int32(start), end: int32(len(cs.arena))})
}

// itemSpan is one profile item as a range of canonScratch.arena (spans
// rather than subslices, so arena growth cannot invalidate them).
type itemSpan struct{ start, end int32 }

// CanonicalEncode appends the canonical state-vector encoding of s: the
// raw encoding of a canonically permuted orbit representative, with
// device blocks in canonical order, device references in app state
// renamed, the orbit entries of the queue renamed and sorted, and the
// command log and in-flight buffer as they are. With no
// symmetry table (Options.Symmetry off, or no non-trivial orbits) it is
// exactly the raw encoding. The checker's visited store keys on this
// encoding when symmetry reduction is enabled.
//
//iotsan:state-encode
func (m *Model) CanonicalEncode(s *State, buf []byte) []byte {
	if m.sym == nil {
		return s.Encode(buf)
	}
	cs := m.sym.scratch.Get().(*canonScratch)
	cv := m.buildCanonView(s, cs)
	buf = s.encode(buf, cv)
	m.sym.scratch.Put(cs)
	return buf
}

// Canonicalize materializes the canonical orbit representative of s as
// a fresh state: the image of s under the canonical permutation
// (ApplyDevicePermutation, the reference group action) with its queue
// replaced by the normalised one. Canonicalize(s).Encode equals
// CanonicalEncode(s); the checker itself never materializes
// representatives (it canonicalizes only encodings), so this is an API
// for tests and tooling.
func (m *Model) Canonicalize(s *State) *State {
	if m.sym == nil {
		return s.Clone()
	}
	cs := m.sym.scratch.Get().(*canonScratch)
	cv := m.buildCanonView(s, cs)
	perm := make([]int, len(cv.devMap))
	for d, nd := range cv.devMap {
		perm[d] = int(nd)
	}
	n, ok := m.ApplyDevicePermutation(s, perm)
	if !ok {
		panic("model: canonical permutation is not a group member")
	}
	n.Queue = append(n.Queue[:0], cv.queue...)
	n.markQueue()
	m.sym.scratch.Put(cs)
	return n
}

// ApplyDevicePermutation returns the image of s under the device
// permutation perm (old index → new index), or ok=false when perm is
// not a member of the model's symmetry group (it must be a bijection
// that fixes every singleton device and maps each orbit onto itself).
// The image is the group action the canonical encoding quotients by:
// device blocks move to their permuted positions, device references in
// app slot/KV state are renumbered, queued events are re-pointed at the
// role-corresponding subscriptions of the permuted source, and
// command-log targets are renumbered — with queue and log order
// preserved, so the result is the literal mirrored state, not a
// normalised one. The permutation-invariance tests fuzz
// CanonicalEncode against it; the checker itself never materializes
// images.
func (m *Model) ApplyDevicePermutation(s *State, perm []int) (*State, bool) {
	p := m.sym
	if p == nil || len(perm) != len(m.Devices) {
		return nil, false
	}
	seen := make([]bool, len(perm))
	for d, nd := range perm {
		if nd < 0 || nd >= len(perm) || seen[nd] {
			return nil, false
		}
		seen[nd] = true
		if nd != d && (p.orbitOf[d] < 0 || p.orbitOf[d] != p.orbitOf[nd]) {
			return nil, false
		}
	}
	devMap := make([]int32, len(perm))
	for d, nd := range perm {
		devMap[d] = int32(nd)
	}
	n := s.Clone()
	for d := range perm {
		src := s.Devices[d]
		dst := &n.Devices[perm[d]]
		dst.Online = src.Online
		copy(dst.Attrs, src.Attrs)
		if dst.Reported != nil {
			copy(dst.Reported, src.Reported)
		}
		dst.LastReport = src.LastReport
	}
	for i := range n.Apps {
		a := &n.Apps[i]
		for j, v := range a.Slots {
			a.Slots[j] = v.MapDevices(devMap)
		}
		for k, v := range a.KV {
			a.KV[k] = v.MapDevices(devMap)
		}
	}
	for i := range n.Queue {
		pe := &n.Queue[i]
		if role := p.roleOf[pe.SubIdx]; role >= 0 {
			nd := devMap[m.subs[pe.SubIdx].Source]
			if pe.Source >= 0 {
				pe.Source = int(nd)
			}
			pe.SubIdx = int(p.subByRole[nd][role])
		}
	}
	for i := range n.Cmds {
		c := &n.Cmds[i]
		if p.orbitOf[c.Dev] >= 0 {
			c.Dev = int(devMap[c.Dev])
		}
	}
	for i := range n.InFlight {
		c := &n.InFlight[i]
		if p.orbitOf[c.Dev] >= 0 {
			c.Dev = int(devMap[c.Dev])
		}
	}
	n.MarkAllDirty()
	return n, true
}

// buildCanonView computes the canonical permutation for s: within each
// orbit, device blocks are ordered by a profile key (local device
// state, then the device's queued-event and stored-reference footprints
// as sorted multisets) with ties keeping ascending device order, so the
// choice is stable, deterministic, and invariant under the group
// action. The returned view references cs's storage.
func (m *Model) buildCanonView(s *State, cs *canonScratch) *canonView {
	p := m.sym
	// Refresh the incremental cache (no-op without one) before any
	// profile is derived: devProfile keys on cached device-block hashes,
	// and bucketProfileItems consults devRefMask — both must reflect
	// content, never staleness.
	m.refreshBlocks(s)
	cv := &cs.view
	cv.queueAliased = false
	for i := range cv.order {
		cv.order[i] = int32(i)
		cv.devMap[i] = int32(i)
	}
	m.bucketProfileItems(s, cs)
	for _, orbit := range p.orbits {
		for _, d := range orbit {
			cs.prof[d] = m.devProfile(s, int(d), cs.prof[d][:0], cs)
		}
		cs.members = append(cs.members[:0], orbit...)
		slices.SortStableFunc(cs.members, func(a, b int32) int {
			return bytes.Compare(cs.prof[a], cs.prof[b])
		})
		// Positions available to the orbit are its own device indices
		// (ascending); the k-th smallest position receives the k-th
		// profile-ranked device.
		for k, dev := range cs.members {
			pos := orbit[k]
			cv.order[pos] = dev
			cv.devMap[dev] = pos
		}
	}
	for _, d := range cs.touched {
		cs.itemsByDev[d] = cs.itemsByDev[d][:0]
	}

	// Queue: rename orbit entries and sort them among their own
	// positions — the pending queue is semantically a multiset, so this
	// normalisation is a bisimulation, and restricting it to renamed
	// entries keeps the raw path untouched for everything else. An
	// entry is an orbit entry exactly when its *subscription* is
	// sourced at an orbit device (roleOf >= 0): that covers device
	// events (Source == the subscription's device) and synthetic
	// sendEvent pendings (Source < 0, pseudo-source, but SubIdx names a
	// specific orbit device's subscription — dispatch is
	// subscription-source-agnostic there, so role renaming is sound).
	// When no entry qualifies the state's own (read-only) queue is
	// aliased instead of copied.
	hasOrbitEntries := false
	for i := range s.Queue {
		if p.roleOf[s.Queue[i].SubIdx] >= 0 {
			hasOrbitEntries = true
			break
		}
	}
	if !hasOrbitEntries {
		cv.queue = s.Queue
		cv.queueAliased = true
		return cv
	}
	cs.queueBuf = append(cs.queueBuf[:0], s.Queue...)
	cv.queue = cs.queueBuf
	cs.qpos = cs.qpos[:0]
	for i := range cv.queue {
		pe := &cv.queue[i]
		if role := p.roleOf[pe.SubIdx]; role >= 0 {
			nd := cv.devMap[m.subs[pe.SubIdx].Source]
			if pe.Source >= 0 {
				pe.Source = int(nd)
			}
			pe.SubIdx = int(p.subByRole[nd][role])
			cs.qpos = append(cs.qpos, int32(i))
		}
	}
	if len(cs.qpos) > 1 {
		cs.qtmp = cs.qtmp[:0]
		for _, i := range cs.qpos {
			cs.qtmp = append(cs.qtmp, cv.queue[i])
		}
		slices.SortStableFunc(cs.qtmp, comparePending)
		for k, i := range cs.qpos {
			cv.queue[i] = cs.qtmp[k]
		}
	}
	return cv
}

// comparePending orders the renamed orbit entries of the queue field by
// field. The canonical choice depends on this order and on the sort
// being stable: TestCanonicalDigestGolden pins the result.
func comparePending(x, y Pending) int {
	if x.SubIdx != y.SubIdx {
		return cmp.Compare(x.SubIdx, y.SubIdx)
	}
	if x.Source != y.Source {
		return cmp.Compare(x.Source, y.Source)
	}
	if x.Val != y.Val {
		return cmp.Compare(x.Val, y.Val)
	}
	return strings.Compare(x.Raw, y.Raw)
}

// bucketProfileItems makes one pass over the state's queue and stored
// app values, bucketing a tagged byte key per orbit-device entry into
// cs.itemsByDev. Keys carry roles instead of subscription indices and
// no device indices, so they are invariant under the group action.
func (m *Model) bucketProfileItems(s *State, cs *canonScratch) {
	p := m.sym
	cs.touched = cs.touched[:0]
	cs.arena = cs.arena[:0]
	for _, pe := range s.Queue {
		if role := p.roleOf[pe.SubIdx]; role >= 0 {
			// Attributed to the subscription's device (== pe.Source for
			// device events; synthetic pendings carry a pseudo-source
			// but still name one orbit device's subscription). The
			// source kind is part of the key so a device event and a
			// synthetic event on the same role stay distinct.
			srcKind := byte(1)
			if pe.Source < 0 {
				srcKind = byte(0x80 | uint8(-pe.Source))
			}
			start := len(cs.arena)
			cs.arena = append(cs.arena, srcKind,
				byte(role), byte(role>>8), byte(role>>16), byte(role>>24),
				byte(pe.Val), byte(pe.Val>>8))
			cs.arena = append(cs.arena, pe.Raw...)
			cs.addItem(m.subs[pe.SubIdx].Source, start)
		}
	}
	// Reference-counting tie-break: a VDevice reference stashed in app
	// slot/KV state pins who-points-at-whom. Each occurrence contributes
	// an item keyed by its storage location (app, slot index or KV key)
	// — device indices appear nowhere, so a transposition moves the item
	// between the two devices' buckets with identical bytes, and states
	// differing only in which orbit member a reference names fold
	// instead of staying soundly distinct. With an incremental cache the
	// devRefMask skips reference-free apps.
	for i := range s.Apps {
		a := &s.Apps[i]
		if s.devRefMask != nil && !s.appHasDevRef(i) {
			continue
		}
		for j := range a.Slots {
			cs.refHdr = append(cs.refHdr[:0], 3, byte(i), byte(i>>8), 0, byte(j), byte(j>>8))
			m.bucketValueRefs(&a.Slots[j], cs)
		}
		for k := range a.KV {
			cs.refHdr = append(cs.refHdr[:0], 3, byte(i), byte(i>>8), 1)
			cs.refHdr = append(cs.refHdr, k...)
			v := a.KV[k]
			m.bucketValueRefs(&v, cs)
		}
	}
}

// bucketValueRefs walks v for VDevice references to orbit devices,
// adding one cs.refHdr-keyed item per occurrence to the referenced
// device's bucket. The recursion extends refHdr with each container
// position (list index, map key) so the item pins the exact storage
// path: two references held at different positions of one list get
// distinct keys, which lets the orbit sort order the devices they name
// (a transposed image carries the same path items on the swapped
// devices, so the canonical representatives coincide). Paths contain
// no device indices, keeping the keys invariant under the group
// action.
func (m *Model) bucketValueRefs(v *ir.Value, cs *canonScratch) {
	switch v.Kind {
	case ir.VDevice:
		if v.Dev() >= 0 && v.Dev() < len(m.sym.orbitOf) && m.sym.orbitOf[v.Dev()] >= 0 {
			start := len(cs.arena)
			cs.arena = append(cs.arena, cs.refHdr...)
			cs.addItem(v.Dev(), start)
		}
	case ir.VList, ir.VDevices:
		n := len(cs.refHdr)
		for i := range v.L() {
			cs.refHdr = append(cs.refHdr[:n], byte(i), byte(i>>8))
			m.bucketValueRefs(&v.L()[i], cs)
		}
		cs.refHdr = cs.refHdr[:n]
	case ir.VMap:
		n := len(cs.refHdr)
		for k := range v.M() {
			cs.refHdr = append(cs.refHdr[:n], k...)
			cs.refHdr = append(cs.refHdr, 0)
			e := v.M()[k]
			m.bucketValueRefs(&e, cs)
		}
		cs.refHdr = cs.refHdr[:n]
	}
}

// devProfile appends device d's canonical sort key for state s: its
// local block (online flag + attribute values) followed by the sorted
// multiset of its queued-event items (role, value, raw payload) and
// stored-reference items (which app slots/keys point at it), as
// bucketed by bucketProfileItems. Every component is invariant under
// the group action — roles replace subscription indices, device
// indices appear nowhere — so isomorphic states produce identical
// profile multisets and sort into identical canonical representatives.
// With an incremental cache the local block collapses to the cached
// 8-byte device-block hash (refreshed by buildCanonView before any
// profile is built; hash-equal means content-equal up to hash
// collisions, which can only make the canonical choice fold less,
// never unsoundly).
func (m *Model) devProfile(s *State, d int, buf []byte, cs *canonScratch) []byte {
	if s.blockHash != nil {
		h := s.blockHash[1+d]
		buf = append(buf,
			byte(h), byte(h>>8), byte(h>>16), byte(h>>24),
			byte(h>>32), byte(h>>40), byte(h>>48), byte(h>>56))
	} else {
		// Delegate to the block encoder so every component of the local
		// block — including the stale Reported vector and report epoch an
		// offline device carries under fault injection — feeds the
		// profile. A profile that ignored offline content would fold
		// states the encoder distinguishes, splitting one orbit image
		// across two store keys.
		buf = encodeDevice(buf, &s.Devices[d])
	}
	// Items that compare equal are byte-identical, so an unstable sort
	// yields the same profile.
	items := cs.itemsByDev[d]
	if len(items) > 1 {
		slices.SortFunc(items, func(a, b itemSpan) int {
			return bytes.Compare(cs.arena[a.start:a.end], cs.arena[b.start:b.end])
		})
	}
	buf = append(buf, 0xFC)
	for _, it := range items {
		buf = append(buf, cs.arena[it.start:it.end]...)
		buf = append(buf, 0xFD)
	}
	return buf
}
