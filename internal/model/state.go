package model

import (
	"encoding/binary"
	"sort"
	"sync"

	"iotsan/internal/ir"
)

// DevState is the dynamic state of one device instance. Attrs is a
// subslice of the state's flat attribute backing array, so cloning all
// device attributes is one allocation and one copy.
//
// Under fault injection (Options.Faults) each device additionally
// carries the platform's view of its attributes: Attrs is ground truth
// (the physical device), Reported is the last value the hub received.
// The two are kept identical while the device is online; while it is
// offline Reported freezes and handlers read the stale copy (see
// executor.DeviceAttr), while safety invariants keep reading ground
// truth. Reported is nil when fault injection is off.
//
//iotsan:block device
type DevState struct {
	Online bool
	Attrs  []int16 // ground truth: enum value index or numeric value, per attribute
	// Reported is the hub's (possibly stale) copy of Attrs, a subslice
	// of the state's flat reported backing array. Nil unless
	// Options.Faults.
	Reported []int16
	// LastReport is the external-event epoch (EventsUsed) of the last
	// successful report before the device went offline. Zero while
	// online.
	LastReport int
}

// report mirrors attribute i's ground-truth value into the
// platform-visible Reported copy. Callers invoke it after every online
// attribute write; it is a no-op when fault injection is off. The
// //iotsan:writes annotation shifts the markDevice obligation to the
// call sites, which always follow an attribute write of their own.
//
//iotsan:writes device
func (d *DevState) report(i int) {
	if d.Reported != nil {
		d.Reported[i] = d.Attrs[i]
	}
}

// Timer is a pending scheduled callback of an app. Deliberately not
// block-annotated: Timer records are also mutated inside
// canonicalization scratch buffers; the State-rooted Timers field
// annotation covers the real mutations.
type Timer struct {
	Handler string
	Delay   int64
}

// AppState is the dynamic state of one app instance. Apps whose state
// keys are statically known (eval.StateLayout) store their persistent
// state in Slots — a subslice of the state's flat slot backing — and
// keep KV nil; dynamic apps fall back to the KV map.
//
//iotsan:block app
type AppState struct {
	KV           map[string]ir.Value // the persistent `state` map (dynamic apps)
	Slots        []ir.Value          // slot-based persistent state (static apps)
	Unsubscribed bool
	Timers       []Timer //iotsan:block app
}

// Pending is one queued handler invocation (concurrent design): the
// event payload destined for a specific resolved subscription.
// Deliberately not block-annotated (see Timer).
type Pending struct {
	SubIdx int   // index into Model.subs
	Source int   // device index or pseudo-source
	Val    int16 // encoded event value (device/mode events)
	Raw    string
}

// CmdRec records an actuator command within the current cascade for the
// conflicting/repeated command properties (Algorithm 1 line 16).
// Deliberately not block-annotated (see Timer).
type CmdRec struct {
	Dev   int
	Cmd   string
	Arg   int16
	App   int
	Attr  string
	Value string // target attribute value ("" for argument commands)
}

// InFlightCmd is a command issued to an offline device, held in the
// state's in-flight buffer until a fault transition delivers or drops
// it (Options.Faults). Notified records whether the issuing app has
// notified the user since the command was swallowed — a silently
// dropped command with Notified false is a robustness violation.
// Deliberately not block-annotated (see Timer).
type InFlightCmd struct {
	CmdRec
	Notified bool
}

// State is the full system state. It is a value in the model-checking
// sense: cloned on branch, encoded for hashing. Once a state has been
// returned from Initial or inside a Transition it is never mutated
// again — executors write only to the clone of the state they are
// deriving — so states may be encoded and expanded concurrently.
type State struct {
	Mode uint8 //iotsan:block header
	// FaultsUsed counts the budgeted fault transitions taken (device
	// outage, command drop) under Options.Faults. It shares a word with
	// Mode: State is sized to its allocation class (TestStateSizeClass).
	FaultsUsed int32      //iotsan:block header
	EventsUsed int        //iotsan:block header
	Devices    []DevState //iotsan:block device
	Apps       []AppState //iotsan:block app
	// attrs/slots are the flat backing arrays the per-device Attrs and
	// per-app Slots subslices point into; Clone copies each with a
	// single allocation.
	attrs []int16    //iotsan:block device
	slots []ir.Value //iotsan:block app
	// Queue holds pending handler invocations (concurrent design only;
	// always empty between transitions in the sequential design).
	Queue []Pending //iotsan:block queue
	// Cmds is the per-cascade command log (concurrent design carries it
	// across transitions until the next external injection).
	Cmds []CmdRec //iotsan:block cmds

	// Fault-injection state (Options.Faults), with FaultsUsed above.
	// InFlight holds commands swallowed by offline devices awaiting
	// delivery or drop; reported is the flat backing array the
	// per-device Reported subslices point into (nil when faults off).
	// All three stay at their zero values while MaxFaults is 0, which
	// the encoders below exploit to keep the encoding byte-identical to
	// a faults-off model.
	InFlight []InFlightCmd //iotsan:block cmds
	reported []int16       //iotsan:block device

	// Incremental-digest cache (nil unless Options.Incremental). The
	// three slices share one backing array so Clone pays one allocation:
	// blockHash caches the 64-bit hash of each encoded block, dirtyMask
	// is a bitset of blocks whose hash is stale, and devRefMask records
	// which app blocks encoded a VDevice reference last time (those are
	// the only app blocks a device renumbering can change). See
	// incremental.go for the block layout and mark contract.
	blockHash  []uint64
	dirtyMask  []uint64
	devRefMask []uint64
	// fold is the raw engine digest kept incrementally: the two
	// position-salted sums over blockHash (see foldTerms). Always
	// consistent with blockHash, stale entries included, so refreshing a
	// dirty block swaps one term instead of re-folding every block.
	fold [2]uint64

	// atoms is the state's valuation over the model's atom table (bit i:
	// atom i holds) and atomFresh the bits of it known to be current; a
	// stale bit is re-evaluated by the next Inspect, which settles both
	// (atoms.go). Like the block cache they ride along outside the
	// encoding: a clone inherits the pair, and a transition withdraws the
	// freshness of the atoms that read what it wrote. Fresh, not stale, so
	// that the zero State knows nothing: Initial and MarkAllDirty leave
	// atomFresh zero.
	atoms, atomFresh uint64

	// touchMask is set only on a Scratch's working state: the blocks in
	// which it may differ from the state it was last synced to. Every
	// mark helper ORs it alongside dirtyMask, and unlike dirtyMask a
	// digest does not clear it — it is the re-sync record (scratch.go).
	touchMask []uint64

	// serial identifies a state a Scratch handed out (Keep) or Initial
	// built, so a scratch can tell which state it is synced to without
	// comparing pointers — a recycled state object comes back under a
	// new serial. Zero on every other clone.
	serial uint64

	// pool is the model's free-list of dead states (see Model.statePool):
	// Clone draws recycled states from it and reuses their backing
	// storage instead of allocating. Carried by every clone; nil for
	// states built outside a model.
	pool *sync.Pool
}

// Initial builds the initial state from the configuration: devices at
// their schema defaults, apps with empty persistent state, all online.
//
//iotsan:allow dirtymark -- fresh construction: initCache starts from an all-dirty mask, so every block hashes from scratch
func (m *Model) Initial() *State {
	s := &State{
		Devices: make([]DevState, len(m.Devices)),
		Apps:    make([]AppState, len(m.Apps)),
	}
	mi := m.ModeIndex(m.Cfg.Mode)
	if mi < 0 {
		mi = 0
	}
	s.Mode = uint8(mi)

	total := 0
	for _, d := range m.Devices {
		total += len(d.Attrs)
	}
	s.attrs = make([]int16, total)
	if m.Opts.Faults {
		s.reported = make([]int16, total)
	}
	off := 0
	for i, d := range m.Devices {
		n := len(d.Attrs)
		ds := DevState{Online: true, Attrs: s.attrs[off : off+n : off+n]}
		if s.reported != nil {
			ds.Reported = s.reported[off : off+n : off+n]
		}
		off += n
		m.initialAttrs(i, ds.Attrs)
		copy(ds.Reported, ds.Attrs)
		s.Devices[i] = ds
	}

	if m.slotTotal > 0 {
		s.slots = make([]ir.Value, m.slotTotal)
		off := 0
		for i, app := range m.Apps {
			n := len(app.StateKeys)
			if n > 0 {
				s.Apps[i].Slots = s.slots[off : off+n : off+n]
				off += n
			}
		}
	}
	if m.Opts.Incremental {
		s.initCache()
	}
	s.pool = &m.statePool
	s.serial = m.serials.Add(1)
	return s
}

// initialAttrs writes device i's initial attribute values (schema
// defaults plus configured overrides) into dst, which must have
// len(m.Devices[i].Attrs) entries. Shared by Initial and the symmetry
// layer's orbit signatures (two devices with differing initial state
// are never interchangeable).
func (m *Model) initialAttrs(i int, dst []int16) {
	d := m.Devices[i]
	for j, a := range d.Attrs {
		dst[j] = int16(a.Default)
	}
	for attr, val := range m.Cfg.Devices[i].Initial {
		j := d.AttrIndex(attr)
		if j < 0 {
			continue
		}
		a := d.Attrs[j]
		if a.Numeric {
			if n, err := parseInt(val); err == nil {
				dst[j] = int16(n)
			}
		} else if k := indexOf(a.Values, val); k >= 0 {
			dst[j] = int16(k)
		}
	}
}

func parseInt(s string) (int64, error) {
	var n int64
	var neg bool
	for i, c := range s {
		if i == 0 && c == '-' {
			neg = true
			continue
		}
		if c < '0' || c > '9' {
			return 0, errBadInt
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}

var errBadInt = errInvalid("invalid integer")

type errInvalid string

func (e errInvalid) Error() string { return string(e) }

// Clone deep-copies the state. When the model's free-list holds a
// recycled dead state (see checker.StateRecycler), its backing storage
// is reused and the clone performs no allocations beyond container
// values; otherwise the flat attribute and slot backing arrays are each
// copied with one allocation and per-device/per-app headers re-sliced
// onto them.
func (s *State) Clone() *State {
	if s.pool != nil {
		if v := s.pool.Get(); v != nil {
			return s.cloneInto(v.(*State))
		}
	}
	return s.cloneFresh()
}

// cloneInto deep-copies s into the recycled state n, reusing n's
// backing arrays (same model, so the shapes match — checked anyway so a
// foreign state degrades to a fresh clone instead of corrupting). The
// per-app headers are rebuilt from flat offsets. The per-device
// Attrs/Reported headers are kept when they already alias the right
// window of n's own backing arrays — they always do for a state this
// model built, since only Initial, cloneFresh and this function ever
// write them — so the common case stores no pointers (no write
// barriers) and copies just Online/LastReport; a header that does not
// match is repaired from the flat offset, never trusted.
//
//iotsan:allow dirtymark -- clone replicates already-hashed content and copies the source's block cache, dirty mask included
func (s *State) cloneInto(n *State) *State {
	if len(n.Devices) != len(s.Devices) || len(n.Apps) != len(s.Apps) ||
		len(n.attrs) != len(s.attrs) || len(n.slots) != len(s.slots) ||
		len(n.reported) != len(s.reported) {
		return s.cloneFresh()
	}
	n.Mode, n.EventsUsed = s.Mode, s.EventsUsed
	n.FaultsUsed = s.FaultsUsed
	copy(n.attrs, s.attrs)
	copy(n.reported, s.reported)
	off := 0
	for i := range s.Devices {
		sd, nd := &s.Devices[i], &n.Devices[i]
		k := len(sd.Attrs)
		nd.Online, nd.LastReport = sd.Online, sd.LastReport
		if !aliasesWindow(nd.Attrs, n.attrs, off, k) {
			nd.Attrs = n.attrs[off : off+k : off+k]
		}
		if n.reported == nil {
			if nd.Reported != nil {
				nd.Reported = nil
			}
		} else if !aliasesWindow(nd.Reported, n.reported, off, k) {
			nd.Reported = n.reported[off : off+k : off+k]
		}
		off += k
	}
	soff := 0
	for i := range s.Apps {
		sa, na := &s.Apps[i], &n.Apps[i]
		if k := len(sa.Slots); k > 0 {
			na.Slots = n.slots[soff : soff+k : soff+k]
			soff += k
		} else {
			na.Slots = nil
		}
		copyApp(na, sa)
	}
	n.Queue = append(n.Queue[:0], s.Queue...)
	n.Cmds = append(n.Cmds[:0], s.Cmds...)
	n.InFlight = append(n.InFlight[:0], s.InFlight...)
	switch {
	case s.blockHash == nil:
		n.blockHash, n.dirtyMask, n.devRefMask = nil, nil, nil
	case n.blockHash == nil || len(n.blockHash) != len(s.blockHash):
		n.cloneCacheFrom(s)
	default:
		copy(n.blockHash, s.blockHash)
		copy(n.dirtyMask, s.dirtyMask)
		copy(n.devRefMask, s.devRefMask)
	}
	n.fold = s.fold
	n.atoms, n.atomFresh = s.atoms, s.atomFresh
	n.serial = 0
	n.pool = s.pool
	return n
}

// copyApp deep-copies one app frame into dst, whose Slots header
// already windows dst's own slot backing (same model, same layout).
// Shared by cloneInto and the scratch re-sync.
//
//iotsan:allow dirtymark -- replicates already-hashed content; the callers copy or restore the block cache alongside
func copyApp(dst, src *AppState) {
	dst.Unsubscribed = src.Unsubscribed
	for j := range src.Slots {
		dst.Slots[j] = src.Slots[j].Clone()
	}
	dst.Timers = append(dst.Timers[:0], src.Timers...)
	if src.KV == nil {
		dst.KV = nil
		return
	}
	if dst.KV == nil {
		dst.KV = make(map[string]ir.Value, len(src.KV))
	} else {
		clear(dst.KV)
	}
	for k, v := range src.KV {
		dst.KV[k] = v.Clone()
	}
}

// aliasesWindow reports whether the device header h is exactly
// backing[off:off+k]. A zero-length header carries no element to
// compare, so it never matches and is always rewritten.
func aliasesWindow(h, backing []int16, off, k int) bool {
	return k > 0 && len(h) == k && &h[0] == &backing[off]
}

//iotsan:allow dirtymark -- clone replicates already-hashed content and copies the source's block cache, dirty mask included
func (s *State) cloneFresh() *State {
	n := &State{
		Mode: s.Mode, EventsUsed: s.EventsUsed,
		FaultsUsed: s.FaultsUsed,
		Devices:    make([]DevState, len(s.Devices)),
		Apps:       make([]AppState, len(s.Apps)),
	}
	if len(s.attrs) > 0 {
		n.attrs = make([]int16, len(s.attrs))
		copy(n.attrs, s.attrs)
	}
	if len(s.reported) > 0 {
		n.reported = make([]int16, len(s.reported))
		copy(n.reported, s.reported)
	}
	off := 0
	for i, d := range s.Devices {
		k := len(d.Attrs)
		nd := DevState{Online: d.Online, LastReport: d.LastReport, Attrs: n.attrs[off : off+k : off+k]}
		if n.reported != nil {
			nd.Reported = n.reported[off : off+k : off+k]
		}
		n.Devices[i] = nd
		off += k
	}
	if len(s.slots) > 0 {
		n.slots = make([]ir.Value, len(s.slots))
		for i, v := range s.slots {
			n.slots[i] = v.Clone()
		}
	}
	soff := 0
	for i, a := range s.Apps {
		na := AppState{Unsubscribed: a.Unsubscribed}
		if k := len(a.Slots); k > 0 {
			na.Slots = n.slots[soff : soff+k : soff+k]
			soff += k
		}
		if a.KV != nil {
			na.KV = make(map[string]ir.Value, len(a.KV))
			for k, v := range a.KV {
				na.KV[k] = v.Clone()
			}
		}
		if len(a.Timers) > 0 {
			na.Timers = append([]Timer(nil), a.Timers...)
		}
		n.Apps[i] = na
	}
	if len(s.Queue) > 0 {
		n.Queue = append([]Pending(nil), s.Queue...)
	}
	if len(s.Cmds) > 0 {
		n.Cmds = append([]CmdRec(nil), s.Cmds...)
	}
	if len(s.InFlight) > 0 {
		n.InFlight = append([]InFlightCmd(nil), s.InFlight...)
	}
	if s.blockHash != nil {
		n.cloneCacheFrom(s)
	}
	n.fold = s.fold
	n.atoms, n.atomFresh = s.atoms, s.atomFresh
	n.pool = s.pool
	return n
}

// Encode appends a deterministic binary encoding of the state (the
// "state vector" Spin would hash) to buf. This is the raw path of the
// two-path encoder: device blocks in device-index order, queue and
// command log in execution order. The canonical path (symmetry
// reduction) routes through the same encode with a canonView that
// permutes interchangeable-device blocks and normalises the dependent
// queue entries; see Model.CanonicalEncode in symmetry.go.
//
//iotsan:state-encode
func (s *State) Encode(buf []byte) []byte {
	return s.encode(buf, nil)
}

// canonView describes one canonicalization of a state for the encoder:
// the orbit permutation over device blocks plus the renamed and
// normalised queue. The command log and in-flight buffer never name an
// orbit device, so the view carries no copy of them. A nil canonView
// selects the raw encoding. The view references a state-specific
// renaming, so it is consumed by exactly one encode call.
type canonView struct {
	order  []int32   // encode position → device index (blocks permuted within orbits)
	devMap []int32   // device index → canonical index (inverse of order)
	queue  []Pending // renamed queue, orbit-sourced entries normalised
	// queueAliased reports that queue aliases the state's own queue
	// unmodified (no orbit-sourced entries), so the incremental
	// canonical fold may reuse the cached raw block hash.
	queueAliased bool
}

// encode is the shared two-path state-vector encoder. The raw path
// (cv == nil) concatenates the blocks in index order; the canonical
// path reads device blocks through cv.order, renames device references
// inside app slot/KV values through cv.devMap, and substitutes the
// normalised queue. Both paths are compositions of the per-block
// encoders below, so the incremental digest (which hashes blocks
// independently, see incremental.go) agrees with the full encoding by
// construction.
func (s *State) encode(buf []byte, cv *canonView) []byte {
	var devMap []int32
	queue := s.Queue
	if cv != nil {
		devMap = cv.devMap
		queue = cv.queue
	}
	buf = s.encodeHeader(buf)
	for p := range s.Devices {
		d := &s.Devices[p]
		if cv != nil {
			d = &s.Devices[cv.order[p]]
		}
		buf = encodeDevice(buf, d)
	}
	for i := range s.Apps {
		buf, _ = encodeApp(buf, &s.Apps[i], devMap)
	}
	buf = encodeQueue(buf, queue)
	buf = encodeCmds(buf, s.Cmds, s.InFlight)
	return buf
}

// encodeHeader appends the header block: mode plus the external-event
// budget counter. EventsUsed is a varint — a single byte historically,
// which aliased counts 256 apart. The fault budget counter is appended only
// when non-zero: uvarints are prefix-free against the fixed block
// layout that follows, and the omission keeps a faults-enabled model
// with MaxFaults=0 byte-identical to a faults-off model.
func (s *State) encodeHeader(buf []byte) []byte {
	return appendHeader(buf, s.Mode, s.EventsUsed, s.FaultsUsed)
}

// appendHeader is encodeHeader over the three fields, for a header that
// exists only as a prediction (memo.go).
func appendHeader(buf []byte, mode uint8, events int, faults int32) []byte {
	buf = append(buf, mode)
	buf = binary.AppendUvarint(buf, uint64(events))
	if faults > 0 {
		buf = binary.AppendUvarint(buf, uint64(faults))
	}
	return buf
}

// encodeDevice appends one device block: online flag plus the fixed
// little-endian ground-truth attribute vector. An offline device (only
// possible under fault injection) additionally encodes the hub's stale
// Reported vector and the epoch of its last report — two offline states
// differing only in what the hub last saw must not collide. Online
// devices encode exactly as before faults existed.
func encodeDevice(buf []byte, d *DevState) []byte {
	if d.Online {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, a := range d.Attrs {
		buf = append(buf, byte(a), byte(a>>8))
	}
	if !d.Online {
		for _, a := range d.Reported {
			buf = append(buf, byte(a), byte(a>>8))
		}
		buf = binary.AppendUvarint(buf, uint64(d.LastReport))
	}
	return buf
}

// encodeApp appends one app block and reports whether any slot/KV value
// encoded a VDevice reference (see State.devRefMask). Slotted state
// encodes in fixed layout order — no key strings, no sorting; dynamic
// apps keep the sorted-key KV encoding. 0xFE terminates the block.
func encodeApp(buf []byte, a *AppState, devMap []int32) ([]byte, bool) {
	if a.Unsubscribed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(a.Timers)))
	for _, t := range a.Timers {
		buf = append(buf, t.Handler...)
		buf = append(buf, 0)
	}
	hasRef := false
	for _, v := range a.Slots {
		var h bool
		buf, h = v.EncodeMappedDev(buf, devMap)
		hasRef = hasRef || h
	}
	if len(a.KV) > 0 {
		keys := make([]string, 0, len(a.KV))
		for k := range a.KV {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			buf = append(buf, k...)
			buf = append(buf, 0)
			var h bool
			buf, h = a.KV[k].EncodeMappedDev(buf, devMap)
			hasRef = hasRef || h
		}
	}
	return append(buf, 0xFE), hasRef
}

// encodeQueue appends the pending-invocation block, 0xFD-terminated.
// SubIdx and Source were single bytes historically, aliasing configs
// with >255 subscriptions and truncating negative pseudo-sources;
// SubIdx is now a uvarint and Source a zigzag varint.
func encodeQueue(buf []byte, queue []Pending) []byte {
	for _, p := range queue {
		buf = binary.AppendUvarint(buf, uint64(p.SubIdx))
		buf = binary.AppendVarint(buf, int64(p.Source))
		buf = append(buf, byte(p.Val), byte(p.Val>>8))
		buf = append(buf, p.Raw...)
		buf = append(buf, 0)
	}
	return append(buf, 0xFD)
}

// encodeCmds appends the command-log block, followed — only when fault
// injection has commands in flight — by a 0xFC-separated in-flight
// section. 0xFC cannot begin a CmdRec entry (device indices are small
// uvarints and the separator would require a config with >2^41
// devices), so the section is unambiguous, and its omission when empty
// keeps the block byte-identical to a faults-off model. Dev and App
// were single bytes historically, aliasing device/app indices 256
// apart; both are now uvarints.
func encodeCmds(buf []byte, cmds []CmdRec, inFlight []InFlightCmd) []byte {
	for _, c := range cmds {
		buf = binary.AppendUvarint(buf, uint64(c.Dev))
		buf = binary.AppendUvarint(buf, uint64(c.App))
		buf = append(buf, c.Cmd...)
		buf = append(buf, 0, byte(c.Arg), byte(c.Arg>>8))
	}
	if len(inFlight) > 0 {
		buf = append(buf, 0xFC)
		for _, c := range inFlight {
			buf = binary.AppendUvarint(buf, uint64(c.Dev))
			buf = binary.AppendUvarint(buf, uint64(c.App))
			buf = append(buf, c.Cmd...)
			buf = append(buf, 0, byte(c.Arg), byte(c.Arg>>8))
			if c.Notified {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// AttrValue decodes a device attribute from the state as an ir.Value:
// enum attributes become their string value, numeric ones their number.
func (m *Model) AttrValue(s *State, dev int, attr string) (ir.Value, bool) {
	d := m.Devices[dev]
	i := d.AttrIndex(attr)
	if i < 0 {
		return ir.NullV(), false
	}
	v := decodeAttr(&d.Attrs[i], s.Devices[dev].Attrs[i])
	return v, v.Kind != ir.VNull
}

// reportedValue decodes a device attribute from the hub's stale
// Reported copy — what a handler sees while the device is offline
// under fault injection. Falls back to ground truth when the device
// carries no Reported vector.
func (m *Model) reportedValue(s *State, dev int, attr string) (ir.Value, bool) {
	ds := &s.Devices[dev]
	if ds.Reported == nil {
		return m.AttrValue(s, dev, attr)
	}
	d := m.Devices[dev]
	i := d.AttrIndex(attr)
	if i < 0 {
		return ir.NullV(), false
	}
	v := decodeAttr(&d.Attrs[i], ds.Reported[i])
	return v, v.Kind != ir.VNull
}
