package checker

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Write-ahead checkpoint log for the sequential DFS.
//
// The WAL is the one durable artifact of a checkpointed run, on any
// store (the tiered store's files are per-run scratch). Its record
// stream is:
//
//	H  header: magic + a fingerprint of the options that shape the
//	   explored graph; a resume under different options starts fresh.
//	V  visit batch: the (h1, h2) digests newly admitted to the visited
//	   store since the previous checkpoint, tagged with the sequence
//	   number of the checkpoint they belong to.
//	C  checkpoint: counters, the distinct violations found so far
//	   (trails fully materialized — strings only), and the DFS stack as
//	   one next-index per frame plus the frame state delta-encoded
//	   against its parent frame as (dirty mask, dirty block bytes).
//
// Every record is CRC-framed, and a V batch is written immediately
// before its C record, so a kill at any byte offset leaves a prefix
// that scans cleanly up to the last complete checkpoint: visits tagged
// beyond it are discarded (re-execution re-logs them) and the file is
// truncated back to that point before appending resumes.
//
// Resume does not decode states from bytes — the state encoding is
// deliberately lossy (CmdRec attribute/value strings and Time are not
// part of the state vector), so spilled vectors cannot reconstruct
// State objects. Instead the stack is rebuilt by deterministically
// re-stepping from the initial state along the recorded next-indices
// (the DFS invariant: a non-top frame's edge to its child is
// stubs[next-1]), and the spilled delta vectors serve as the
// end-to-end integrity check: DeltaApply(parent, delta) must reproduce
// the re-stepped child's encoding byte for byte. Any mismatch — a
// model change, a corrupt record — abandons the resume and starts
// fresh, which is always sound.

const (
	walMagic = "IOTSANWAL1"
	walName  = "wal.log"

	recHeader = 'H'
	recVisits = 'V'
	recCkpt   = 'C'

	defaultCheckpointEvery = 4096
)

// ckptData is the gob-encoded checkpoint payload.
type ckptData struct {
	Seq                         int64
	Explored, Matched, MaxDepth int64
	PORChoices, PORPruned       int64
	FaultTrs                    int64
	Violations                  []walFound
	Frames                      []walFrame
}

type walFound struct {
	Property, Detail string
	Depth            int
	Trail            []walStep
}

type walStep struct {
	Label string
	Steps []string
}

// walFrame is one DFS stack frame: the frame's next-index and its
// state spilled delta-encoded against the parent frame (Full marks a
// flat encoding — frame 0, and every frame on systems without the
// block-delta codec).
type walFrame struct {
	Next  int
	Delta []byte
	Full  bool
}

// walFile is what the log appends through: the WAL's *os.File.
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

type wal struct {
	f     walFile
	path  string
	seq   int64
	every int

	// pending buffers digests admitted to the store since the last
	// checkpoint; flushed as one V batch per checkpoint.
	pending []digest

	lastCkptExplored int64

	// Resume payload (consumed by sequentialDFS, nil after).
	resumeCk     *ckptData
	resumeVisits []digest

	bytes       int64
	checkpoints int64
	resumed     bool
}

// walDigestEpoch versions the digest values a V batch records. They
// come from engine.digest — the system's IncrementalDigest or a hash of
// its encoding — and a build that changes either function must bump it,
// so a log written under the old function is abandoned rather than
// replayed into a store keyed by the new one. 2: the block-hash fold
// became a position-salted sum.
const walDigestEpoch = 2

// walFingerprint serializes the options that determine the explored
// graph, plus the digest epoch. Limits (MaxStates, Deadline) are
// deliberately excluded: killing a run under one budget and resuming
// under another is the whole point.
func walFingerprint(opts Options) []byte {
	return []byte(fmt.Sprintf("%s store=%d depth=%d por=%v sym=%v digest=%d",
		walMagic, opts.Store, opts.MaxDepth, opts.POR, opts.Symmetry, walDigestEpoch))
}

func newWAL(opts Options) (*wal, error) {
	w := &wal{path: filepath.Join(opts.StoreDir, walName), every: opts.CheckpointEvery}
	if w.every <= 0 {
		w.every = defaultCheckpointEvery
	}
	if err := os.MkdirAll(opts.StoreDir, 0o755); err != nil {
		return nil, fmt.Errorf("checker: checkpoint WAL: %w", err)
	}
	fpr := walFingerprint(opts)
	if opts.Resume {
		if f, err := os.OpenFile(w.path, os.O_RDWR, 0o644); err == nil {
			ck, visits, validEnd, serr := scanWAL(f, fpr)
			if serr == nil && ck != nil {
				if terr := f.Truncate(validEnd); terr == nil {
					if _, serr := f.Seek(validEnd, io.SeekStart); serr == nil {
						w.f = f
						w.seq = ck.Seq
						w.resumeCk = ck
						w.resumeVisits = visits
						return w, nil
					}
				}
			}
			f.Close()
		}
	}
	if err := w.reset(fpr); err != nil {
		return nil, err
	}
	return w, nil
}

// reset starts (or restarts, when a resume is abandoned) an empty WAL.
func (w *wal) reset(fpr []byte) error {
	if w.f != nil {
		w.f.Close()
	}
	f, err := os.Create(w.path)
	if err != nil {
		return fmt.Errorf("checker: checkpoint WAL: %w", err)
	}
	w.f = f
	w.seq = 0
	w.pending = w.pending[:0]
	w.lastCkptExplored = 0
	w.resumeCk, w.resumeVisits = nil, nil
	return w.writeRecord(recHeader, fpr)
}

// disarmWAL closes the WAL, keeping its counters and err (nil when the
// run simply ended) for the result.
func (e *engine) disarmWAL(err error) {
	w := e.wal
	e.walStats = StoreStats{CheckpointBytes: w.bytes, Checkpoints: w.checkpoints, Resumed: w.resumed, CheckpointErr: err}
	w.close()
	e.wal = nil
}

func (w *wal) close() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// writeRecord frames and appends one record: type byte, uvarint
// payload length, payload, CRC32(type ∥ payload).
func (w *wal) writeRecord(typ byte, payload []byte) error {
	var hdr [binary.MaxVarintLen64 + 1]byte
	hdr[0] = typ
	n := binary.PutUvarint(hdr[1:], uint64(len(payload))) + 1
	// Package-level crc32 (not a hash.Hash): the digest funnel guards
	// state hashing, and this checksums log framing, not state bytes.
	crc := crc32.ChecksumIEEE(hdr[:1])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	for _, b := range [][]byte{hdr[:n], payload, tail[:]} {
		if _, err := w.f.Write(b); err != nil {
			return err
		}
		w.bytes += int64(len(b))
	}
	return nil
}

// maybeCheckpoint appends a (visits, checkpoint) pair when enough new
// states have been explored since the last one. Called at the top of
// the DFS loop, where the stack invariant (child of frame i is
// stubs[next-1]) holds. A failure disarms the WAL rather than the
// search, and the error is reported in StoreStats.CheckpointErr.
// matched is the DFS's count of duplicates not yet folded into
// e.matched; a checkpoint folds it first.
func (w *wal) maybeCheckpoint(e *engine, stack []dfsFrame, matched *int64, buf []byte) []byte {
	explored := e.explored.Load()
	if explored-w.lastCkptExplored < int64(w.every) {
		return buf
	}
	e.matched.Add(*matched)
	*matched = 0
	seq := w.seq + 1

	// V batch: uvarint seq, uvarint count, count × (h1, h2) LE pairs.
	vp := make([]byte, 0, 2*binary.MaxVarintLen64+16*len(w.pending))
	vp = binary.AppendUvarint(vp, uint64(seq))
	vp = binary.AppendUvarint(vp, uint64(len(w.pending)))
	for _, d := range w.pending {
		vp = binary.LittleEndian.AppendUint64(vp, d.h1)
		vp = binary.LittleEndian.AppendUint64(vp, d.h2)
	}

	ck := ckptData{
		Seq:        seq,
		Explored:   explored,
		Matched:    e.matched.Load(),
		MaxDepth:   e.maxDepth.Load(),
		PORChoices: e.porChoices.Load(),
		PORPruned:  e.porPruned.Load(),
		FaultTrs:   e.faultTrs.Load(),
	}
	for _, f := range e.found {
		wf := walFound{Property: f.Property, Detail: f.Detail, Depth: f.Depth}
		for _, st := range f.Trail {
			wf.Trail = append(wf.Trail, walStep{Label: st.Label, Steps: st.Steps})
		}
		ck.Violations = append(ck.Violations, wf)
	}
	ck.Frames, buf = snapshotFrames(e, stack, buf)

	var cb bytes.Buffer
	err := gob.NewEncoder(&cb).Encode(&ck)
	if err == nil {
		err = w.writeRecord(recVisits, vp)
	}
	if err == nil {
		err = w.writeRecord(recCkpt, cb.Bytes())
	}
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		e.disarmWAL(fmt.Errorf("checker: checkpoint %d: %w", seq, err))
		return buf
	}
	w.seq = seq
	w.checkpoints++
	w.pending = w.pending[:0]
	w.lastCkptExplored = explored
	return buf
}

// snapshotFrames spills the DFS stack: frame 0 (the initial state) as
// its flat encoding, every later frame delta-encoded against its
// parent through the block codec when the system has one — a stack
// frame differs from its parent by the few blocks one transition
// dirtied, so the spill is (dirty mask, dirty block bytes) instead of
// the full vector.
func snapshotFrames(e *engine, stack []dfsFrame, buf []byte) ([]walFrame, []byte) {
	frames := make([]walFrame, len(stack))
	for i := range stack {
		frames[i].Next = stack[i].next
		switch {
		case i == 0 || e.delta == nil:
			buf = stack[i].state.Encode(buf[:0])
			frames[i].Full = true
		default:
			buf = e.delta.DeltaEncode(stack[i].state, stack[i-1].state, buf[:0])
		}
		frames[i].Delta = append([]byte(nil), buf...)
	}
	return frames, buf
}

// scanWAL reads the record stream, tolerating arbitrary truncation:
// it returns the last complete checkpoint, the visit digests of every
// batch belonging to it or an earlier checkpoint, and the byte offset
// just past the checkpoint record (the point to truncate back to). A
// missing or mismatched header, or no complete checkpoint, yields a
// nil checkpoint — the caller starts fresh. A corrupt record length
// never allocates more than the bytes left in the log.
func scanWAL(f io.ReadSeeker, fpr []byte) (*ckptData, []digest, int64, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, nil, 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, 0, err
	}
	br := bufio.NewReader(f)
	var off int64

	readRecord := func() (byte, []byte, bool) {
		typ, err := br.ReadByte()
		if err != nil {
			return 0, nil, false
		}
		n := int64(1)
		plen, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, nil, false
		}
		n += int64(uvarintLen(plen))
		if plen > 1<<30 || plen > uint64(size-off-n) {
			return 0, nil, false
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return 0, nil, false
		}
		n += int64(plen)
		var tail [4]byte
		if _, err := io.ReadFull(br, tail[:]); err != nil {
			return 0, nil, false
		}
		n += 4
		crc := crc32.ChecksumIEEE([]byte{typ})
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != binary.LittleEndian.Uint32(tail[:]) {
			return 0, nil, false
		}
		off += n
		return typ, payload, true
	}

	typ, payload, ok := readRecord()
	if !ok || typ != recHeader || !bytes.Equal(payload, fpr) {
		return nil, nil, 0, nil
	}

	var batches []vbatch
	var last *ckptData
	var lastEnd int64
	for {
		typ, payload, ok := readRecord()
		if !ok {
			break
		}
		switch typ {
		case recVisits:
			seq, n := binary.Uvarint(payload)
			if n <= 0 {
				return nil, nil, 0, nil
			}
			cnt, m := binary.Uvarint(payload[n:])
			if m <= 0 {
				return nil, nil, 0, nil
			}
			rest := payload[n+m:]
			if len(rest)%16 != 0 || cnt != uint64(len(rest))/16 {
				return nil, nil, 0, nil
			}
			b := vbatch{seq: int64(seq), digests: make([]digest, 0, cnt)}
			for i := uint64(0); i < cnt; i++ {
				b.digests = append(b.digests, digest{
					h1: binary.LittleEndian.Uint64(rest[i*16:]),
					h2: binary.LittleEndian.Uint64(rest[i*16+8:]),
				})
			}
			batches = append(batches, b)
		case recCkpt:
			var ck ckptData
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
				return last, flattenBatches(batches, last), lastEnd, nil
			}
			last = &ck
			lastEnd = off
		}
	}
	return last, flattenBatches(batches, last), lastEnd, nil
}

// vbatch is one scanned V record: a visit batch tagged with the
// checkpoint sequence it belongs to.
type vbatch struct {
	seq     int64
	digests []digest
}

// flattenBatches concatenates the visit batches committed by the last
// intact checkpoint (seq ≤ ck.Seq); trailing batches belong to a
// checkpoint that never landed and are re-logged by re-execution.
func flattenBatches(batches []vbatch, ck *ckptData) []digest {
	if ck == nil {
		return nil
	}
	var out []digest
	for _, b := range batches {
		if b.seq <= ck.Seq {
			out = append(out, b.digests...)
		}
	}
	return out
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
