package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"iotsan/internal/checker"
)

// Block-delta codec for the checkpoint WAL (checker.DeltaCodec).
//
// A DFS stack frame differs from its parent by exactly the blocks one
// transition dirtied, so the WAL spills each frame as (dirty mask,
// dirty block bytes) against its parent instead of the full state
// vector — PR 6's block structure doing double duty as the delta
// domain. The codec is defined purely in terms of the per-block
// encoders in state.go: DeltaApply reproduces the flat Encode output
// byte for byte by re-encoding the parent's clean blocks and splicing
// in the recorded dirty ones, which is what lets the resume path use
// deltas as an end-to-end integrity check against re-expansion.
//
// Dirtiness is decided by comparing the two states' per-block
// encodings directly (not the blockHash cache): the checkpoint runs
// once every few thousand states, and byte comparison cannot be fooled
// by a block-hash collision into recording a lossy delta.

// Delta wire format, versioned by the leading tag byte:
//
//	0x01  full: the child's flat encoding follows verbatim (frame 0,
//	      or parent/child shapes that the block codec cannot relate).
//	0x02  block delta: uvarint block count, then ceil(n/64) little-
//	      endian mask words, then for each set bit in index order a
//	      uvarint length + that block's encoding.
const (
	deltaTagFull  = 0x01
	deltaTagBlock = 0x02
)

var errDeltaMalformed = errors.New("model: malformed block delta")

func (a sysAdapter) DeltaEncode(child, parent checker.State, buf []byte) []byte {
	return a.m.DeltaEncode(child.(*State), parent.(*State), buf)
}

func (a sysAdapter) DeltaApply(parent checker.State, delta []byte, buf []byte) ([]byte, error) {
	return a.m.DeltaApply(parent.(*State), delta, buf)
}

// encodeBlock appends the single-block encoding of block b of s —
// exactly the bytes refreshBlocks hashes for that block, and exactly
// the slice of the flat encoding the block occupies. devRef reports,
// for an app block, whether the app's state references a device (the
// symmetry fold's devRefMask bit); it is false for every other block.
func encodeBlock(s *State, b int, buf []byte) (out []byte, devRef bool) {
	nDev, nApp := len(s.Devices), len(s.Apps)
	switch {
	case b == 0:
		return s.encodeHeader(buf), false
	case b <= nDev:
		return encodeDevice(buf, &s.Devices[b-1]), false
	case b <= nDev+nApp:
		return encodeApp(buf, &s.Apps[b-1-nDev], nil)
	case b == s.queueBlock():
		return encodeQueue(buf, s.Queue), false
	default:
		return encodeCmds(buf, s.Cmds, s.InFlight), false
	}
}

// DeltaEncode appends child's delta against parent to buf[:0]. Falls
// back to the full-encoding format when the two states do not share a
// block shape (Clone never changes device/app counts, so the fallback
// only triggers for unrelated states).
func (m *Model) DeltaEncode(child, parent *State, buf []byte) []byte {
	if len(child.Devices) != len(parent.Devices) || len(child.Apps) != len(parent.Apps) {
		buf = append(buf[:0], deltaTagFull)
		return child.Encode(buf)
	}
	nb := child.nBlocks()
	mw := maskWords(nb)

	// Pass 1: byte-compare per-block encodings to build the dirty mask.
	cbp := m.encBufs.Get().(*[]byte)
	pbp := m.encBufs.Get().(*[]byte)
	cb, pb := *cbp, *pbp
	var mask [8]uint64 // nBlocks ≤ 512 covers any realistic config
	if mw > len(mask) {
		buf = append(buf[:0], deltaTagFull)
		buf = child.Encode(buf)
		*cbp, *pbp = cb, pb
		m.encBufs.Put(cbp)
		m.encBufs.Put(pbp)
		return buf
	}
	for b := 0; b < nb; b++ {
		cb, _ = encodeBlock(child, b, cb[:0])
		pb, _ = encodeBlock(parent, b, pb[:0])
		if !bytes.Equal(cb, pb) {
			mask[b>>6] |= 1 << uint(b&63)
		}
	}

	// Pass 2: emit tag, shape, mask, then the dirty blocks in order.
	buf = append(buf[:0], deltaTagBlock)
	buf = binary.AppendUvarint(buf, uint64(nb))
	for w := 0; w < mw; w++ {
		buf = binary.LittleEndian.AppendUint64(buf, mask[w])
	}
	for b := 0; b < nb; b++ {
		if mask[b>>6]&(1<<uint(b&63)) == 0 {
			continue
		}
		cb, _ = encodeBlock(child, b, cb[:0])
		buf = binary.AppendUvarint(buf, uint64(len(cb)))
		buf = append(buf, cb...)
	}
	*cbp, *pbp = cb, pb
	m.encBufs.Put(cbp)
	m.encBufs.Put(pbp)
	return buf
}

// DeltaApply reconstructs the child's flat encoding into buf[:0] by
// re-encoding parent's clean blocks and splicing the delta's dirty
// block bytes in index order. The output equals child.Encode(nil) for
// the child DeltaEncode was given, by construction of encodeBlock.
func (m *Model) DeltaApply(parent *State, delta []byte, buf []byte) ([]byte, error) {
	if len(delta) == 0 {
		return nil, errDeltaMalformed
	}
	switch delta[0] {
	case deltaTagFull:
		return append(buf[:0], delta[1:]...), nil
	case deltaTagBlock:
	default:
		return nil, fmt.Errorf("model: unknown delta tag 0x%02x", delta[0])
	}
	rest := delta[1:]
	nb64, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, errDeltaMalformed
	}
	rest = rest[n:]
	nb := int(nb64)
	if nb != parent.nBlocks() {
		return nil, fmt.Errorf("model: delta block count %d does not match parent shape %d", nb, parent.nBlocks())
	}
	mw := maskWords(nb)
	if len(rest) < 8*mw {
		return nil, errDeltaMalformed
	}
	mask := make([]uint64, mw)
	for w := 0; w < mw; w++ {
		mask[w] = binary.LittleEndian.Uint64(rest[8*w:])
	}
	rest = rest[8*mw:]

	buf = buf[:0]
	for b := 0; b < nb; b++ {
		if mask[b>>6]&(1<<uint(b&63)) == 0 {
			buf, _ = encodeBlock(parent, b, buf)
			continue
		}
		blen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < blen {
			return nil, errDeltaMalformed
		}
		buf = append(buf, rest[n:n+int(blen)]...)
		rest = rest[n+int(blen):]
	}
	if len(rest) != 0 {
		return nil, errDeltaMalformed
	}
	return buf, nil
}
