package checker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// walBaseOpts is a chain-system search configuration whose full DFS
// explores a few thousand states — enough for several checkpoints at a
// small CheckpointEvery, cheap enough to run many kill/resume cycles.
func walBaseOpts(dir string) Options {
	return Options{
		MaxDepth:        20,
		Checkpoint:      true,
		StoreDir:        dir,
		CheckpointEvery: 64,
	}
}

func walChainSys() *chainSys { return &chainSys{bound: 13, bad: 24} }

// trailsOf renders every violation trail for exact comparison.
func trailsOf(res *Result) []string {
	var out []string
	for _, f := range res.Violations {
		out = append(out, FormatTrail(f))
	}
	return out
}

func assertSameRun(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.StatesExplored != want.StatesExplored || got.StatesMatched != want.StatesMatched ||
		got.StatesStored != want.StatesStored || got.MaxDepthReached != want.MaxDepthReached {
		t.Errorf("%s: counters diverge: got explored=%d matched=%d stored=%d depth=%d / want explored=%d matched=%d stored=%d depth=%d",
			name, got.StatesExplored, got.StatesMatched, got.StatesStored, got.MaxDepthReached,
			want.StatesExplored, want.StatesMatched, want.StatesStored, want.MaxDepthReached)
	}
	gt, wt := trailsOf(got), trailsOf(want)
	if len(gt) != len(wt) {
		t.Fatalf("%s: violation count %d != %d", name, len(gt), len(wt))
	}
	for i := range gt {
		if gt[i] != wt[i] {
			t.Errorf("%s: trail %d diverges:\n--- got ---\n%s\n--- want ---\n%s", name, i, gt[i], wt[i])
		}
	}
}

// TestWALKillResumeRoundTrip: a search killed mid-run (MaxStates cap
// standing in for the kill) resumes from its last durable checkpoint
// and finishes with the identical violation set, trails, and state
// counts as the uninterrupted search.
func TestWALKillResumeRoundTrip(t *testing.T) {
	sys := walChainSys()
	baseline := Run(sys, Options{MaxDepth: 20})
	if len(baseline.Violations) == 0 {
		t.Fatal("baseline found no violations — the round trip is vacuous")
	}

	dir := t.TempDir()
	killed := walBaseOpts(dir)
	killed.MaxStates = baseline.StatesExplored / 2
	if killed.MaxStates <= 2*killed.CheckpointEvery {
		t.Fatalf("workload too small: kill point %d vs checkpoint interval %d", killed.MaxStates, killed.CheckpointEvery)
	}
	kres := Run(sys, killed)
	if !kres.Truncated {
		t.Fatal("killed run was not truncated")
	}
	if kres.Store.Checkpoints == 0 {
		t.Fatal("killed run wrote no checkpoints")
	}

	resumed := walBaseOpts(dir)
	resumed.Resume = true
	rres := Run(sys, resumed)
	if !rres.Store.Resumed {
		t.Fatal("resume fell back to a fresh search despite an intact WAL")
	}
	if rres.Truncated {
		t.Fatal("resumed run truncated")
	}
	assertSameRun(t, "resume", rres, baseline)
}

// TestWALResumeWithoutCheckpoint: Resume alone arms the WAL — it
// resumes a killed checkpointed search to the uninterrupted result
// rather than silently starting over.
func TestWALResumeWithoutCheckpoint(t *testing.T) {
	sys := walChainSys()
	baseline := Run(sys, Options{MaxDepth: 20})

	dir := t.TempDir()
	killed := walBaseOpts(dir)
	killed.MaxStates = baseline.StatesExplored / 2
	if kres := Run(sys, killed); !kres.Truncated || kres.Store.Checkpoints == 0 {
		t.Fatalf("killed run: truncated=%v checkpoints=%d", kres.Truncated, kres.Store.Checkpoints)
	}

	resumed := walBaseOpts(dir)
	resumed.Checkpoint, resumed.Resume = false, true
	rres := Run(sys, resumed)
	if !rres.Store.Resumed {
		t.Fatal("Resume without Checkpoint started a fresh search")
	}
	assertSameRun(t, "resume-only", rres, baseline)
}

// TestWALKillResumeTiered: the same round trip through the tiered
// store with a spill-forcing budget — resume replays the visit log
// through tiered admission, so the rebuilt store spans hot and disk
// tiers.
func TestWALKillResumeTiered(t *testing.T) {
	sys := walChainSys()
	baseline := Run(sys, Options{MaxDepth: 20})

	dir := t.TempDir()
	mk := func() Options {
		o := walBaseOpts(filepath.Join(dir, "wal"))
		o.Store = Tiered
		o.MemBudget = 1
		return o
	}
	killed := mk()
	killed.MaxStates = baseline.StatesExplored / 2
	kres := Run(sys, killed)
	if !kres.Truncated || kres.Store.Checkpoints == 0 {
		t.Fatalf("killed run: truncated=%v checkpoints=%d", kres.Truncated, kres.Store.Checkpoints)
	}

	resumed := mk()
	resumed.Resume = true
	rres := Run(sys, resumed)
	if !rres.Store.Resumed {
		t.Fatal("resume fell back to a fresh search")
	}
	assertSameRun(t, "tiered-resume", rres, baseline)
	if rres.Store.StoredNew == 0 {
		t.Error("resumed run admitted nothing through the tiered store")
	}
}

// TestWALTruncatedTailResume: arbitrary tail damage — a half-written
// record (truncation) or trailing garbage — must cost at most the work
// since the last intact checkpoint, never correctness.
func TestWALTruncatedTailResume(t *testing.T) {
	sys := walChainSys()
	baseline := Run(sys, Options{MaxDepth: 20})

	for _, damage := range []struct {
		name string
		fn   func(t *testing.T, path string)
	}{
		{"truncate-mid-record", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-7); err != nil {
				t.Fatal(err)
			}
		}},
		{"trailing-garbage", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{'V', 0xFF, 0xFF, 0xFF, 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			killed := walBaseOpts(dir)
			killed.MaxStates = baseline.StatesExplored / 2
			kres := Run(sys, killed)
			if kres.Store.Checkpoints == 0 {
				t.Fatal("no checkpoints to damage")
			}
			damage.fn(t, filepath.Join(dir, walName))

			resumed := walBaseOpts(dir)
			resumed.Resume = true
			rres := Run(sys, resumed)
			if !rres.Store.Resumed {
				t.Fatal("resume fell back to fresh despite an intact checkpoint prefix")
			}
			assertSameRun(t, damage.name, rres, baseline)
		})
	}
}

// TestWALFingerprintMismatchFreshStart: a WAL written under different
// graph-shaping options must not be resumed — the run silently starts
// fresh and still completes correctly.
func TestWALFingerprintMismatchFreshStart(t *testing.T) {
	sys := walChainSys()
	dir := t.TempDir()
	killed := walBaseOpts(dir)
	killed.MaxStates = 500
	Run(sys, killed)

	resumed := walBaseOpts(dir)
	resumed.Resume = true
	resumed.MaxDepth = 19 // different fingerprint
	rres := Run(sys, resumed)
	if rres.Store.Resumed {
		t.Fatal("resumed across a configuration fingerprint mismatch")
	}
	baseline := Run(sys, Options{MaxDepth: 19})
	assertSameRun(t, "fingerprint-mismatch", rres, baseline)
}

// TestWALOlderDigestEpochFreshStart: a WAL whose header is the
// fingerprint the previous build wrote — no digest epoch; its V batches
// hold digests of the order-sensitive block fold — is abandoned, never
// replayed into a store keyed by this build's digests. The log itself is
// a valid one from this build with only the header record swapped, so
// nothing but the fingerprint can be what rejects it.
func TestWALOlderDigestEpochFreshStart(t *testing.T) {
	sys := walChainSys()
	dir := t.TempDir()
	killed := walBaseOpts(dir)
	killed.MaxStates = 500
	if kres := Run(sys, killed); kres.Store.Checkpoints == 0 {
		t.Fatal("killed run wrote no checkpoints")
	}

	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cur := walFingerprint(killed)
	body := data[1+uvarintLen(uint64(len(cur)))+len(cur)+4:] // everything after the H record
	old := []byte(fmt.Sprintf("%s store=%d depth=%d por=%v sym=%v nodedup=false",
		walMagic, killed.Store, killed.MaxDepth, killed.POR, killed.Symmetry))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := &wal{f: f}
	if err := w.writeRecord(recHeader, old); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(body); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	// The rewritten log is well-formed: under its own fingerprint it scans
	// to a checkpoint.
	if ck, _, _, serr := scanWAL(f, old); serr != nil || ck == nil {
		t.Fatalf("rewritten WAL does not scan under the older fingerprint (ck=%v err=%v)", ck, serr)
	}
	f.Close()

	resumed := walBaseOpts(dir)
	resumed.Resume = true
	rres := Run(sys, resumed)
	if rres.Store.Resumed {
		t.Fatal("resumed from a WAL written under an older digest epoch")
	}
	assertSameRun(t, "older-digest-epoch", rres, Run(sys, Options{MaxDepth: 20}))
}

// TestWALMissingFileFreshStart: Resume with no WAL present is a fresh
// search, not an error.
func TestWALMissingFileFreshStart(t *testing.T) {
	sys := walChainSys()
	opts := walBaseOpts(t.TempDir())
	opts.Resume = true
	res := Run(sys, opts)
	if res.Store.Resumed {
		t.Fatal("claimed resume with no WAL on disk")
	}
	baseline := Run(sys, Options{MaxDepth: 20})
	assertSameRun(t, "missing-wal", res, baseline)
}

// TestWALScanStopsAtEveryPrefix: scanning any byte-prefix of a valid
// WAL never errors and never returns a checkpoint beyond the prefix —
// the crash model is "power cut at an arbitrary offset".
func TestWALScanStopsAtEveryPrefix(t *testing.T) {
	sys := walChainSys()
	dir := t.TempDir()
	opts := walBaseOpts(dir)
	opts.MaxStates = 1500
	Run(sys, opts)

	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fpr := walFingerprint(opts)
	step := len(data)/97 + 1
	for cut := 0; cut <= len(data); cut += step {
		tmp := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(tmp, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(tmp)
		if err != nil {
			t.Fatal(err)
		}
		ck, _, end, serr := scanWAL(f, fpr)
		f.Close()
		if serr != nil {
			t.Fatalf("cut %d: scan error %v", cut, serr)
		}
		if int(end) > cut {
			t.Fatalf("cut %d: valid end %d beyond prefix", cut, end)
		}
		if ck != nil && ck.Seq <= 0 {
			t.Fatalf("cut %d: checkpoint with non-positive seq", cut)
		}
	}
}

// frameWAL and unframeWAL convert between a WAL and its records without the CRC
// tails: (type byte, uvarint payload length, payload) each. frame adds
// a valid CRC to every complete record and appends any incomplete tail
// unchanged; unframe strips the CRCs of a well-formed log.
func frameWAL(recs []byte) []byte {
	var out []byte
	for len(recs) > 0 {
		plen, m := binary.Uvarint(recs[1:])
		if m <= 0 || plen > uint64(len(recs)-1-m) {
			return append(out, recs...)
		}
		end := 1 + m + int(plen)
		crc := crc32.ChecksumIEEE(recs[:1])
		crc = crc32.Update(crc, crc32.IEEETable, recs[1+m:end])
		out = binary.LittleEndian.AppendUint32(append(out, recs[:end]...), crc)
		recs = recs[end:]
	}
	return out
}

func unframeWAL(log []byte) []byte {
	var out []byte
	for len(log) > 0 {
		plen, m := binary.Uvarint(log[1:])
		end := 1 + m + int(plen)
		out = append(out, log[:end]...)
		log = log[end+4:]
	}
	return out
}

// FuzzScanWAL: scanWAL returns on any log — it never panics, hangs, or
// reports a valid end past the bytes it read. The fuzzed input is the
// record stream without CRCs, which the harness adds, so mutations
// reach the record decoders instead of failing the checksum; the raw
// input is scanned as a log too. Seeds: a killed checkpointed run's
// log, its truncations, and a visit batch whose count overflows
// count×16 onto its real length.
func FuzzScanWAL(f *testing.F) {
	dir := f.TempDir()
	opts := walBaseOpts(dir)
	opts.MaxStates = 500
	if res := Run(walChainSys(), opts); res.Store.Checkpoints == 0 {
		f.Fatal("seed run wrote no checkpoints")
	}
	log, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	fpr := walFingerprint(opts)
	recs := unframeWAL(log)
	if !bytes.Equal(frameWAL(recs), log) {
		f.Fatal("unframe/frame does not round-trip the seed log")
	}
	for _, cut := range []int{len(recs), len(recs) * 3 / 4, len(recs) / 2, len(recs) / 4, len(fpr) + 3, 1} {
		f.Add(recs[:cut])
	}
	hdr := append(binary.AppendUvarint([]byte{recHeader}, uint64(len(fpr))), fpr...)
	overflow := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<60+1)
	overflow = append(overflow, make([]byte, 16)...)
	f.Add(append(binary.AppendUvarint(append(hdr, recVisits), uint64(len(overflow))), overflow...))

	f.Fuzz(func(t *testing.T, recs []byte) {
		for _, log := range [][]byte{frameWAL(recs), recs} {
			ck, visits, end, err := scanWAL(bytes.NewReader(log), fpr)
			if err != nil {
				t.Fatalf("scan error %v", err)
			}
			if end > int64(len(log)) {
				t.Fatalf("valid end %d past the %d-byte log", end, len(log))
			}
			if ck == nil && visits != nil {
				t.Fatal("visits returned without a checkpoint")
			}
		}
	})
}

// failingFile is a WAL file whose Sync fails once `ok` syncs have
// succeeded: a disk that fills up after the first checkpoints.
type failingFile struct {
	walFile
	ok int
}

func (f *failingFile) Sync() error {
	if f.ok == 0 {
		return fmt.Errorf("no space left on device")
	}
	f.ok--
	return f.walFile.Sync()
}

// TestWALFailureAfterFirstCheckpointIsReported: a checkpoint write that
// fails mid-run disarms the WAL but not the search, which finishes
// exactly as without checkpoints, and the result says so: the error and
// how many checkpoints were taken before it.
func TestWALFailureAfterFirstCheckpointIsReported(t *testing.T) {
	sys := walChainSys()
	want := Run(sys, Options{MaxDepth: 20})
	e, err := newEngine(sys, walBaseOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	e.wal.f = &failingFile{walFile: e.wal.f, ok: 1}
	sequentialDFS{}.search(e)
	got := e.finish()
	assertSameRun(t, "disarmed WAL", got, want)
	ss := got.Store
	if ss.Checkpoints != 1 || ss.CheckpointErr == nil || !strings.Contains(ss.CheckpointErr.Error(), "checkpoint 2") {
		t.Errorf("store stats %+v: want one checkpoint, then the error of checkpoint 2", ss)
	}
	if ss.CheckpointBytes == 0 {
		t.Error("the bytes of the checkpoint taken before the failure are not reported")
	}
	if clean := Run(sys, walBaseOpts(t.TempDir())); clean.Store.CheckpointErr != nil || clean.Store.Checkpoints < 2 {
		t.Errorf("a healthy WAL reports %d checkpoints and error %v", clean.Store.Checkpoints, clean.Store.CheckpointErr)
	}
}
