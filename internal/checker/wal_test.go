package checker

import (
	"fmt"
	"os"
	"path/filepath"
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
