//go:build iotsan_skipmark

// Negative runtime oracle for the mark contract. The iotsan_skipmark
// build tag arms three deliberate faults in the executors
// (internal/model/skipmark_on.go): enqueue appends pending invocations
// to the queue block without calling markQueue, sensorUpdate skips
// markDevice, and DeviceAttr skips readDevice. The walker must diverge
// on each of the three things a mark is: the record of a block whose
// cached hash is stale (the digest check), of what a scratch must copy
// back from the parent before its next step (the keyed check, with no
// block cache in play at all), and of the atoms a transition leaves
// stale (the valuation check) — and on what a read mark is, a block in
// the transition memo's key (the predict check, and the keyed check on
// the states the memo splices).
//
// Together with the dirtymark and readmark analyzers this closes the
// loop from both sides: the analyzers prove statically that every write
// and every transition read in the shipped code is paired with its
// mark, and these tests prove the walker is not vacuous — if a mark were
// ever skipped anyway, the walk would fail the build.
//
// Run with: go test -tags iotsan_skipmark -run TestSkipMark .
package iotsan_test

import "testing"

// skipMarkCaught asserts that the walker row diverges on the check, and
// returns what the walk found.
func skipMarkCaught(t *testing.T, name, check, fault string) *walkResult {
	t.Helper()
	row := walkRowNamed(name)
	r, err := row.result()
	if err != nil {
		t.Fatal(err)
	}
	d := r.div[check]
	if d.count == 0 {
		t.Fatalf("%s, yet all %d successors of %s passed the %s check: the walker would miss a real missed mark", fault, r.successors, row.name, check)
	}
	t.Logf("%s check caught %d divergences across %d successors of %s; first: %s", check, d.count, r.successors, row.name, d.first)
	return r
}

func TestSkipMarkOracleCatchesMissingQueueMark(t *testing.T) {
	skipMarkCaught(t, "group1", "digest", "markQueue was skipped on every enqueue")
}

func TestSkipMarkOracleCatchesMissedUndo(t *testing.T) {
	skipMarkCaught(t, "sequential2", "keyed", "markDevice was skipped on every sensor update")
}

func TestSkipMarkOracleCatchesStaleAtom(t *testing.T) {
	skipMarkCaught(t, "group1", "valuation", "markDevice was skipped on every sensor update")
}

// A missed read mark makes a memo entry serve a parent it does not fit:
// the predicted digest is wrong, and so is the state a splice of that
// entry builds, which the keyed check compares with Expand's.
func TestSkipMarkOracleCatchesMissingReadMark(t *testing.T) {
	skipMarkCaught(t, "memo-read", "predict", "readDevice was skipped on every DeviceAttr read")
	// The keyed check also trips on the skipped device mark; what
	// counts here is that it trips on spliced states.
	r := skipMarkCaught(t, "memo-read", "keyed", "readDevice was skipped on every DeviceAttr read")
	if r.splicedWrong == 0 {
		t.Fatalf("readDevice was skipped, yet every one of %d spliced states encodes as Expand's: the keyed check would miss a wrong splice", r.splices)
	}
	t.Logf("%d of %d spliced states encode differently from Expand's", r.splicedWrong, r.splices)
}
