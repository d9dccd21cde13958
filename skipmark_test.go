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

import (
	"testing"

	"iotsan/internal/model"
)

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

// A missed device mark leaves the sensor out of the blocks a memo entry
// writes, so a leaf lookup keeps the parent's value of the atoms reading
// it: the looked-up word goes stale, which the leaf check compares with
// the valuation of Expand's successor. The root package's tests arm the
// splice check, which re-steps every lookup and would refuse a wrong one
// before the walker saw it; this walk runs with it disarmed, so that what
// it shows is the leaf check's own teeth.
func TestSkipMarkOracleCatchesStaleLeafAtom(t *testing.T) {
	model.CheckSplices(false)
	defer model.CheckSplices(true)
	row := walkRowNamed("failures")
	m, err := row.c.model()
	if err != nil {
		t.Fatal(err)
	}
	r, err := walk(m, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := r.div["leaf"]
	if d.count == 0 {
		t.Fatalf("markDevice was skipped on every sensor update, yet all %d leaves looked up along %d successors of %s passed the leaf check: the walker would miss a stale looked-up atom", r.checked["leaf"], r.successors, row.name)
	}
	t.Logf("leaf check caught %d divergences across %d lookups of %s; first: %s", d.count, r.checked["leaf"], row.name, d.first)
}
