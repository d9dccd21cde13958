package model

import (
	"bytes"
	"testing"

	"iotsan/internal/checker"
)

// cloneTestModel is the cascade model with the fault layer on, so every
// device carries both an Attrs and a Reported header into the clone
// tests, and with the incremental cache on, as in every engine run.
func cloneTestModel(t *testing.T) *Model {
	return cascadeModelOpts(t, Options{MaxEvents: 3, Faults: true, MaxFaults: 1, Incremental: true})
}

// scribble gives every attribute of s a distinct non-default value.
func scribble(s *State, base int16) {
	for i := range s.attrs {
		s.attrs[i] = base + int16(i)
	}
	for i := range s.reported {
		s.reported[i] = base + 100 + int16(i)
	}
	s.Devices[0].Online = false
	s.Devices[0].LastReport = 2
	s.MarkAllDirty()
}

// checkHeadersOwn asserts every device header of s is exactly the
// matching window of s's own backing arrays.
func checkHeadersOwn(t *testing.T, s *State) {
	t.Helper()
	off := 0
	for i := range s.Devices {
		d := &s.Devices[i]
		k := len(d.Attrs)
		if k == 0 {
			t.Fatalf("device %d has no attributes; the test needs real headers", i)
		}
		if &d.Attrs[0] != &s.attrs[off] || cap(d.Attrs) != k {
			t.Errorf("device %d: Attrs header does not alias attrs[%d:%d]", i, off, off+k)
		}
		if len(d.Reported) != k || &d.Reported[0] != &s.reported[off] || cap(d.Reported) != k {
			t.Errorf("device %d: Reported header does not alias reported[%d:%d]", i, off, off+k)
		}
		off += k
	}
	if off != len(s.attrs) {
		t.Errorf("headers cover %d of %d attributes", off, len(s.attrs))
	}
}

// checkWritesStayHome writes through every device header of c and
// asserts none of the bystanders' encodings moved.
func checkWritesStayHome(t *testing.T, c *State, bystanders ...*State) {
	t.Helper()
	before := make([][]byte, len(bystanders))
	for i, b := range bystanders {
		before[i] = b.Encode(nil)
	}
	for i := range c.Devices {
		for j := range c.Devices[i].Attrs {
			c.Devices[i].Attrs[j] = -7
			c.Devices[i].Reported[j] = -9
		}
	}
	c.MarkAllDirty()
	for i, b := range bystanders {
		if !bytes.Equal(b.Encode(nil), before[i]) {
			t.Errorf("a write through the clone's device headers reached bystander %d", i)
		}
	}
}

// TestCloneIntoKeepsHeadersPrivate: a clone built in a recycled state
// encodes exactly as a fresh clone does, its kept device headers alias
// its own backing arrays, and writes through them reach neither the
// source nor any live state — on the direct path and through the
// model's Recycle → Clone free-list.
func TestCloneIntoKeepsHeadersPrivate(t *testing.T) {
	m := cloneTestModel(t)
	src := m.Initial()
	scribble(src, 1)
	live := src.Clone()
	want := src.cloneFresh().Encode(nil)

	dead := m.Initial() // a previous life with other content
	scribble(dead, 50)
	dead.Devices[0].Online, dead.Devices[0].LastReport = true, 0
	c := src.cloneInto(dead)
	if c != dead {
		t.Fatal("a same-shape recycled state must be reused, not replaced")
	}
	if got := c.Encode(nil); !bytes.Equal(got, want) {
		t.Errorf("recycled clone encodes differently from a fresh clone:\n got %x\nwant %x", got, want)
	}
	wantH, _ := m.IncrementalDigest(src.cloneFresh(), false)
	if h, _ := m.IncrementalDigest(c, false); h != wantH {
		t.Error("recycled clone digests differently from a fresh clone")
	}
	checkHeadersOwn(t, c)
	checkWritesStayHome(t, c, src, live)

	// The same through the free-list. sync.Pool may drop a state (it
	// does at random under the race detector), so the assertions hold
	// whichever path Clone took.
	rec := m.System().(checker.StateRecycler)
	for i := 0; i < 8; i++ {
		victim := src.Clone()
		scribble(victim, int16(60+i))
		rec.Recycle(victim)
		c := src.Clone()
		if got := c.Encode(nil); !bytes.Equal(got, want) {
			t.Fatalf("round %d: clone after Recycle encodes differently from a fresh clone", i)
		}
		checkHeadersOwn(t, c)
		checkWritesStayHome(t, c, src, live)
	}
}

// TestCloneIntoRepairsForeignHeaders: the kept headers are verified,
// not trusted. A recycled state whose headers were re-pointed — at a
// foreign array, at the source's own backing, or to the wrong length —
// comes back repaired, and a state of another shape degrades to a fresh
// clone.
func TestCloneIntoRepairsForeignHeaders(t *testing.T) {
	m := cloneTestModel(t)
	src := m.Initial()
	scribble(src, 1)
	want := src.cloneFresh().Encode(nil)

	dead := src.cloneFresh()
	k0, k1 := len(dead.Devices[0].Attrs), len(dead.Devices[1].Attrs)
	dead.Devices[0].Attrs = make([]int16, k0)          // foreign backing array
	dead.Devices[0].Reported = src.Devices[0].Reported // the source's backing: the dangerous one
	dead.Devices[1].Attrs = dead.attrs[k0 : k0+k1-1]   // right array, wrong length
	dead.Devices[1].Reported = dead.reported[0:k1]     // right array, wrong window
	c := src.cloneInto(dead)
	if c != dead {
		t.Fatal("re-pointed headers must be repaired in place")
	}
	if got := c.Encode(nil); !bytes.Equal(got, want) {
		t.Errorf("repaired clone encodes differently from a fresh clone:\n got %x\nwant %x", got, want)
	}
	checkHeadersOwn(t, c)
	checkWritesStayHome(t, c, src)

	other := src.cloneFresh()
	other.attrs = other.attrs[:len(other.attrs)-1]
	c = src.cloneInto(other)
	if c == other {
		t.Fatal("a recycled state of another shape must fall back to a fresh clone")
	}
	if got := c.Encode(nil); !bytes.Equal(got, want) {
		t.Error("fallback clone encodes differently from a fresh clone")
	}
	checkHeadersOwn(t, c)
}

// TestCloneIntoZeroAlloc extends the allocation gates to the recycled
// clone: with a warm free-list entry a clone allocates nothing — the
// state, both flat arrays, every header and the block-hash cache are
// reused.
func TestCloneIntoZeroAlloc(t *testing.T) {
	m := cloneTestModel(t)
	src := m.Initial()
	scribble(src, 1)
	dead := src.Clone()
	if allocs := testing.AllocsPerRun(200, func() {
		if src.cloneInto(dead) != dead {
			t.Fatal("recycled state not reused")
		}
	}); allocs != 0 {
		t.Errorf("recycled clone allocates %.2f times, want 0", allocs)
	}
}
