package model

import (
	"bytes"
	"testing"
)

// TestEncodeWideFieldsNoAlias is the regression gate for the historical
// single-byte truncation of EventsUsed, Pending.SubIdx, Pending.Source,
// CmdRec.Dev, and CmdRec.App: each pair below collided byte-for-byte
// under the old encoding (values 256 apart truncate to the same byte,
// and negative pseudo-sources wrapped onto positive device indices), so
// configs with >255 subscriptions or devices silently aliased distinct
// states into one digest. The varint encoding must keep them distinct.
func TestEncodeWideFieldsNoAlias(t *testing.T) {
	pairs := []struct {
		name string
		a, b State
	}{
		{"EventsUsed", State{EventsUsed: 1}, State{EventsUsed: 257}},
		{"Pending.SubIdx",
			State{Queue: []Pending{{SubIdx: 1}}},
			State{Queue: []Pending{{SubIdx: 257}}}},
		{"Pending.Source",
			State{Queue: []Pending{{Source: -1}}},
			State{Queue: []Pending{{Source: 255}}}},
		{"CmdRec.Dev",
			State{Cmds: []CmdRec{{Dev: 0}}},
			State{Cmds: []CmdRec{{Dev: 256}}}},
		{"CmdRec.App",
			State{Cmds: []CmdRec{{App: 2}}},
			State{Cmds: []CmdRec{{App: 258}}}},
	}
	for _, p := range pairs {
		ea, eb := p.a.Encode(nil), p.b.Encode(nil)
		if bytes.Equal(ea, eb) {
			t.Errorf("%s: two distinct states alias to one encoding (%x)", p.name, ea)
		}
	}
}

// TestEncodeEmptyLogsAlikeNil: a transition resets the cascade command
// log by truncating it, so the backing array a clone or a scratch owns
// is reused; the encoders, the block hashes and the delta codec must not
// tell an empty log (or queue, or in-flight buffer) from a nil one.
func TestEncodeEmptyLogsAlikeNil(t *testing.T) {
	empty := State{Queue: make([]Pending, 0, 4), Cmds: make([]CmdRec, 0, 4), InFlight: make([]InFlightCmd, 0, 4)}
	var zero State
	if a, b := empty.Encode(nil), zero.Encode(nil); !bytes.Equal(a, b) {
		t.Errorf("empty logs encode as %x, nil logs as %x", a, b)
	}
	for _, b := range []int{empty.queueBlock(), empty.cmdsBlock()} {
		x, _ := encodeBlock(&empty, b, nil)
		if y, _ := encodeBlock(&zero, b, nil); !bytes.Equal(x, y) {
			t.Errorf("block %d: empty encodes as %x, nil as %x", b, x, y)
		}
	}
}
