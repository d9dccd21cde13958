package model_test

import (
	"bytes"
	"testing"

	"iotsan/internal/experiments"
	"iotsan/internal/model"
)

// deltaPair is one transition of the Table 8 model with the delta the
// checkpoint WAL would record for it.
type deltaPair struct {
	parent *model.State
	delta  []byte // DeltaEncode(child, parent)
	want   []byte // child.Encode
}

// FuzzDeltaApply feeds DeltaApply bytes read back from a checkpoint log,
// which may be torn or corrupt: it must return an error, never panic,
// and on a delta DeltaEncode wrote it must reproduce the child's
// encoding. The input picks one of the Table 8 model's transitions as
// the parent; the seeds are the real deltas of those transitions, their
// truncations, and a full-encoding delta.
func FuzzDeltaApply(f *testing.F) {
	sys, apps, err := experiments.Table8System()
	if err != nil {
		f.Fatal(err)
	}
	m, err := model.New(sys, apps, model.Options{MaxEvents: 3})
	if err != nil {
		f.Fatal(err)
	}
	var pairs []deltaPair
	for queue := []*model.State{m.Initial()}; len(queue) > 0 && len(pairs) < 48; queue = queue[1:] {
		for _, tr := range m.Expand(queue[0]) {
			child := tr.Next.(*model.State)
			pairs = append(pairs, deltaPair{parent: queue[0], delta: m.DeltaEncode(child, queue[0], nil), want: child.Encode(nil)})
			queue = append(queue, child)
		}
	}
	for i, p := range pairs {
		f.Add(uint8(i), p.delta)
		for _, cut := range []int{1, 2, len(p.delta) / 2, len(p.delta) - 1} {
			f.Add(uint8(i), p.delta[:cut])
		}
	}
	f.Add(uint8(0), append([]byte{0x01}, pairs[0].want...))
	f.Add(uint8(0), []byte{0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, i uint8, delta []byte) {
		p := pairs[int(i)%len(pairs)]
		out, err := m.DeltaApply(p.parent, delta, nil)
		if err != nil && out != nil {
			t.Fatalf("an error (%v) with %d bytes of output", err, len(out))
		}
		if bytes.Equal(delta, p.delta) && (err != nil || !bytes.Equal(out, p.want)) {
			t.Fatalf("a delta DeltaEncode wrote does not reproduce the child: err %v, %d bytes, want %d", err, len(out), len(p.want))
		}
	})
}
