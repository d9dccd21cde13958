// Package readmark is the golden fixture for the readmark analyzer: a
// miniature State with read helpers, block-annotated storage, transition
// code that pairs its reads and code that does not, writes that need no
// read helper, code outside any transition, and the suppression paths.
package readmark

// Dev mirrors model.DevState: the type-level annotation puts every field
// in the device block, covering reads through aliased pointers.
//
//iotsan:block device
type Dev struct {
	Online bool
	Attrs  []int16
}

// State mirrors model.State's annotated storage layout.
type State struct {
	Mode    uint8 //iotsan:block header
	Events  int   //iotsan:block header
	Devices []Dev //iotsan:block device
}

// exec mirrors model.executor: every method is transition code.
//
//iotsan:transition
type exec struct {
	s     *State
	reads uint64
}

//iotsan:reads header
func (x *exec) readMode() { x.reads |= 1 }

//iotsan:reads header
func (x *exec) readNow() { x.reads |= 2 }

// readDevice is exempt although it reads device storage itself.
//
//iotsan:reads device
func (x *exec) readDevice(d int) { x.reads |= 4 << uint(len(x.s.Devices[:d])) }

// goodMode pairs the header read with a header read helper.
func (x *exec) goodMode() bool {
	x.readMode()
	return x.s.Mode == 2
}

// goodAlias reads through a *Dev alias and pairs it.
func (x *exec) goodAlias(d int) bool {
	x.readDevice(d)
	dev := &x.s.Devices[d]
	return dev.Online
}

// goodWrite only writes: a plain assignment target is not a read.
func (x *exec) goodWrite(d int, v int16) {
	x.s.Devices[d].Attrs[0] = v
	x.s.Mode = 1
}

// goodRange pairs a range over device storage.
func (x *exec) goodRange() (n int) {
	x.readDevice(0)
	for _, d := range x.s.Devices {
		if d.Online {
			n++
		}
	}
	return n
}

func (x *exec) badMode() bool {
	return x.s.Mode == 3 // want `read of header-block state is not paired with readMode or readNow`
}

func (x *exec) badAlias(d int) bool {
	dev := &x.s.Devices[d] // want `read of device-block state is not paired with readDevice`
	return dev.Online
}

// badIncrement: an increment reads what it writes.
func (x *exec) badIncrement() {
	x.s.Events++ // want `read of header-block state`
}

// badIndex: an index inside an assignment target is evaluated.
func (x *exec) badIndex(d int) {
	x.s.Devices[x.s.Mode].Online = true // want `read of header-block state`
}

// badClosure: a function literal's body belongs to its function.
func (x *exec) badClosure() func() int {
	return func() int {
		return len(x.s.Devices) // want `read of device-block state`
	}
}

// begin is transition code by annotation.
//
//iotsan:transition
func begin(s *State) int {
	return s.Events // want `read of header-block state`
}

// outside is no transition code: its reads need no helper.
func outside(s *State) int { return s.Events + int(s.Mode) }

// allowedRead carries a justified suppression.
func (x *exec) allowedRead() int {
	return x.s.Events //iotsan:allow readmark -- fixture: the clock advances on the parent's own header
}

// allowedFunc carries a function-scope justified suppression.
//
//iotsan:transition
//iotsan:allow readmark -- fixture: never memoized
func allowedFunc(s *State) bool { return s.Devices[0].Online }

// bareAllow's suppression lacks the mandatory justification.
func (x *exec) bareAllow() uint8 {
	//iotsan:allow readmark want `requires a justification`
	return x.s.Mode // want `read of header-block state`
}
