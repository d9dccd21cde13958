//go:build !iotsan_skipmark

package model

// skipQueueMark gates a deliberate dirty-mark fault: when armed (see
// skipmark_on.go), enqueue appends to the queue block without calling
// markQueue. Normal builds keep the fault off; the iotsan_skipmark
// build tag arms it so the negative runtime-oracle test can prove the
// incremental-digest equivalence walk actually notices a missed mark.
const skipQueueMark = false

// skipDeviceMark gates the second fault: sensorUpdate writes a sensor
// attribute without calling markDevice (see skipmark_on.go).
const skipDeviceMark = false

// skipReadMark gates the third fault: DeviceAttr reads a device
// without calling readDevice (see skipmark_on.go).
const skipReadMark = false
