//go:build iotsan_skipmark

package model

// Armed by the iotsan_skipmark build tag: enqueue skips markQueue, so
// queue-block hashes go stale and the incremental digest diverges from
// the from-scratch digest. The tag-gated negative test at the repo
// root asserts the walk oracle catches the divergence — the runtime
// counterpart of the dirtymark analyzer's static check.
const skipQueueMark = true

// And sensorUpdate skips markDevice on its reporting path. Beyond the
// stale device-block hash, a scratch then never copies the sensor's
// block back from the parent: the keyed-vs-eager walk must diverge even
// on a model with no block cache at all.
const skipDeviceMark = true
