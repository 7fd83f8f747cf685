//go:build race

package engine_test

// raceEnabled: sync.Pool drops items at random under the race detector,
// so allocation pins that pass through a buffer pool are not asserted.
const raceEnabled = true
