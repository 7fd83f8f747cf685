//go:build race

package netsim

// raceEnabled: sync.Pool drops items at random under the race detector,
// so allocation pins that pass through recvBufs are not asserted.
const raceEnabled = true
