//go:build race

package phonestack

// raceEnabled: sync.Pool drops items at random under the race detector,
// so allocation pins that pass through txPool are not asserted.
const raceEnabled = true
