//go:build race

package tcpsm

// raceEnabled: sync.Pool drops items at random under the race detector,
// so allocation pins that pass through segPool are loosened.
const raceEnabled = true
