//go:build !race

package tcpsm

const raceEnabled = false
