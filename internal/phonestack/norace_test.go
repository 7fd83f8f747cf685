//go:build !race

package phonestack

const raceEnabled = false
