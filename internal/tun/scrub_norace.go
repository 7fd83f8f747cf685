//go:build !race

package tun

// scrub is a no-op outside -race builds (see scrub_race.go).
func scrub(*[bufferSize]byte) {}
