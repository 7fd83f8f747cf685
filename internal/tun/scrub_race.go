//go:build race

package tun

// scrub overwrites a released buffer before it is pooled, so a consumer
// that reads a packet after releasing it reads garbage under -race, and
// its content checks fail, instead of the next packet's bytes that an
// ordinary build would usually show only under load.
func scrub(b *[bufferSize]byte) {
	for i := range b {
		b[i] = 0xA5
	}
}
