package tun

import "sync"

// bufferSize is the capacity of a pooled packet buffer: any packet up
// to a 1500-byte MTU, with room to spare, fits one. A larger packet
// gets a buffer of its own, which Release leaves to the GC.
const bufferSize = 2048

// buffers recycles packet buffers between the device and the consumers
// that release them. A buffer that is never released is simply
// collected, so the pool holds only what is idle between uses.
var buffers = sync.Pool{New: func() any { return new([bufferSize]byte) }}

// Buffer returns a buffer of length n for one packet: a pooled one when
// n fits bufferSize, a fresh one otherwise. Its bytes are not zeroed.
func Buffer(n int) []byte {
	if n > bufferSize {
		return make([]byte, n)
	}
	return buffers.Get().(*[bufferSize]byte)[:n]
}

// ReleaseBuffer returns a buffer that Buffer handed out to the pool:
// the buffer as Buffer returned it, or a prefix of it. The caller must
// not touch its bytes afterwards. A slice of any other capacity (an
// oversized packet, or a slice past the buffer's start) is left to the
// GC.
func ReleaseBuffer(buf []byte) {
	if cap(buf) != bufferSize {
		return
	}
	b := (*[bufferSize]byte)(buf[:bufferSize])
	scrub(b)
	buffers.Put(b)
}
