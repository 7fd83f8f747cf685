package tun

// Interface is the device seam between the relay engine and a TUN
// backend. Two implementations exist: the emulated *Device in this
// package (the default test substrate — deterministic, no privileges)
// and lintun.TUN (build tag "realtun"), which wraps a real Linux
// /dev/net/tun descriptor. The engine's reader and writer loops speak
// this interface, so they carry over to a real device unchanged.
type Interface interface {
	// Read retrieves the next outgoing IP packet from the device. In
	// blocking mode it waits; in non-blocking mode an empty device
	// returns ErrWouldBlock. A closed device returns ErrClosed.
	Read() ([]byte, error)

	// Write sends one IP packet to the device (engine → app direction).
	// Packets over the device MTU return ErrTooBig.
	Write(pkt []byte) error

	// InjectOutbound pushes a packet into the device's outbound (read)
	// side. The engine uses it to release a blocked Read during
	// shutdown — the §3.1 self-sent packet trick. Real backends may
	// implement it as a pure reader wakeup rather than an actual
	// packet.
	InjectOutbound(pkt []byte) error

	// SetBlocking switches the descriptor's read mode (fcntl F_SETFL /
	// IoUtils.setBlocking in §3.1).
	SetBlocking(b bool)

	// MTU reports the device MTU. Write rejects larger packets, and
	// the phone stack derives its MSS from it.
	MTU() int

	// Close tears the device down, waking blocked readers with
	// ErrClosed.
	Close()
}
