package engine

import (
	"errors"
	"time"

	"repro/internal/packet"
	"repro/internal/tun"
)

// The tunnel write path of §3.5.1, with buffer pooling: every
// synthesised packet is encoded into a buffer from the TUN buffer pool
// (tun.Buffer) and released once the tunnel write has copied it out,
// so the encode hot path allocates nothing in steady state. That copy
// is also what lets the hops before it reuse their buffers: emit only
// borrows the packet (tcpsm's pooled segment) and its Payload (the
// worker's socket read buffer) and is done with both once AppendEncode
// returns. DESIGN.md, "Buffer ownership on the relay path", has the
// whole chain, one row per hop from the TUN read to the TUN write.

// tunWriter drains the write queue into the tunnel (§3.5.1), one
// tunnel write per packet, at every worker count.
func (e *Engine) tunWriter() {
	defer e.wg.Done()
	for {
		raw, ok := e.writeQ.take()
		if !ok {
			return
		}
		e.writeTun(raw)
	}
}

// emit sends one synthesised packet toward the app, through the
// configured write scheme. This is the state machines' emit hook; it
// keeps neither p nor p.Payload past its return.
func (e *Engine) emit(p *packet.Packet) {
	buf := tun.Buffer(0)
	raw, err := p.AppendEncode(buf)
	if err != nil {
		tun.ReleaseBuffer(buf)
		return
	}
	if e.writeQ != nil {
		// Ownership of raw moves to TunWriter, which releases it after
		// the tunnel write.
		e.writeQ.put(raw)
		return
	}
	// directWrite: pay the tunnel write (and its contention) here, on
	// the producing thread.
	e.writeTun(raw)
}

// writeTun writes one encoded packet to the tunnel, releases its
// buffer (the device has copied it), and folds the write into the
// delay histogram and the packet or write-error counter. A write to a
// closed device is shutdown, not an error.
func (e *Engine) writeTun(raw []byte) {
	start := e.clk.Nanos()
	err := e.dev.Write(raw)
	d := time.Duration(e.clk.Nanos() - start)
	tun.ReleaseBuffer(raw)
	e.histMu.Lock()
	e.writeHist.Add(d)
	e.histMu.Unlock()
	switch {
	case err == nil:
		e.ctr.packetsToTun.Add(1)
	case !errors.Is(err, tun.ErrClosed):
		e.ctr.tunWriteErrors.Add(1)
	}
}
