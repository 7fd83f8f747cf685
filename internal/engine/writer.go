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
// tunnel write per packet, at every worker count. While writes run
// back to back the end of one is the start of the next, so each costs
// one clock read; after take has waited, the next write starts from a
// fresh read, so its span never holds the wait.
func (e *Engine) tunWriter() {
	defer e.wg.Done()
	last := e.clk.Nanos()
	for {
		raw, waited, ok := e.writeQ.take()
		if !ok {
			return
		}
		if waited {
			last = e.clk.Nanos()
		}
		last = e.writeTun(last, raw)
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
	e.writeTun(e.clk.Nanos(), raw)
}

// writeTun writes one encoded packet to the tunnel, releases its
// buffer (the device has copied it), and folds the write, timed from
// start, into the delay histogram and the packet or write-error
// counter. It returns the clock at the write's end. A write to a
// closed device is shutdown, not an error.
func (e *Engine) writeTun(start int64, raw []byte) (end int64) {
	err := e.dev.Write(raw)
	end = e.clk.Nanos()
	tun.ReleaseBuffer(raw)
	e.histMu.Lock()
	e.writeHist.Add(time.Duration(end - start))
	e.histMu.Unlock()
	switch {
	case err == nil:
		e.ctr.packetsToTun.Add(1)
	case !errors.Is(err, tun.ErrClosed):
		e.ctr.tunWriteErrors.Add(1)
	}
	return end
}
