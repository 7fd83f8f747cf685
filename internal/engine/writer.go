package engine

import (
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/tun"
)

// The tunnel write path of §3.5.1, with buffer pooling: every
// synthesised packet is encoded into an MTU-sized buffer drawn from a
// sync.Pool and recycled once the tunnel write has copied it out, so
// the encode hot path allocates nothing in steady state. That copy is
// also what lets the hops before it reuse their buffers: emit only
// borrows the packet (tcpsm's pooled segment) and its Payload (the
// worker's socket read buffer) and is done with both once AppendEncode
// returns. DESIGN.md, "Buffer
// ownership on the relay path", has the whole chain, one row per hop
// from the TUN read to the TUN write.

// encodeBufPool recycles encode buffers on the emit path.
var encodeBufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, tun.DefaultMTU)
		return &b
	},
}

// tunWriter drains the write queue into the tunnel (§3.5.1), one
// tunnel write per packet, at every worker count.
func (e *Engine) tunWriter() {
	defer e.wg.Done()
	for {
		raw, buf, ok := e.writeQ.take()
		if !ok {
			return
		}
		start := e.clk.Nanos()
		err := e.dev.Write(raw)
		d := time.Duration(e.clk.Nanos() - start)
		if buf != nil {
			encodeBufPool.Put(buf)
		}
		e.recordWrite(d, err == nil)
	}
}

// emit sends one synthesised packet toward the app, through the
// configured write scheme. This is the state machines' emit hook; it
// keeps neither p nor p.Payload past its return.
func (e *Engine) emit(p *packet.Packet) {
	buf := encodeBufPool.Get().(*[]byte)
	raw, err := p.AppendEncode((*buf)[:0])
	// Keep the (possibly regrown) backing array with the pool token so
	// a reallocation upgrades the pooled buffer instead of leaking it.
	*buf = raw[:0]
	if err != nil {
		encodeBufPool.Put(buf)
		return
	}
	if e.writeQ != nil {
		// Ownership of buf moves to TunWriter, which recycles it after
		// the tunnel write.
		e.writeQ.put(raw, buf)
		return
	}
	// directWrite: pay the tunnel write (and its contention) here, on
	// the producing thread.
	start := e.clk.Nanos()
	werr := e.dev.Write(raw)
	d := time.Duration(e.clk.Nanos() - start)
	encodeBufPool.Put(buf)
	e.recordWrite(d, werr == nil)
}

// recordWrite folds one tunnel write into the delay histogram and the
// packet counter.
func (e *Engine) recordWrite(d time.Duration, ok bool) {
	e.histMu.Lock()
	e.writeHist.Add(d)
	e.histMu.Unlock()
	if ok {
		e.ctr.packetsToTun.Add(1)
	}
}
