package engine

import (
	"repro/internal/packet"
	"repro/internal/sockets"
)

// The packet-processing core: Config.Workers copies of the paper's
// Figure-4 MainWorker. Each worker owns one selector and one packet
// ring, and its single Select wait point covers both (§3.2): sockets
// register with the selector of the worker that owns their flow's
// shard (selectorFor), so readiness is born on the thread that
// consumes it, and the TunReader wakes that same selector after
// pushing into the ring. All events of a flow are therefore drained by
// one pinned worker — per-flow packet order is preserved while
// distinct flows proceed in parallel — and no stage is shared between
// workers. Workers=1, the paper's configuration and the one every
// ablation measures, is simply len(workers) == 1. DESIGN.md ("Engine
// pipeline") lists the forks that remain and the paper table each one
// exists for.

// worker is one pinned packet-processing thread.
type worker struct {
	id  int
	q   *ringQ
	sel *sockets.Selector

	// Scratch only this worker's thread touches, reused for every
	// event so the relay path allocates neither: the Packet each
	// tunnel packet is decoded into, and the buffer each socket read
	// lands in.
	pkt     packet.Packet
	readBuf [16 * 1024]byte
}

// runWorker is the MainWorker loop: wait for work, then drain socket
// events and tunnel packets in interleaved batches (so a packet flood
// cannot starve socket events) until neither source makes progress.
// The MopEye loop waits by blocking in Select (§3.2). The
// Haystack-style arm (Config.MainLoopPoll > 0, Table 3) waits out a
// fixed sleep instead, so events arriving just after a drain wait out
// the entire next sleep, which batches the relay in poll-interval
// cycles. The worker exits only once the reader has closed the packet
// lane (its final act, after which no push can follow) and the ring is
// drained — exiting on the running flag alone could strand a reader
// blocked in a full-ring push with nobody left to make space.
func (e *Engine) runWorker(w *worker) {
	defer e.wg.Done()
	for !w.q.drained() {
		var keys []*sockets.SelectionKey
		if e.cfg.MainLoopPoll > 0 {
			e.clk.Sleep(e.cfg.MainLoopPoll)
			e.meter.AddWakeups(1)
			keys = w.sel.SelectNow()
		} else {
			keys = w.sel.Select()
		}
		for {
			progress := false
			for _, k := range keys {
				e.handleSocketKey(w, k)
				progress = true
			}
			for i := 0; i < 64; i++ {
				raw, ok := w.q.popPacket()
				if !ok {
					break
				}
				e.handleTunnelPacket(w, raw)
				progress = true
			}
			if !progress {
				break
			}
			keys = w.sel.SelectNow()
		}
	}
}
