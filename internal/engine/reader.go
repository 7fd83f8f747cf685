package engine

import (
	"errors"
	"time"

	"repro/internal/packet"
	"repro/internal/tun"
)

// readFailed handles a tunnel read that returned an error: an empty
// poll sleeps out the poll interval (§3.1), a closed device ends the
// reader quietly, and anything else ends it loudly — counted in
// TunReadErrors, because the lanes close behind the reader and the
// engine relays nothing from then on. It reports whether the reader
// should read again.
func (e *Engine) readFailed(err error, sleep time.Duration) bool {
	if errors.Is(err, tun.ErrWouldBlock) {
		e.meter.AddWakeups(1)
		e.clk.Sleep(sleep)
		return true
	}
	if !errors.Is(err, tun.ErrClosed) {
		e.ctr.tunReadErrors.Add(1)
	}
	return false
}

// closeLanes is the reader's final act. It is the packet lanes' only
// producer, so it closes them; each worker then drains its ring and
// exits.
func (e *Engine) closeLanes() {
	for _, w := range e.workers {
		w.q.closePackets()
	}
}

// tunReader is the paper's dedicated tunnel read thread (§3.1): one
// Read, one push, one selector Wakeup per packet (§3.2). In blocking
// mode each read parks until a packet arrives: zero retrieval delay and
// zero empty wakeups. In poll mode it mirrors ToyVpn: non-blocking
// reads with a fixed sleep between failures. Tables 1–2 are measured
// on this loop at Workers=1.
//
// With more than one worker the loop adds one routing step: it peeks
// the packet's flow key straight out of the header bytes
// (packet.PeekFlowKey — no decode, no allocation) and hands the packet
// to the worker owning that flow's shard, so a flow's packets all land
// in one ring, in order. PeekFlowKey applies exactly Decode's
// structural validation, so a packet it rejects is counted as one
// decode error and dropped here, where the worker would have dropped
// it.
//
// The loop tests the running flag after the read, not before it: the
// read that Stop's dummy packet releases (§3.1) must be discarded, not
// relayed as a malformed packet.
func (e *Engine) tunReader() {
	defer e.wg.Done()
	defer e.closeLanes()
	w := e.workers[0]
	sleep := e.cfg.PollInterval
	for {
		raw, err := e.dev.Read()
		if !e.running.Load() {
			return
		}
		if err != nil {
			if !e.readFailed(err, sleep) {
				return
			}
			continue
		}
		// A successful read loops again immediately: bursts are
		// drained without sleeping at all.
		if len(e.workers) > 1 {
			key, err := packet.PeekFlowKey(raw)
			if err != nil {
				e.ctr.decodeErrors.Add(1)
				e.dev.Release(raw)
				continue
			}
			w = e.workers[e.flows.Shard(key)%len(e.workers)]
		}
		w.q.pushPacket(raw)
		w.sel.Wakeup()
	}
}
