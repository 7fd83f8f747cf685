package engine

import (
	"errors"
	"time"

	"repro/internal/packet"
	"repro/internal/tun"
)

// adaptiveBurstPolls is how many empty polls after activity keep the
// short poll interval before the reader backs off to the configured
// sleep — ToyVpn's "intelligent sleeping" burst window.
const adaptiveBurstPolls = 8

// adaptiveShortPoll is the burst-phase poll interval.
const adaptiveShortPoll = time.Millisecond

// pollPolicy implements the ReadPollAdaptive sleep schedule (§3.1):
// while packets are arriving, empty polls sleep only the short
// interval so a burst is drained with low latency; once the burst
// budget is spent without a successful read, the poller backs off to
// the long interval to stop burning wakeups on an idle tunnel. Any
// successful read refills the budget.
type pollPolicy struct {
	short    time.Duration
	long     time.Duration
	burstMax int
	burst    int
}

func newPollPolicy(short, long time.Duration, burstMax int) *pollPolicy {
	return &pollPolicy{short: short, long: long, burstMax: burstMax}
}

// onSuccess records a successful read: the tunnel is active, so refill
// the burst budget.
func (p *pollPolicy) onSuccess() { p.burst = p.burstMax }

// onEmpty records an empty poll and returns how long to sleep before
// the next one.
func (p *pollPolicy) onEmpty() time.Duration {
	if p.burst > 0 {
		p.burst--
		return p.short
	}
	return p.long
}

// readSleep resolves the configured poll interval.
func (e *Engine) readSleep() time.Duration {
	if e.cfg.PollInterval > 0 {
		return e.cfg.PollInterval
	}
	return 100 * time.Millisecond
}

// readFailed handles a tunnel read that returned an error: an empty
// poll sleeps out the read-mode schedule (§3.1), a closed device ends
// the reader quietly, and anything else ends it loudly — counted in
// TunReadErrors, because the lanes close behind the reader and the
// engine relays nothing from then on. It reports whether the reader
// should read again.
func (e *Engine) readFailed(err error, policy *pollPolicy) bool {
	if errors.Is(err, tun.ErrWouldBlock) {
		e.meter.AddWakeups(1)
		if e.cfg.ReadMode == ReadPollAdaptive {
			e.clk.Sleep(policy.onEmpty())
		} else {
			e.clk.Sleep(policy.long)
		}
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
// zero empty wakeups. In poll modes it mirrors ToyVpn: non-blocking
// reads with sleeps between failures, and in adaptive mode the
// burst-then-back-off schedule of pollPolicy. Tables 1–2 are measured
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
	policy := newPollPolicy(adaptiveShortPoll, e.readSleep(), adaptiveBurstPolls)
	for {
		raw, err := e.dev.Read()
		if !e.isRunning() {
			return
		}
		if err != nil {
			if !e.readFailed(err, policy) {
				return
			}
			continue
		}
		// A successful read loops again immediately: bursts are
		// drained without sleeping at all.
		policy.onSuccess()
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
