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
	if burstMax < 0 {
		burstMax = 0
	}
	return &pollPolicy{short: short, long: long, burstMax: burstMax}
}

// onSuccess records a successful read: the tunnel is active, so refill
// the burst budget. With no burst window configured (burstMax == 0)
// there is nothing to refill — the policy is a fixed long-interval
// poller.
func (p *pollPolicy) onSuccess() {
	if p.burstMax > 0 {
		p.burst = p.burstMax
	}
}

// onEmpty records an empty poll and returns how long to sleep before
// the next one. The burstMax == 0 guard matters: without it a stale
// positive budget (possible when the burst window is reconfigured to
// zero) would never decay past the `burst > 0` branch's refills and the
// poller would spin at the short interval forever; a zero budget must
// always degrade to plain long-interval polling.
func (p *pollPolicy) onEmpty() time.Duration {
	if p.burstMax <= 0 {
		p.burst = 0
		return p.long
	}
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

// readFailed handles a tunnel read that returned an error, for both
// read loops: an empty poll sleeps out the read-mode schedule (§3.1), a
// closed device ends the reader quietly, and anything else ends it
// loudly — counted in TunReadErrors, because the lanes close behind the
// reader and the engine relays nothing from then on. It reports whether
// the reader should read again.
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

// tunReader is the paper's dedicated tunnel read thread (§3.1), run at
// Workers=1: one Read, one push, one selector Wakeup per packet (§3.2),
// no flow-key peek. In blocking mode each read parks until a packet
// arrives: zero retrieval delay and zero empty wakeups. In poll modes
// it mirrors ToyVpn: non-blocking reads with sleeps between failures,
// and in adaptive mode the burst-then-back-off schedule of pollPolicy.
// Tables 1–2 are measured on this loop; the multi-worker pipeline runs
// tunReaderBatched instead.
//
// Both read loops test the running flag after the read, not before it:
// the read that Stop's dummy packet releases (§3.1) must be discarded,
// not relayed as a malformed packet.
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
		w.q.pushPacket(raw)
		w.sel.Wakeup()
	}
}

// tunReaderBatched is the multi-worker tunnel read thread: it retrieves
// packets in bursts of up to Config.ReadBatch (tun.ReadBatch pays the
// queue lock once per burst), peeks each packet's flow key straight out
// of the header bytes (packet.PeekFlowKey — no decode, no allocation),
// and scatters the burst into the per-worker SPSC rings. Routing on the
// reader removes any shared queue from the packet hot path. The
// read-mode schedule (§3.1) is unchanged, applied per burst.
func (e *Engine) tunReaderBatched() {
	defer e.wg.Done()
	defer e.closeLanes()
	policy := newPollPolicy(adaptiveShortPoll, e.readSleep(), adaptiveBurstPolls)
	batch := make([][]byte, e.cfg.ReadBatch)
	touched := make([]bool, len(e.workers))
	for {
		n, err := e.dev.ReadBatch(batch)
		if !e.isRunning() {
			return
		}
		if err != nil {
			if !e.readFailed(err, policy) {
				return
			}
			continue
		}
		policy.onSuccess()
		e.scatter(batch[:n], touched)
	}
}

// scatter routes one burst of raw tunnel packets to their pinned
// workers. PeekFlowKey applies exactly Decode's structural validation,
// so a packet rejected here (counted as a decode error) is one the
// worker would have rejected anyway. The workers that received packets
// are woken once each, after the whole burst is ringed — the per-burst
// amortisation of the per-packet Wakeup the single-worker reader pays
// (§3.2).
func (e *Engine) scatter(burst [][]byte, touched []bool) {
	for i, raw := range burst {
		burst[i] = nil // the ring owns the reference now
		key, err := packet.PeekFlowKey(raw)
		if err != nil {
			e.ctr.decodeErrors.Add(1)
			continue
		}
		shard := e.flows.Shard(key) % len(e.workers)
		e.workers[shard].q.pushPacket(raw)
		touched[shard] = true
	}
	e.ctr.readBatches.Add(1)
	e.ctr.batchedPackets.Add(int64(len(burst)))
	for i, t := range touched {
		if t {
			touched[i] = false
			e.workers[i].sel.Wakeup()
		}
	}
}
