package netsim

import (
	"net/netip"
)

// SendUDP transmits one datagram from src to dst. If a UDP service is
// registered at dst and neither direction drops the datagram, deliver is
// invoked (from a separate goroutine) with the response once it arrives
// back at the phone. There are no delivery guarantees, matching UDP: on
// loss or an unregistered destination, deliver is never called.
//
// LinkParams.Loss is drawn independently for the request and for the
// response — each one-way trip is its own gamble, as on a real path —
// so a transaction completes with probability (1-Loss)². The link is
// re-read for the return trip: if SetLink changes the path while the
// request is at the server (a handover), the response travels the new
// link's loss, delay and jitter.
//
// MopEye relays all UDP this way; DNS (port 53) is the case it measures
// (§2.4). The caller is responsible for retries and timeouts, as a real
// resolver is.
func (n *Network) SendUDP(src, dst netip.AddrPort, payload []byte, deliver func([]byte)) {
	if n.isClosed() {
		return
	}
	ls := n.linkFor(dst.Addr())
	link := ls.params()
	if n.drop(link.Loss) {
		return
	}
	svc, ok := n.lookupUDP(dst)
	if !ok {
		return // silently dropped; ICMP unreachable is not modelled
	}
	req := append([]byte(nil), payload...)
	if n.Loopback() {
		// Zero-delay loopback: the service answers inline on the
		// sender's thread — no per-datagram goroutine, no link or think
		// sleeps. What remains is exactly the engine-side datagram work.
		resp := svc.handler(req, src)
		if resp == nil {
			return
		}
		deliver(resp)
		return
	}
	outDelay := link.Delay + n.jitter(link.Jitter)
	if link.SharedQueue {
		outDelay += ls.reserve(n.clk.Nanos(), len(payload), false)
	}
	go func() {
		n.clk.Sleep(outDelay)
		if svc.think > 0 {
			n.clk.Sleep(svc.think)
		}
		resp := svc.handler(req, src)
		if resp == nil {
			return
		}
		// Independent per-direction draw, against the link as it is NOW
		// — the request may have been in flight across a SetLink.
		back := ls.params()
		if n.drop(back.Loss) {
			return
		}
		backDelay := back.Delay + n.jitter(back.Jitter)
		if back.SharedQueue {
			backDelay += ls.reserve(n.clk.Nanos(), len(resp), true)
		}
		n.clk.Sleep(backDelay)
		if n.isClosed() {
			return
		}
		deliver(resp)
	}()
}
