// Package sniffer is the tcpdump stand-in: it taps the simulated
// network at the phone's interface and derives ground-truth RTTs by
// pairing each connection's SYN with its SYN-ACK, exactly how the paper
// validates MopEye's accuracy (§4.1.1, Table 2).
//
// It keeps handshakes only: the SYNs still awaiting their SYN-ACK, and
// per remote the RTTs of completed handshakes in completion order, 8 B
// each. It keeps no packet trace.
package sniffer

import (
	"net/netip"
	"sync"
	"time"

	"repro/internal/netsim"
)

// flowKey identifies one handshake in flight. Keying pending SYNs by
// the (local, remote) pair — not local alone — keeps two overlapping
// handshakes from the same local port (a close/redial, or concurrent
// dials to different servers) from pairing one connection's SYN with
// the other's SYN-ACK.
type flowKey struct {
	local  netip.AddrPort
	remote netip.AddrPort
}

// Sniffer pairs handshakes seen on the wire.
type Sniffer struct {
	mu      sync.Mutex
	pending map[flowKey]int64                  // flow -> SYN time (latest attempt)
	rtts    map[netip.AddrPort][]time.Duration // remote -> handshake RTTs
}

// New creates a sniffer and attaches it to the network.
func New(n *netsim.Network) *Sniffer {
	s := &Sniffer{pending: make(map[flowKey]int64), rtts: make(map[netip.AddrPort][]time.Duration)}
	n.AddSniffer(s.observe)
	return s
}

func (s *Sniffer) observe(ev netsim.WireEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := flowKey{local: ev.Local, remote: ev.Remote}
	switch ev.Kind {
	case netsim.EventSYN:
		// A retransmitted SYN overwrites the earlier timestamp: tcpdump
		// users pair the SYN-ACK with the SYN that elicited it.
		s.pending[key] = ev.At
	case netsim.EventSYNACK:
		if at, ok := s.pending[key]; ok {
			delete(s.pending, key)
			s.rtts[ev.Remote] = append(s.rtts[ev.Remote], time.Duration(ev.At-at))
		}
	case netsim.EventRST:
		delete(s.pending, key)
	}
}

// RTTsTo returns the RTTs of handshakes to one destination, in
// milliseconds, in the order the handshakes completed.
func (s *Sniffer) RTTsTo(remote netip.AddrPort) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, rtt := range s.rtts[remote] {
		out = append(out, rtt.Seconds()*1000)
	}
	return out
}
