package sockets

import (
	"net/netip"
	"time"

	"repro/internal/fifoq"
)

// UDPSocket is a blocking-mode UDP socket. MopEye's DNS relay runs each
// DNS transaction in a temporary thread with blocking send/receive so
// that the post-receive timestamp is accurate (§2.4).
type UDPSocket struct {
	p     *Provider
	local netip.AddrPort
	inbox fifoq.Inbox[[]byte]
}

// OpenUDP creates a UDP socket with an ephemeral local port.
func (p *Provider) OpenUDP() *UDPSocket {
	return &UDPSocket{p: p, local: netip.AddrPortFrom(p.phoneAddr, p.EphemeralPort())}
}

// LocalAddr returns the socket's local address.
func (u *UDPSocket) LocalAddr() netip.AddrPort { return u.local }

// Protect marks the socket VPN-exempt, same semantics as
// Channel.Protect.
func (u *UDPSocket) Protect() {
	u.p.mu.Lock()
	exempt := u.p.disallowed
	if !exempt {
		u.p.protects++
	}
	u.p.mu.Unlock()
	if exempt {
		return
	}
	if c := drawCost(u.p.Costs.Protect, u.p.rng, &u.p.mu); c > 0 {
		u.p.Clk.SleepFine(c)
	}
}

// SendTo transmits one datagram through whichever UDP exit is
// installed. Responses from the network are queued for Recv.
func (u *UDPSocket) SendTo(dst netip.AddrPort, payload []byte) {
	u.p.mu.Lock()
	send := u.p.sendUDP
	u.p.mu.Unlock()
	if send != nil {
		send(u.local, dst, payload, u.inbox.Push)
		return
	}
	if u.p.Net == nil {
		return // no substrate and no transport: datagram is dropped
	}
	u.p.Net.SendUDP(u.local, dst, payload, u.inbox.Push)
}

// Recv blocks until a datagram arrives or the timeout elapses, waking
// on the datagram itself (§2.4's timestamp).
func (u *UDPSocket) Recv(timeout time.Duration) ([]byte, error) {
	if msg, ok := u.inbox.Recv(u.p.Clk, timeout); ok {
		return msg, nil
	}
	if u.inbox.Closed() {
		return nil, ErrClosedChannel
	}
	return nil, ErrRecvTimeout
}

// TryRecv returns a queued datagram without blocking.
func (u *UDPSocket) TryRecv() ([]byte, bool) { return u.inbox.TryRecv() }

// Closed reports whether the socket has been released. The pooled UDP
// relay checks this after a session-table hit so a session the idle
// sweeper just expired is replaced instead of reused.
func (u *UDPSocket) Closed() bool { return u.inbox.Closed() }

// Close releases the socket, waking every receiver.
func (u *UDPSocket) Close() { u.inbox.Close() }
