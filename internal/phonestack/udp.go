package phonestack

import (
	"errors"
	"net/netip"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/fifoq"
	"repro/internal/packet"
	"repro/internal/procnet"
)

// UDPConn is an app-side UDP socket over the TUN.
type UDPConn struct {
	phone *Phone
	uid   int
	local netip.AddrPort
	inode uint64
	inbox fifoq.Inbox[*packet.Packet]
}

// OpenUDP creates a UDP socket for the app with the given UID.
func (p *Phone) OpenUDP(uid int) (*UDPConn, error) {
	if p.isClosed() {
		return nil, ErrPhoneDown
	}
	port := p.allocPort()
	u := &UDPConn{phone: p, uid: uid, local: netip.AddrPortFrom(p.addr, port)}
	p.mu.Lock()
	p.udp[port] = u
	p.mu.Unlock()
	u.inode = p.table.Add(procnet.Entry{
		Proto: procUDPProto(p.addr), Local: u.local,
		Remote: netip.AddrPortFrom(netip.IPv4Unspecified(), 0),
		State:  procnet.StateClose, UID: uid,
	})
	return u, nil
}

func procUDPProto(a netip.Addr) procnet.Proto {
	if a.Is4() {
		return procnet.UDP
	}
	return procnet.UDP6
}

// SendTo injects one datagram into the TUN.
func (u *UDPConn) SendTo(dst netip.AddrPort, payload []byte) error {
	if u.inbox.Closed() {
		return ErrClosed
	}
	if err := u.phone.inject(packet.UDPPacket(u.local, dst, payload)); err != nil {
		return err
	}
	u.phone.udpSent.Add(1)
	return nil
}

// deliver queues an inbound datagram (called by the demultiplexer).
func (u *UDPConn) deliver(pkt *packet.Packet) { u.inbox.Push(pkt) }

// Recv blocks until a datagram arrives or the timeout elapses. It
// returns the payload and the sender.
func (u *UDPConn) Recv(timeout time.Duration) ([]byte, netip.AddrPort, error) {
	if pkt, ok := u.inbox.Recv(u.phone.clk, timeout); ok {
		return pkt.Payload, pkt.Src(), nil
	}
	if u.inbox.Closed() {
		return nil, netip.AddrPort{}, ErrClosed
	}
	return nil, netip.AddrPort{}, ErrTimeout
}

// Close releases the socket, waking every receiver.
func (u *UDPConn) Close() {
	if !u.inbox.Close() {
		return
	}
	u.phone.mu.Lock()
	delete(u.phone.udp, u.local.Port())
	u.phone.mu.Unlock()
	u.phone.table.Remove(u.inode)
}

// ResolveResult reports one DNS transaction as the app experienced it.
type ResolveResult struct {
	Addr    netip.Addr
	Elapsed time.Duration
	RCode   uint8
}

// Resolve performs a DNS A lookup through the TUN: build query, send to
// the system resolver, await the matching response. This is the traffic
// MopEye's DNS measurement observes (§2.4).
func (p *Phone) Resolve(uid int, server netip.AddrPort, name string, timeout time.Duration) (ResolveResult, error) {
	u, err := p.OpenUDP(uid)
	if err != nil {
		return ResolveResult{}, err
	}
	defer u.Close()
	p.mu.Lock()
	id := uint16(p.rng.Uint32())
	p.mu.Unlock()
	q := dnsmsg.NewQuery(id, name, dnsmsg.TypeA)
	raw, err := q.Encode()
	if err != nil {
		return ResolveResult{}, err
	}
	start := p.clk.Nanos()
	if err := u.SendTo(server, raw); err != nil {
		return ResolveResult{}, err
	}
	deadline := p.clk.Nanos() + int64(timeout)
	for {
		remaining := time.Duration(deadline - p.clk.Nanos())
		if remaining <= 0 {
			return ResolveResult{}, ErrTimeout
		}
		payload, _, err := u.Recv(remaining)
		if err != nil {
			return ResolveResult{}, err
		}
		m, err := dnsmsg.Decode(payload)
		if err != nil || m.ID != id || !m.Response {
			continue // stray datagram; keep waiting
		}
		res := ResolveResult{
			Elapsed: time.Duration(p.clk.Nanos() - start),
			RCode:   m.RCode,
		}
		if m.RCode != dnsmsg.RCodeOK {
			return res, ErrNXDomain
		}
		for _, ans := range m.Answers {
			if a, ok := ans.Addr(); ok {
				res.Addr = a
				return res, nil
			}
		}
		return res, ErrNoAddress
	}
}

// Resolution errors.
var (
	ErrNXDomain  = errors.New("phonestack: NXDOMAIN")
	ErrNoAddress = errors.New("phonestack: response had no address record")
)
