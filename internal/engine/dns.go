package engine

import (
	"errors"

	"repro/internal/dnsmsg"
	"repro/internal/measure"
	"repro/internal/packet"
	"repro/internal/tcpsm"
)

// newMachine adapts tcpsm.New for the engine.
func newMachine(syn *packet.Packet, iss uint32, emit func(*packet.Packet)) (*tcpsm.Machine, error) {
	return tcpsm.New(syn, iss, emit)
}

// handleTunnelUDP relays a UDP datagram. DNS (port 53) is measured; all
// other UDP is relayed without measurement (§2.2: "MopEye currently
// supports only DNS measurement (though it relays all UDP packets)").
//
// The paper ran each transaction in a temporary thread so an
// application-layer protocol never blocks the VpnService main thread
// (§2.4). The pooled relay (udprelay.go) keeps that property — this
// call is one non-blocking channel send — while bounding goroutines and
// sockets under flood: a pool worker finds or creates the flow's
// NAT-style session and runs the blocking send/receive on its socket.
func (e *Engine) handleTunnelUDP(pkt *packet.Packet) {
	// pkt.Payload aliases raw, which the device gets back when this
	// returns, so the pool worker gets a copy of its own.
	e.udp.relay(packet.Flow(pkt), append([]byte(nil), pkt.Payload...))
}

// dnsTransaction measures one DNS query/response RTT and relays the
// response back to the app. Runs on a pooled relay worker; the
// timestamps stay immediately around the blocking send/receive pair,
// which is what makes the measurement accurate (§2.4).
func (e *Engine) dnsTransaction(s *udpSession, query []byte) {
	domain := ""
	if q, err := dnsmsg.Decode(query); err == nil {
		domain = q.QueryName()
	}
	t0 := e.clk.Nanos()
	s.sock.SendTo(s.flow.Dst, query)
	resp, err := e.udp.dnsRecv(s.sock)
	t1 := e.clk.Nanos()
	if errors.Is(err, errDNSShed) {
		e.ctr.udpDropped.Add(1)
		return
	}
	if err != nil {
		// The app's own resolver timeout handles retries; the failure is
		// still counted so a dying resolver is visible in Stats.
		e.ctr.dnsTimeouts.Add(1)
		return
	}
	e.ctr.dnsMeasurements.Add(1)
	e.traffic.dns("system.dns")
	e.record(measure.KindDNS, "system.dns", 0, s.flow.Dst, domain, timeDuration(t1-t0))
	// Relay the response to the app, source-spoofed as the server the
	// way the tunnel would present it.
	e.emit(packet.UDPPacket(s.flow.Dst, s.flow.Src, resp))
}

// udpForward relays one non-DNS datagram through the session socket and
// relays back at most one response within the UDP timeout (late ones
// are forwarded by the next datagram's stale drain). Sent and received
// bytes are attributed to the owning app in the traffic book. Every
// datagram ends in exactly one counter — UDPRelayed on a response,
// UDPNoResponse on a closed window — so lossy paths are visible in
// Stats instead of silently deflating UDPRelayed.
func (e *Engine) udpForward(s *udpSession, payload []byte) {
	e.ctr.udpBytesUp.Add(int64(len(payload)))
	e.traffic.udp(s.app, int64(len(payload)), 0)
	s.sock.SendTo(s.flow.Dst, payload)
	resp, err := s.sock.Recv(e.cfg.UDPTimeout)
	if err != nil {
		e.ctr.udpNoResponse.Add(1)
		return
	}
	e.ctr.udpRelayed.Add(1)
	e.ctr.udpBytesDown.Add(int64(len(resp)))
	e.traffic.udp(s.app, 0, int64(len(resp)))
	e.emit(packet.UDPPacket(s.flow.Dst, s.flow.Src, resp))
}
