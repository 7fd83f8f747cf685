// Package sockets provides the socket layer MopEye relays through: a
// java.nio-style non-blocking Channel plus Selector on top of the
// simulated network, and blocking-mode UDP sockets for the DNS path.
//
// Three costs that exist on Android are modelled explicitly because the
// paper's design choices are responses to them:
//
//   - VpnService.protect(socket) takes up to several milliseconds per
//     socket (§3.5.2); MopEye replaces it with a one-time
//     addDisallowedApplication call.
//   - AbstractSelectableChannel.register can "sometimes be very
//     expensive" (§3.4); MopEye defers it off the main thread.
//   - Event-based readiness notification adds delay when other events
//     are pending (challenge C2, §2.4); MopEye times connect() in a
//     temporary blocking thread instead.
//
// Costs are injectable so tests can zero them and ablations can vary
// them.
package sockets

import (
	"errors"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/upstream"
)

// Errors.
var (
	ErrNotConnected  = errors.New("sockets: channel not connected")
	ErrAlreadyConn   = errors.New("sockets: channel already connected")
	ErrClosedChannel = errors.New("sockets: channel closed")
	ErrConnPending   = errors.New("sockets: connect still in progress")
	ErrRecvTimeout   = errors.New("sockets: receive timed out")
)

// CostModel holds the platform cost distributions. Each function draws
// one cost; nil means free.
type CostModel struct {
	// Protect is the per-socket VpnService.protect() cost.
	Protect func(*rand.Rand) time.Duration
	// Register is the selector register() cost.
	Register func(*rand.Rand) time.Duration
	// Dispatch is the added latency between an event becoming ready and
	// a selector-driven observer acting on it (C2 measurement noise).
	Dispatch func(*rand.Rand) time.Duration
	// ThreadSpawn is the scheduling latency before a freshly created
	// thread first runs. MopEye pays it once per temporary
	// socket-connect thread (§2.4) — it delays the app's handshake but
	// not the RTT measurement, whose timestamps are taken inside the
	// thread around the connect() call.
	ThreadSpawn func(*rand.Rand) time.Duration
}

// AndroidCosts returns a cost model with the magnitudes the paper
// reports: protect() up to several ms, register() usually cheap with
// occasional multi-ms spikes, and dispatch noise of up to several ms.
func AndroidCosts() CostModel {
	return CostModel{
		Protect: func(r *rand.Rand) time.Duration {
			// 0.5ms..3.5ms, occasionally worse.
			base := 500*time.Microsecond + time.Duration(r.Int63n(int64(3*time.Millisecond)))
			if r.Float64() < 0.05 {
				base += time.Duration(r.Int63n(int64(4 * time.Millisecond)))
			}
			return base
		},
		Register: func(r *rand.Rand) time.Duration {
			if r.Float64() < 0.08 {
				return time.Millisecond + time.Duration(r.Int63n(int64(4*time.Millisecond)))
			}
			return time.Duration(r.Int63n(int64(40 * time.Microsecond)))
		},
		Dispatch: func(r *rand.Rand) time.Duration {
			// Usually sub-ms, with a tail up to ~6ms when the loop is
			// busy.
			if r.Float64() < 0.3 {
				return time.Millisecond + time.Duration(r.Int63n(int64(5*time.Millisecond)))
			}
			return time.Duration(r.Int63n(int64(900 * time.Microsecond)))
		},
		ThreadSpawn: func(r *rand.Rand) time.Duration {
			// Thread creation plus first-schedule latency on a phone
			// SoC: a few ms (§4.1.2 measures 3.26–4.27 ms total added
			// handshake delay, most of it this).
			return 2*time.Millisecond + time.Duration(r.Int63n(int64(2*time.Millisecond)))
		},
	}
}

func drawCost(f func(*rand.Rand) time.Duration, rng *rand.Rand, mu *sync.Mutex) time.Duration {
	if f == nil {
		return 0
	}
	mu.Lock()
	defer mu.Unlock()
	return f(rng)
}

// Provider creates channels bound to one phone. It owns the ephemeral
// port space and the VPN-exemption state.
type Provider struct {
	// Net is the emulated substrate. It may be nil on the real data
	// plane, where a Dialer and UDP transport stand in for it.
	Net   *netsim.Network
	Clk   clock.Clock
	Costs CostModel

	phoneAddr netip.Addr

	// dialer, when set, is where external TCP connections exit:
	// upstream.Direct on the real data plane, upstream.SOCKS5 for a
	// proxied exit. nil keeps today's semantics — dial inside Net.
	dialer upstream.Dialer

	// sendUDP, when set, transmits relay datagrams instead of
	// Net.SendUDP (the real data plane's UDP exit).
	sendUDP UDPTransport

	mu         sync.Mutex
	rng        *rand.Rand
	nextPort   uint16
	disallowed bool // addDisallowedApplication(mopeye) has been called
}

// UDPTransport transmits one relay datagram and arranges for any
// response to be handed to deliver (possibly from another goroutine).
type UDPTransport func(local, dst netip.AddrPort, payload []byte, deliver func([]byte))

// SetDialer installs the upstream exit for external TCP connections.
// Call before traffic flows; nil restores the default netsim dial.
func (p *Provider) SetDialer(d upstream.Dialer) {
	p.mu.Lock()
	p.dialer = d
	p.mu.Unlock()
}

// SetUDPTransport installs the upstream exit for relay datagrams. Call
// before traffic flows; nil restores the default netsim send.
func (p *Provider) SetUDPTransport(t UDPTransport) {
	p.mu.Lock()
	p.sendUDP = t
	p.mu.Unlock()
}

// dial opens the external connection for a channel through whichever
// exit is installed.
func (p *Provider) dial(local, dst netip.AddrPort) (upstream.Conn, error) {
	p.mu.Lock()
	d := p.dialer
	p.mu.Unlock()
	if d != nil {
		return d.Dial(local, dst)
	}
	if p.Net == nil {
		return nil, errors.New("sockets: no network and no dialer installed")
	}
	return upstream.Netsim{Net: p.Net}.Dial(local, dst)
}

// NewProvider creates a socket provider for a phone at addr.
func NewProvider(net *netsim.Network, clk clock.Clock, addr netip.Addr, costs CostModel, seed int64) *Provider {
	return &Provider{
		Net:       net,
		Clk:       clk,
		Costs:     costs,
		phoneAddr: addr,
		rng:       rand.New(rand.NewSource(seed)),
		nextPort:  32768,
	}
}

// EphemeralPort allocates a local port.
func (p *Provider) EphemeralPort() uint16 {
	p.mu.Lock()
	defer p.mu.Unlock()
	port := p.nextPort
	p.nextPort++
	if p.nextPort == 0 {
		p.nextPort = 32768
	}
	return port
}

// AddDisallowedApplication performs the one-time app-wide VPN exemption
// (§3.5.2). After this, per-socket Protect calls are free no-ops.
func (p *Provider) AddDisallowedApplication() {
	p.mu.Lock()
	p.disallowed = true
	p.mu.Unlock()
}

// ChargeThreadSpawn sleeps the thread-spawn scheduling latency, called
// by a temporary thread as its first action.
func (p *Provider) ChargeThreadSpawn() {
	if c := drawCost(p.Costs.ThreadSpawn, p.rng, &p.mu); c > 0 {
		p.Clk.SleepFine(c)
	}
}

// Channel is a connectable socket channel, non-blocking by default like
// java.nio's SocketChannel once configureBlocking(false) is called.
type Channel struct {
	p *Provider

	mu         sync.Mutex
	local      netip.AddrPort
	conn       upstream.Conn
	connErr    error
	connecting bool
	connected  bool
	closed     bool
	key        *SelectionKey // back-reference once registered
}

// Open creates an unconnected channel with an ephemeral local port.
func (p *Provider) Open() *Channel {
	return &Channel{
		p:     p,
		local: netip.AddrPortFrom(p.phoneAddr, p.EphemeralPort()),
	}
}

// Protect marks the socket as VPN-exempt, paying the per-socket cost
// unless the application-wide exemption is active. MopEye must do one or
// the other before connecting or its own packets would loop back into
// the tunnel (§3.5.2).
func (ch *Channel) Protect() { ch.p.protect() }

func (p *Provider) protect() {
	p.mu.Lock()
	exempt := p.disallowed
	p.mu.Unlock()
	if exempt {
		return
	}
	if c := drawCost(p.Costs.Protect, p.rng, &p.mu); c > 0 {
		p.Clk.SleepFine(c)
	}
}

// Connect performs a blocking connect: it returns after the SYN/SYN-ACK
// exchange completes, which is why MopEye times exactly this call in a
// temporary socket-connect thread (§2.4).
func (ch *Channel) Connect(dst netip.AddrPort) error {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return ErrClosedChannel
	}
	if ch.connected || ch.connecting {
		ch.mu.Unlock()
		return ErrAlreadyConn
	}
	ch.connecting = true
	local := ch.local
	ch.mu.Unlock()

	conn, err := ch.p.dial(local, dst)

	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.connecting = false
	if ch.closed {
		if conn != nil {
			conn.Close()
		}
		return ErrClosedChannel
	}
	if err != nil {
		ch.connErr = err
		return err
	}
	ch.conn = conn
	ch.connected = true
	if ch.key != nil {
		ch.attachReadiness()
	}
	return nil
}

// ConnectNonBlocking starts a connect in the background; completion is
// reported through a selector's OpConnect readiness and must be reaped
// with FinishConnect. This is the path whose timing suffers from
// dispatch noise — the reason MopEye switched to blocking connects.
func (ch *Channel) ConnectNonBlocking(dst netip.AddrPort) error {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return ErrClosedChannel
	}
	if ch.connected || ch.connecting {
		ch.mu.Unlock()
		return ErrAlreadyConn
	}
	ch.connecting = true
	local := ch.local
	ch.mu.Unlock()

	go func() {
		conn, err := ch.p.dial(local, dst)
		ch.mu.Lock()
		ch.connecting = false
		if ch.closed {
			ch.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return
		}
		if err != nil {
			ch.connErr = err
		} else {
			ch.conn = conn
			ch.connected = true
			if ch.key != nil {
				ch.attachReadiness()
			}
		}
		key := ch.key
		ch.mu.Unlock()
		if key != nil {
			key.markReady(OpConnect)
		}
	}()
	return nil
}

// FinishConnect reaps the result of a non-blocking connect.
func (ch *Channel) FinishConnect() error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.connecting {
		return ErrConnPending
	}
	if ch.connErr != nil {
		return ch.connErr
	}
	if !ch.connected {
		return ErrNotConnected
	}
	return nil
}

// attachReadiness wires the underlying connection's readable callback to
// the selection key. Caller holds ch.mu.
func (ch *Channel) attachReadiness() {
	key := ch.key
	ch.conn.SetOnReadable(func() { key.markReady(OpRead) })
}

// Read performs a non-blocking read. It returns (0, nil) when no data is
// available (java returns 0), n>0 on data, and (0, ErrEOF)/(0, err) on
// stream end or reset.
func (ch *Channel) Read(buf []byte) (int, error) {
	ch.mu.Lock()
	conn := ch.conn
	ch.mu.Unlock()
	if conn == nil {
		return 0, ErrNotConnected
	}
	n, err := conn.TryRead(buf)
	if errors.Is(err, upstream.ErrWouldBlock) || errors.Is(err, netsim.ErrWouldBlock) {
		return 0, nil
	}
	if errors.Is(err, upstream.ErrEOF) || errors.Is(err, netsim.ErrEOFConn) {
		return n, ErrEOF
	}
	return n, err
}

// ErrEOF reports orderly stream end from Read.
var ErrEOF = errors.New("sockets: EOF")

// Write sends bytes to the peer. It may block briefly on flow control
// when the send queue is full, matching a socket write with a full send
// buffer.
func (ch *Channel) Write(b []byte) (int, error) {
	ch.mu.Lock()
	conn := ch.conn
	ch.mu.Unlock()
	if conn == nil {
		return 0, ErrNotConnected
	}
	return conn.Write(b)
}

// CloseWrite half-closes the external connection (relaying an app FIN,
// §2.3).
func (ch *Channel) CloseWrite() error {
	ch.mu.Lock()
	conn := ch.conn
	ch.mu.Unlock()
	if conn == nil {
		return ErrNotConnected
	}
	return conn.CloseWrite()
}

// Close closes the channel and cancels its registration.
func (ch *Channel) Close() error { return ch.shut(upstream.Conn.Close) }

// Reset aborts the external connection (relaying an app RST, §2.3).
func (ch *Channel) Reset() error { return ch.shut(upstream.Conn.Reset) }

// shut is Close and Reset: the first call marks the channel closed,
// cancels its registration and ends the connection, if any, with end.
// Later calls do nothing.
func (ch *Channel) shut(end func(upstream.Conn) error) error {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return nil
	}
	ch.closed = true
	conn := ch.conn
	key := ch.key
	ch.key = nil
	ch.mu.Unlock()
	if key != nil {
		key.cancel()
	}
	if conn != nil {
		return end(conn)
	}
	return nil
}

// Connected reports whether the channel has an established connection.
func (ch *Channel) Connected() bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.connected
}
