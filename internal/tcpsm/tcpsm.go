// Package tcpsm implements MopEye's user-space TCP state machine: the
// engine-side terminator of the *internal* connection between an app and
// MopEye over the TUN (§2.3).
//
// Because MopEye relays through regular sockets, it cannot see the
// external connection's TCB; the internal connection therefore needs its
// own sequence/acknowledgement bookkeeping, handshake, and teardown,
// processed per RFC 793. Deliberate simplifications from §3.4 are part
// of the design and are preserved here:
//
//   - MSS is fixed at 1460 so 1500-byte IP packets flow to the app.
//   - The advertised window is 65,535 bytes and never shrinks.
//   - No congestion or flow control: the TUN link cannot lose or
//     reorder, so data is forwarded to the app continuously without
//     waiting for ACKs, and pure ACKs from the app are discarded.
//
// The machine emits packets through a caller-supplied function; the
// engine points it at the TunWriter queue. The function borrows the
// *packet.Packet it is handed, and its Payload, for the call only: the
// machine builds every segment in a pooled Packet that it takes back
// when emit returns, and the Payload may alias the buffer a SendData
// caller reuses as soon as the call returns. An emit that needs the
// segment later encodes it (or copies what it needs) before returning;
// that keeps a relayed segment allocation-free on this side of emit.
package tcpsm

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"

	"repro/internal/packet"
)

// DefaultMSS is the maximum segment size advertised to apps (§3.4).
const DefaultMSS = 1460

// DefaultWindow is the advertised receive window (§3.4).
const DefaultWindow = 65535

// State is the machine's connection state.
type State int

// States. The machine is created on a SYN, so there is no Listen state;
// CLOSED is terminal.
const (
	StateSynReceived State = iota // app SYN seen, external connect pending
	StateEstablished              // handshake completed on both sides
	StateAppClosed                // app sent FIN (half close, app->net done)
	StateNetClosed                // server side finished (FIN sent to app)
	StateClosed                   // fully closed or reset
)

func (s State) String() string {
	switch s {
	case StateSynReceived:
		return "SYN_RECEIVED"
	case StateEstablished:
		return "ESTABLISHED"
	case StateAppClosed:
		return "APP_CLOSED"
	case StateNetClosed:
		return "NET_CLOSED"
	case StateClosed:
		return "CLOSED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Errors.
var (
	ErrBadState   = errors.New("tcpsm: operation invalid in current state")
	ErrNotSYN     = errors.New("tcpsm: packet is not a SYN")
	ErrStaleData  = errors.New("tcpsm: fully duplicate segment")
	ErrOutOfOrder = errors.New("tcpsm: out-of-order segment on lossless link")
)

// Stats counts machine activity for the engine's accounting.
type Stats struct {
	SegmentsIn      int
	SegmentsOut     int
	BytesToApp      int64
	BytesFromApp    int64
	PureACKsDropped int
}

// Machine is one internal connection's state machine.
type Machine struct {
	mu sync.Mutex

	app    netip.AddrPort // the app's (local) endpoint
	server netip.AddrPort // the destination the app dialed
	mss    int
	window uint16

	state  State
	sndNxt uint32 // next sequence we send to the app
	rcvNxt uint32 // next sequence expected from the app

	emit  func(*packet.Packet)
	stats Stats
}

// New creates a machine for an app SYN packet. The machine assumes the
// SYN has been validated as such by the caller (MainWorker dispatches on
// flags). iss is the initial send sequence; the engine draws it. emit
// follows the borrow rule in the package comment.
func New(syn *packet.Packet, iss uint32, emit func(*packet.Packet)) (*Machine, error) {
	if syn.TCP == nil || !syn.TCP.Has(packet.FlagSYN) || syn.TCP.Has(packet.FlagACK) {
		return nil, ErrNotSYN
	}
	m := &Machine{
		app:    syn.Src(),
		server: syn.Dst(),
		mss:    DefaultMSS,
		window: DefaultWindow,
		state:  StateSynReceived,
		sndNxt: iss,
		rcvNxt: syn.TCP.Seq + 1, // SYN consumes one sequence number
		emit:   emit,
	}
	m.stats.SegmentsIn++
	return m, nil
}

// State returns the current state.
func (m *Machine) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Stats returns a snapshot of activity counters.
func (m *Machine) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// segPool holds the Packets sendLocked builds segments in. emit only
// borrows one (package comment), so it goes back as soon as emit
// returns.
var segPool = sync.Pool{New: func() any { return new(packet.Packet) }}

// synAckOptions is the MSS option every SYN-ACK carries. Emitted
// packets only reference their options, and nothing writes to them.
var synAckOptions = packet.MSSOption(DefaultMSS)

// send emits a packet from the server-side identity toward the app.
// Caller holds m.mu.
func (m *Machine) sendLocked(flags uint8, seq, ack uint32, options, payload []byte) {
	p := segPool.Get().(*packet.Packet)
	p.SetTCP(m.server, m.app, flags, seq, ack, m.window, options, payload)
	m.stats.SegmentsOut++
	m.emit(p)
	p.Payload = nil // the pool must not pin the caller's buffer
	segPool.Put(p)
}

// CompleteHandshake sends the SYN-ACK to the app. MopEye calls this only
// after the *external* connection is established (§2.3: "Only after
// establishing the external connection can MopEye complete the handshake
// with the app"), which is what makes the app-observed connect time
// track the true path RTT.
//
// Each onEstablished hook runs under the machine's lock once the state
// check has passed and before the SYN-ACK leaves, so whatever it
// counts is visible to an app whose connect has returned, and it never
// runs for a handshake that fails with ErrBadState.
func (m *Machine) CompleteHandshake(onEstablished ...func()) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != StateSynReceived {
		return ErrBadState
	}
	for _, f := range onEstablished {
		f()
	}
	m.sendLocked(packet.FlagSYN|packet.FlagACK, m.sndNxt, m.rcvNxt,
		synAckOptions, nil)
	m.sndNxt++ // our SYN consumes one sequence number
	m.state = StateEstablished
	return nil
}

// Refuse resets the internal connection in response to a failed external
// connect (the app sees ECONNREFUSED-equivalent behaviour).
func (m *Machine) Refuse() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == StateClosed {
		return
	}
	m.sendLocked(packet.FlagRST|packet.FlagACK, m.sndNxt, m.rcvNxt, nil, nil)
	m.state = StateClosed
}

// OnData ingests an app data segment and returns the new payload bytes
// to be placed in the socket write buffer. Retransmitted prefixes are
// trimmed; fully duplicate segments return ErrStaleData; a gap returns
// ErrOutOfOrder (impossible on a correct TUN link, so it indicates a
// bug and the engine resets the connection).
func (m *Machine) OnData(p *packet.Packet) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.SegmentsIn++
	if m.state != StateEstablished && m.state != StateNetClosed {
		return nil, ErrBadState
	}
	data := p.Payload
	seq := p.TCP.Seq
	switch {
	case seq == m.rcvNxt:
	case seqLT(seq, m.rcvNxt):
		skip := m.rcvNxt - seq
		if int(skip) >= len(data) {
			return nil, ErrStaleData
		}
		data = data[skip:]
	default:
		return nil, ErrOutOfOrder
	}
	m.rcvNxt += uint32(len(data))
	m.stats.BytesFromApp += int64(len(data))
	return data, nil
}

// AckApp emits a pure ACK for everything received so far. The engine
// calls it when the corresponding socket write to the server completes
// (§2.3 Socket Write: "instructs the corresponding TCP state machine to
// generate an ACK packet to the app").
func (m *Machine) AckApp() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == StateClosed || m.state == StateSynReceived {
		return ErrBadState
	}
	m.sendLocked(packet.FlagACK, m.sndNxt, m.rcvNxt, nil, nil)
	return nil
}

// OnPureACK records (and drops) a dataless ACK from the app. MopEye
// discards these because nothing needs relaying (§2.3 Pure ACK).
func (m *Machine) OnPureACK() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.SegmentsIn++
	m.stats.PureACKsDropped++
}

// SendData forwards server bytes to the app, segmenting at the MSS. Per
// §3.4 there is no window pacing: everything is emitted immediately.
// Each segment's Payload is a slice of b, lent to emit for the call;
// b is the caller's again when SendData returns.
func (m *Machine) SendData(b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != StateEstablished && m.state != StateAppClosed {
		return ErrBadState
	}
	for off := 0; off < len(b); off += m.mss {
		end := off + m.mss
		if end > len(b) {
			end = len(b)
		}
		seg := b[off:end]
		m.sendLocked(packet.FlagACK|packet.FlagPSH, m.sndNxt, m.rcvNxt, nil, seg)
		m.sndNxt += uint32(len(seg))
		m.stats.BytesToApp += int64(len(seg))
	}
	return nil
}

// OnFIN processes an app FIN: acknowledge it and move to half-closed.
// Any payload riding on the FIN is returned for relaying. The engine
// then triggers the half-close write event on the socket (§2.3 TCP FIN).
func (m *Machine) OnFIN(p *packet.Packet) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.SegmentsIn++
	var data []byte
	if len(p.Payload) > 0 && p.TCP.Seq == m.rcvNxt {
		data = p.Payload
		m.rcvNxt += uint32(len(data))
		m.stats.BytesFromApp += int64(len(data))
	}
	m.rcvNxt++ // FIN consumes one sequence number
	m.sendLocked(packet.FlagACK, m.sndNxt, m.rcvNxt, nil, nil)
	switch m.state {
	case StateEstablished:
		m.state = StateAppClosed
	case StateNetClosed:
		m.state = StateClosed
	default:
		return data, ErrBadState
	}
	return data, nil
}

// SendFIN closes the app-facing direction, used when the server side
// reached EOF (§2.3 Socket Read: a close read event generates a FIN for
// the internal connection).
func (m *Machine) SendFIN() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.state {
	case StateEstablished:
		m.state = StateNetClosed
	case StateAppClosed:
		m.state = StateClosed
	default:
		return ErrBadState
	}
	m.sendLocked(packet.FlagFIN|packet.FlagACK, m.sndNxt, m.rcvNxt, nil, nil)
	m.sndNxt++
	return nil
}

// SendRST aborts the app-facing connection, used when the server resets
// (§2.3 Socket Read: a reset read event generates a RESET packet).
func (m *Machine) SendRST() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == StateClosed {
		return
	}
	m.sendLocked(packet.FlagRST|packet.FlagACK, m.sndNxt, m.rcvNxt, nil, nil)
	m.state = StateClosed
}

// OnRST processes an app RST: the machine dies silently; the engine
// closes the external socket and removes the client (§2.3 TCP RST).
func (m *Machine) OnRST() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.SegmentsIn++
	m.state = StateClosed
}

func seqLT(a, b uint32) bool { return int32(a-b) < 0 }
