// Package phonestack emulates the phone kernel's client-side TCP/UDP
// stack: the traffic source on the far side of the TUN device.
//
// When an Android app calls connect(), the kernel emits a SYN that the
// TUN routing delivers to MopEye as a raw IP packet (§2.2). This package
// plays that kernel role for simulated apps: Connect injects a SYN into
// the TUN and completes when the user-space stack answers with a
// SYN-ACK; Write segments data at the negotiated MSS and respects the
// 64 KiB send window clocked by the relay's ACKs; Read consumes
// in-order data packets. Every connection is registered in the
// /proc/net tables (package procnet) under the app's UID, which is the
// only mapping MopEye has from packets to apps.
package phonestack

import (
	"errors"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/fifoq"
	"repro/internal/packet"
	"repro/internal/procnet"
	"repro/internal/tun"
)

// Errors.
var (
	ErrTimeout   = errors.New("phonestack: connection timed out")
	ErrRefused   = errors.New("phonestack: connection refused")
	ErrReset     = errors.New("phonestack: connection reset")
	ErrClosed    = errors.New("phonestack: connection closed")
	ErrEOF       = errors.New("phonestack: EOF")
	ErrPhoneDown = errors.New("phonestack: phone stopped")
)

// DefaultWindow is the send/receive window the phone advertises,
// matching the 65,535-byte buffers of §3.4.
const DefaultWindow = 65535

// connState values.
const (
	stateSynSent = iota
	stateEstablished
	stateFinWait
	stateClosed
)

// Phone is the kernel-side endpoint of the TUN link.
type Phone struct {
	clk   clock.Clock
	dev   *tun.Device
	addr  netip.Addr
	table *procnet.Table

	// SynRTO is the initial SYN retransmission timeout; it doubles per
	// attempt like a kernel RTO.
	SynRTO time.Duration
	// SynRetries bounds handshake attempts.
	SynRetries int

	mu       sync.Mutex
	rng      *rand.Rand
	tcp      map[uint16]*Conn
	udp      map[uint16]*UDPConn
	nextPort uint16
	closed   bool
	wg       sync.WaitGroup

	// udpSent counts datagrams successfully injected into the TUN
	// (DNS queries included). It is the app-side ground truth the
	// scenario truthfulness checks reconcile the engine's relay
	// accounting against.
	udpSent atomic.Int64
}

// advMSS derives the MSS the phone advertises from the device MTU
// (40 bytes of IP + TCP headers).
func (p *Phone) advMSS() int { return p.dev.MTU() - 40 }

// New creates a phone stack bound to addr and starts its demultiplexer,
// which consumes packets the engine writes back into the TUN.
func New(clk clock.Clock, dev *tun.Device, addr netip.Addr, table *procnet.Table, seed int64) *Phone {
	p := &Phone{
		clk:        clk,
		dev:        dev,
		addr:       addr,
		table:      table,
		SynRTO:     time.Second,
		SynRetries: 4,
		rng:        rand.New(rand.NewSource(seed)),
		tcp:        make(map[uint16]*Conn),
		udp:        make(map[uint16]*UDPConn),
		nextPort:   40000,
	}
	p.wg.Add(1)
	go p.demux()
	return p
}

// Close stops the demultiplexer. The TUN device must be closed by its
// owner; Close here only stops consuming from it.
func (p *Phone) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := make([]*Conn, 0, len(p.tcp))
	for _, c := range p.tcp {
		conns = append(conns, c)
	}
	us := make([]*UDPConn, 0, len(p.udp))
	for _, u := range p.udp {
		us = append(us, u)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.teardown(ErrPhoneDown)
	}
	for _, u := range us {
		u.Close()
	}
}

func (p *Phone) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

func (p *Phone) allocPort() uint16 {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		port := p.nextPort
		p.nextPort++
		if p.nextPort == 0 {
			p.nextPort = 40000
		}
		if _, busyT := p.tcp[port]; busyT {
			continue
		}
		if _, busyU := p.udp[port]; busyU {
			continue
		}
		return port
	}
}

// demux dispatches engine-written packets to connections. A TCP
// segment is decoded into one reused Packet, which handleSegment does
// not keep (it keeps only the Payload, a slice of raw, queued with raw);
// a UDP datagram's Packet moves to the socket's inbox, so the next
// packet decodes into a fresh one. Every packet whose bytes nobody
// queued goes back to the device at once.
func (p *Phone) demux() {
	defer p.wg.Done()
	pkt := new(packet.Packet)
	for {
		raw, err := p.dev.ReadInbound()
		if err != nil {
			return
		}
		if !p.dispatch(pkt, raw) {
			p.dev.Release(raw)
			continue
		}
		if pkt.IsUDP() {
			pkt = new(packet.Packet)
		}
	}
}

// dispatch decodes raw into pkt and hands it to its connection. It
// reports whether the connection queued bytes of raw.
func (p *Phone) dispatch(pkt *packet.Packet, raw []byte) (queued bool) {
	if err := packet.DecodeInto(pkt, raw); err != nil {
		return false // a malformed packet from the engine is dropped
	}
	// Inbound packets are addressed to the phone; the app's local port
	// is the packet's destination port.
	port := pkt.Dst().Port()
	switch {
	case pkt.IsTCP():
		p.mu.Lock()
		c := p.tcp[port]
		p.mu.Unlock()
		return c != nil && c.handleSegment(pkt, raw)
	case pkt.IsUDP():
		p.mu.Lock()
		u := p.udp[port]
		p.mu.Unlock()
		if u != nil {
			u.deliver(pkt)
			return true
		}
	}
	return false
}

// UDPDatagramsSent reports how many datagrams the phone's apps have
// injected into the TUN (app-side ground truth for relay accounting).
func (p *Phone) UDPDatagramsSent() int64 { return p.udpSent.Load() }

// txScratch is what the phone encodes one outbound packet in: a
// Packet for the TCP fields and the wire buffer. InjectOutbound copies
// the bytes, so both go back to txPool as soon as it returns.
type txScratch struct {
	pkt packet.Packet
	buf []byte
}

var txPool = sync.Pool{New: func() any {
	return &txScratch{buf: make([]byte, 0, tun.DefaultMTU)}
}}

// inject encodes pkt into a pooled buffer and routes it into the TUN.
func (p *Phone) inject(pkt *packet.Packet) error {
	s := txPool.Get().(*txScratch)
	err := p.injectEncoded(s, pkt)
	txPool.Put(s)
	return err
}

// injectTCP sends one TCP segment from the connection's endpoint. The
// segment is built in pooled scratch, so options and payload are only
// borrowed for the call: a Write's payload is the app's own buffer.
func (c *Conn) injectTCP(flags uint8, seq, ack uint32, window uint16, options, payload []byte) error {
	s := txPool.Get().(*txScratch)
	s.pkt.SetTCP(c.local, c.remote, flags, seq, ack, window, options, payload)
	err := c.phone.injectEncoded(s, &s.pkt)
	s.pkt.Payload = nil // the pool must not pin the app's buffer
	txPool.Put(s)
	return err
}

func (p *Phone) injectEncoded(s *txScratch, pkt *packet.Packet) error {
	raw, err := pkt.AppendEncode(s.buf[:0])
	s.buf = raw[:0] // keep a regrown buffer with the scratch
	if err != nil {
		return err
	}
	return p.dev.InjectOutbound(raw)
}

// Conn is an app-side TCP connection.
type Conn struct {
	phone  *Phone
	local  netip.AddrPort
	remote netip.AddrPort
	inode  uint64

	mu      sync.Mutex
	cond    *sync.Cond
	state   int
	connErr error

	sndNxt uint32 // next sequence to send
	sndUna uint32 // oldest unacknowledged
	rcvNxt uint32 // next expected from peer
	mss    int
	window int // peer-advertised send window

	// rx queues received payloads, each a slice of its packet's device
	// buffer, kept with that buffer; rxHead is the unread rest of the
	// one Read took from it last. Read releases a buffer to the device
	// once its payload is read.
	rx      fifoq.Queue[rxSegment]
	rxHead  rxSegment
	rxBytes int
	rxEOF   bool
	rxErr   error

	// ConnectElapsed is the app-observed connect() latency, i.e. the
	// RTT the app itself experiences through the relay. The overhead
	// experiment (§4.1.2) compares this against the raw path RTT.
	ConnectElapsed time.Duration
}

// rxSegment is one received payload and the device buffer it is a
// slice of.
type rxSegment struct {
	data, buf []byte
}

// Connect opens a TCP connection from the app with the given UID to dst.
// It blocks until the user-space stack completes the tunnel-side
// handshake, retransmitting the SYN on kernel-like timeouts.
func (p *Phone) Connect(uid int, dst netip.AddrPort, timeout time.Duration) (*Conn, error) {
	if p.isClosed() {
		return nil, ErrPhoneDown
	}
	port := p.allocPort()
	c := &Conn{
		phone:  p,
		local:  netip.AddrPortFrom(p.addr, port),
		remote: dst,
		state:  stateSynSent,
		mss:    p.advMSS(), // until the SYN-ACK negotiates it
		window: DefaultWindow,
	}
	c.cond = sync.NewCond(&c.mu)
	p.mu.Lock()
	c.sndNxt = p.rng.Uint32()
	c.sndUna = c.sndNxt
	p.tcp[port] = c
	p.mu.Unlock()

	c.inode = p.table.Add(procnet.Entry{
		Proto: procTCPProto(dst.Addr()), Local: c.local, Remote: dst,
		State: procnet.StateSynSent, UID: uid,
	})

	start := p.clk.Nanos()
	synOpts := packet.MSSOption(uint16(p.advMSS()))
	iss := c.sndNxt
	c.sndNxt++ // SYN consumes one sequence number
	if err := c.injectTCP(packet.FlagSYN, iss, 0, DefaultWindow, synOpts, nil); err != nil {
		c.unregister()
		return nil, err
	}

	// Retransmit the SYN with doubling RTO, then give up, like a kernel.
	done := make(chan struct{})
	go func() {
		rto := p.SynRTO
		for i := 0; i < p.SynRetries; i++ {
			select {
			case <-done:
				return
			case <-p.clk.After(rto):
			}
			c.mu.Lock()
			st := c.state
			c.mu.Unlock()
			if st != stateSynSent {
				return
			}
			_ = c.injectTCP(packet.FlagSYN, iss, 0, DefaultWindow, synOpts, nil)
			rto *= 2
		}
		c.mu.Lock()
		if c.state == stateSynSent {
			c.connErr = ErrTimeout
			c.state = stateClosed
			c.cond.Broadcast()
		}
		c.mu.Unlock()
	}()

	var timer <-chan time.Time
	if timeout > 0 {
		timer = p.clk.After(timeout)
		go func() {
			select {
			case <-done:
			case <-timer:
				c.mu.Lock()
				if c.state == stateSynSent {
					c.connErr = ErrTimeout
					c.state = stateClosed
					c.cond.Broadcast()
				}
				c.mu.Unlock()
			}
		}()
	}

	c.mu.Lock()
	for c.state == stateSynSent {
		c.cond.Wait()
	}
	err := c.connErr
	c.mu.Unlock()
	close(done)
	if err != nil {
		c.unregister()
		return nil, err
	}
	c.ConnectElapsed = time.Duration(p.clk.Nanos() - start)
	return c, nil
}

func procTCPProto(a netip.Addr) procnet.Proto {
	if a.Is4() {
		return procnet.TCP
	}
	return procnet.TCP6
}

func (c *Conn) unregister() {
	c.phone.mu.Lock()
	if c.phone.tcp[c.local.Port()] == c {
		delete(c.phone.tcp, c.local.Port())
	}
	c.phone.mu.Unlock()
	c.phone.table.Remove(c.inode)
}

// handleSegment processes one engine-written TCP packet, whose device
// buffer is raw. It reports whether it queued the payload, and with it
// raw, for Read.
func (c *Conn) handleSegment(pkt *packet.Packet, raw []byte) (queued bool) {
	t := pkt.TCP
	c.mu.Lock()
	if c.state == stateClosed {
		// Only an app-closed conn is still registered here (Close): its
		// segments are dropped, and the peer's FIN or an RST ends it.
		c.mu.Unlock()
		if t.Has(packet.FlagFIN) || t.Has(packet.FlagRST) {
			c.unregister()
		}
		return false
	}
	switch {
	case t.Has(packet.FlagRST):
		c.rxErr = ErrReset
		if c.state == stateSynSent {
			c.connErr = ErrRefused
		}
		c.state = stateClosed
		c.cond.Broadcast()
		c.mu.Unlock()
		c.unregister()
		return false

	case t.Has(packet.FlagSYN | packet.FlagACK):
		if c.state != stateSynSent {
			break // duplicate SYN-ACK; the ACK below re-confirms
		}
		c.rcvNxt = t.Seq + 1
		c.sndUna = t.Ack
		if mss, ok := packet.ParseMSS(t.Options); ok && int(mss) > 0 {
			c.mss = int(mss)
		}
		if int(t.Window) > 0 {
			c.window = int(t.Window)
		}
		c.state = stateEstablished
		c.phone.table.SetState(c.inode, procnet.StateEstablished)
		snd, ack := c.sndNxt, c.rcvNxt
		c.cond.Broadcast()
		c.mu.Unlock()
		_ = c.injectTCP(packet.FlagACK, snd, ack, DefaultWindow, nil, nil)
		return false

	default:
		// ACK processing: advance the send window.
		if t.Has(packet.FlagACK) && seqGT(t.Ack, c.sndUna) {
			c.sndUna = t.Ack
			c.cond.Broadcast()
		}
		// Data delivery: in-order only; the user-space stack relays
		// in order over the lossless tunnel (§3.4), so out-of-order
		// segments are duplicates and are dropped after trimming.
		if len(pkt.Payload) > 0 {
			data := pkt.Payload
			seq := t.Seq
			if seqLT(seq, c.rcvNxt) {
				skip := c.rcvNxt - seq
				if int(skip) >= len(data) {
					data = nil
				} else {
					data = data[skip:]
					seq = c.rcvNxt
				}
			}
			if len(data) > 0 && seq == c.rcvNxt {
				c.rx.Push(rxSegment{data: data, buf: raw})
				c.rxBytes += len(data)
				c.rcvNxt += uint32(len(data))
				c.cond.Broadcast()
				snd, ack := c.sndNxt, c.rcvNxt
				c.mu.Unlock()
				_ = c.injectTCP(packet.FlagACK, snd, ack, DefaultWindow, nil, nil)
				return true
			}
		}
		if t.Has(packet.FlagFIN) {
			c.rcvNxt = t.Seq + uint32(len(pkt.Payload)) + 1
			c.rxEOF = true
			c.cond.Broadcast()
			snd, ack := c.sndNxt, c.rcvNxt
			c.mu.Unlock()
			_ = c.injectTCP(packet.FlagACK, snd, ack, DefaultWindow, nil, nil)
			return false
		}
	}
	c.mu.Unlock()
	return false
}

// seq comparisons in modular 32-bit arithmetic.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }
func seqGT(a, b uint32) bool { return int32(a-b) > 0 }

// Write sends len(b) bytes, segmenting at the negotiated MSS and
// blocking while the send window is full; ACKs generated by the
// user-space stack (after its socket writes complete, §2.3) open it.
func (c *Conn) Write(b []byte) (int, error) {
	sent := 0
	for sent < len(b) {
		c.mu.Lock()
		for {
			if c.state == stateClosed {
				err := c.rxErr
				c.mu.Unlock()
				if err == nil {
					err = ErrClosed
				}
				return sent, err
			}
			if c.state != stateEstablished {
				c.mu.Unlock()
				return sent, ErrClosed
			}
			inflight := int(c.sndNxt - c.sndUna)
			if inflight < c.window {
				break
			}
			c.cond.Wait()
		}
		n := len(b) - sent
		if n > c.mss {
			n = c.mss
		}
		if room := c.window - int(c.sndNxt-c.sndUna); n > room {
			n = room
		}
		snd, ack := c.sndNxt, c.rcvNxt
		c.sndNxt += uint32(n)
		c.mu.Unlock()
		if err := c.injectTCP(packet.FlagACK|packet.FlagPSH, snd, ack, DefaultWindow, nil, b[sent:sent+n]); err != nil {
			return sent, err
		}
		sent += n
	}
	return sent, nil
}

// Read blocks for data, EOF, or an error.
func (c *Conn) Read(buf []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.rxBytes == 0 {
		if c.rxErr != nil {
			return 0, c.rxErr
		}
		if c.rxEOF {
			return 0, ErrEOF
		}
		if c.state == stateClosed {
			return 0, ErrClosed
		}
		c.cond.Wait()
	}
	n := 0
	for n < len(buf) {
		if len(c.rxHead.data) == 0 {
			next, ok := c.rx.Pop() // Pop clears the slot it empties
			if !ok {
				break
			}
			c.rxHead = next
		}
		k := copy(buf[n:], c.rxHead.data)
		c.rxHead.data = c.rxHead.data[k:]
		n += k
		if len(c.rxHead.data) == 0 {
			c.phone.dev.Release(c.rxHead.buf)
			c.rxHead = rxSegment{}
		}
	}
	c.rxBytes -= n
	return n, nil
}

// ReadFull reads exactly len(buf) bytes or fails.
func (c *Conn) ReadFull(buf []byte) error {
	got := 0
	for got < len(buf) {
		n, err := c.Read(buf[got:])
		got += n
		if err != nil && got < len(buf) {
			return err
		}
	}
	return nil
}

// Close sends a FIN and closes the connection for the app. As in a
// kernel, an established socket stays listed in /proc/net — FIN_WAIT,
// under its owner's UID — until the peer's FIN or an RST arrives, so a
// mapper that parses after the app closed still finds it.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.state == stateClosed {
		c.mu.Unlock()
		return nil
	}
	wasEstablished := c.state == stateEstablished
	lingers := wasEstablished && !c.rxEOF
	snd, ack := c.sndNxt, c.rcvNxt
	c.sndNxt++
	c.state = stateClosed
	c.cond.Broadcast()
	c.mu.Unlock()
	if wasEstablished {
		c.phone.table.SetState(c.inode, procnet.StateFinWait1)
		_ = c.injectTCP(packet.FlagFIN|packet.FlagACK, snd, ack, DefaultWindow, nil, nil)
	}
	if !lingers {
		c.unregister()
	}
	return nil
}

// Abort sends an RST, the path that exercises the engine's RST handling
// (§2.3).
func (c *Conn) Abort() {
	c.mu.Lock()
	if c.state == stateClosed {
		c.mu.Unlock()
		return
	}
	snd, ack := c.sndNxt, c.rcvNxt
	c.state = stateClosed
	c.rxErr = ErrReset
	c.cond.Broadcast()
	c.mu.Unlock()
	_ = c.injectTCP(packet.FlagRST, snd, ack, 0, nil, nil)
	c.unregister()
}

func (c *Conn) teardown(err error) {
	c.mu.Lock()
	c.state = stateClosed
	c.rxErr = err
	c.cond.Broadcast()
	c.mu.Unlock()
}
