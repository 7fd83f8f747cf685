// Package netsim simulates the external network MopEye's relayed
// connections traverse: the path from the phone's network interface to
// remote app servers and DNS resolvers.
//
// The paper measures RTT as the SYN/SYN-ACK time of the external
// connection (§2.4), so the simulator's central contract is that
// connection establishment takes one round trip over a link with
// configurable propagation delay, jitter and loss, and that established
// connections carry bytes with bandwidth and flow-control limits
// (receive buffers backpressure the sender the way kernel TCP windows
// do). That is exactly the behaviour the throughput experiment (Table 3)
// and the accuracy experiment (Table 2) depend on.
//
// A wire sniffer hook observes packets at the phone's network interface,
// playing the role tcpdump plays in the paper as ground truth.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"repro/internal/clock"
)

// Errors.
var (
	ErrRefused    = errors.New("netsim: connection refused")
	ErrTimeout    = errors.New("netsim: connection timed out")
	ErrClosed     = errors.New("netsim: connection closed")
	ErrReset      = errors.New("netsim: connection reset by peer")
	ErrWouldBlock = errors.New("netsim: operation would block")
	ErrNetDown    = errors.New("netsim: network closed")
)

// Bandwidth in bytes per second. Zero means unlimited.
type Bandwidth int64

// Mbps converts megabits per second to Bandwidth.
func Mbps(m float64) Bandwidth { return Bandwidth(m * 1e6 / 8) }

// LinkParams describes the path between the phone and one destination.
type LinkParams struct {
	// Delay is the one-way propagation delay; an RTT is 2*Delay plus
	// jitter.
	Delay time.Duration
	// Jitter adds a uniform random [0, Jitter) to each one-way traversal.
	Jitter time.Duration
	// Loss is the probability in [0,1) that a transmission is dropped,
	// drawn independently per packet and per direction: a
	// connection-attempt SYN draws once per attempt, while a UDP
	// request/response exchange draws once for the request and once for
	// the response — so the effective UDP transaction loss is
	// 1-(1-Loss)², the way two lossy one-way trips compose on a real
	// path. Established TCP byte streams are reliable (the kernel
	// retransmits below the socket API, which is the level this
	// simulator models).
	Loss float64
	// Down/Up limit the server->phone and phone->server directions.
	Down, Up Bandwidth
	// SharedQueue models a bufferbloated bottleneck: instead of each
	// connection serialising against its own private clock, all traffic
	// to this destination shares one unbounded FIFO per direction,
	// drained at Down/Up. Queue delay then grows with offered load and
	// inflates every flow's latency — including SYN/SYN-ACK handshakes,
	// which is how a saturated cellular uplink distorts measured
	// connect RTTs.
	SharedQueue bool
}

// RTT returns the expected round-trip time without jitter.
func (l LinkParams) RTT() time.Duration { return 2 * l.Delay }

// linkState is the live, mutable state of one path. Connections,
// schedulers and in-flight datagrams hold a pointer to it rather than a
// snapshot of LinkParams, so SetLink mid-flow (a handover, a scripted
// timeline step) changes the conditions every established flow
// experiences from that moment on.
type linkState struct {
	mu sync.Mutex
	p  LinkParams
	// upFree/downFree are the shared serialisation clocks used when
	// SharedQueue is set: the instant each direction's bottleneck queue
	// drains.
	upFree, downFree int64
}

func (ls *linkState) params() LinkParams {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.p
}

func (ls *linkState) setParams(p LinkParams) {
	ls.mu.Lock()
	ls.p = p
	ls.mu.Unlock()
}

// reserve books size bytes onto the shared serialisation queue of one
// direction and returns the total queue-plus-transmit delay from now.
// This is the bufferbloat model: an unbounded FIFO drained at the
// direction's bandwidth, so the wait grows with offered load and every
// concurrent flow — handshakes included — pays it.
func (ls *linkState) reserve(now int64, size int, down bool) time.Duration {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	bw, free := ls.p.Up, &ls.upFree
	if down {
		bw, free = ls.p.Down, &ls.downFree
	}
	start := now
	if *free > start {
		start = *free
	}
	var tx int64
	if bw > 0 && size > 0 {
		tx = int64(time.Duration(size) * time.Second / time.Duration(bw))
	}
	*free = start + tx
	return time.Duration(*free - now)
}

// WireEventKind classifies sniffer events.
type WireEventKind int

// Wire event kinds, named after what tcpdump would show.
const (
	EventSYN WireEventKind = iota
	EventSYNACK
	EventRST
	EventDataOut
	EventDataIn
	EventFINOut
	EventFINIn
	EventUDPOut
	EventUDPIn
)

func (k WireEventKind) String() string {
	switch k {
	case EventSYN:
		return "SYN"
	case EventSYNACK:
		return "SYN-ACK"
	case EventRST:
		return "RST"
	case EventDataOut:
		return "DATA>"
	case EventDataIn:
		return "DATA<"
	case EventFINOut:
		return "FIN>"
	case EventFINIn:
		return "FIN<"
	case EventUDPOut:
		return "UDP>"
	case EventUDPIn:
		return "UDP<"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// WireEvent is one packet observation at the phone's network interface.
type WireEvent struct {
	At     int64 // clock nanos
	Kind   WireEventKind
	Local  netip.AddrPort
	Remote netip.AddrPort
	Bytes  int
}

// Sniffer receives wire events. Must be fast; called inline.
type Sniffer func(WireEvent)

// TCPHandler runs on the server side of an accepted connection, in its
// own goroutine. It must Close the connection when done.
type TCPHandler func(c *Conn)

// UDPHandler answers one datagram; returning nil sends no response.
// Processing time on the server is modelled by ServerThink on the
// registration.
type UDPHandler func(req []byte, from netip.AddrPort) []byte

// Network is the simulated Internet.
type Network struct {
	clk clock.Clock

	mu       sync.Mutex
	rng      *rand.Rand
	defLink  LinkParams
	links    map[netip.Addr]*linkState
	tcp      map[netip.AddrPort]TCPHandler
	udp      map[netip.AddrPort]udpService
	sniffers []Sniffer
	closed   bool
	// done is closed by Close; schedulers and blocked senders select on
	// it so network teardown releases everything.
	done chan struct{}
	// boxes heads the list of live mailboxes (linked through their
	// prev/next fields) that Close releases: blocked readers and
	// flow-control waiters. A closed mailbox needs nothing from Close,
	// so Conn.Close and Conn.Reset unlink their own; the list holds the
	// open connections only, and a finished one leaves nothing behind.
	boxes *mailbox
	// synRTO is the retransmission timeout applied when a SYN is lost.
	synRTO time.Duration
	// maxSYN is how many SYNs are sent before giving up with ErrTimeout.
	maxSYN int
	// loopback selects the zero-delay server mode (SetLoopback).
	loopback bool
}

type udpService struct {
	handler UDPHandler
	think   time.Duration
}

// New creates a network. The default link has the given parameters;
// destinations may override via SetLink. The seed makes jitter and loss
// reproducible.
func New(clk clock.Clock, def LinkParams, seed int64) *Network {
	return &Network{
		clk:     clk,
		rng:     rand.New(rand.NewSource(seed)),
		defLink: def,
		links:   make(map[netip.Addr]*linkState),
		tcp:     make(map[netip.AddrPort]TCPHandler),
		udp:     make(map[netip.AddrPort]udpService),
		synRTO:  time.Second,
		maxSYN:  3,
		done:    make(chan struct{}),
	}
}

// SetLoopback switches the network into zero-delay loopback server
// mode: connection establishment returns without sleeping the
// handshake round trip, established connections deliver bytes
// synchronously into the peer's receive buffer (no per-direction
// scheduler goroutine, no serialisation or propagation sleeps), and
// UDP services answer inline on the sender's thread (no per-datagram
// goroutine). Link loss, jitter, and bandwidth are ignored.
//
// This is the engine-ceiling mode: benchmarks that want to measure the
// relay engine rather than the simulated wire run against a loopback
// network, the way a loopback iperf measures a host's stack rather
// than a path (the `bench/` relay workloads). Flow control is still
// real — a sender blocks when the peer's receive buffer is full — so
// it is meant for request/response workloads, not one-directional
// firehoses against a stalled reader.
//
// Call it once, before any connection or datagram exists; connections
// snapshot the mode at creation.
func (n *Network) SetLoopback(on bool) {
	n.mu.Lock()
	n.loopback = on
	n.mu.Unlock()
}

// Loopback reports whether zero-delay loopback mode is active.
func (n *Network) Loopback() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.loopback
}

// linkFor returns the live link state for a destination, creating it
// from the default parameters on first use. Everything that models the
// path — dials, per-direction schedulers, in-flight datagrams — goes
// through the returned pointer, never a copied LinkParams.
func (n *Network) linkFor(addr netip.Addr) *linkState {
	n.mu.Lock()
	defer n.mu.Unlock()
	ls, ok := n.links[addr]
	if !ok {
		ls = &linkState{p: n.defLink}
		n.links[addr] = ls
	}
	return ls
}

// SetLink overrides the path parameters for one destination address.
// The change is live: established connections and in-flight datagrams
// to that destination experience the new parameters from this moment on
// (the next chunk scheduled, the return trip of a datagram still at the
// server, the next SYN retransmission). That is what lets a scripted
// condition timeline model a handover mid-flow.
func (n *Network) SetLink(dst netip.Addr, p LinkParams) {
	n.linkFor(dst).setParams(p)
}

// Link returns the path parameters currently used for a destination.
func (n *Network) Link(dst netip.Addr) LinkParams {
	n.mu.Lock()
	ls, ok := n.links[dst]
	n.mu.Unlock()
	if ok {
		return ls.params()
	}
	return n.defLink
}

// SetSYNRetry configures SYN loss recovery.
func (n *Network) SetSYNRetry(rto time.Duration, attempts int) {
	n.mu.Lock()
	n.synRTO = rto
	n.maxSYN = attempts
	n.mu.Unlock()
}

// HandleTCP registers a TCP server at addr.
func (n *Network) HandleTCP(addr netip.AddrPort, h TCPHandler) {
	n.mu.Lock()
	n.tcp[addr] = h
	n.mu.Unlock()
}

// HandleUDP registers a UDP request/response service at addr. think is
// the simulated server processing time per request.
func (n *Network) HandleUDP(addr netip.AddrPort, think time.Duration, h UDPHandler) {
	n.mu.Lock()
	n.udp[addr] = udpService{handler: h, think: think}
	n.mu.Unlock()
}

// AddSniffer attaches a wire observer (the tcpdump vantage point).
func (n *Network) AddSniffer(s Sniffer) {
	n.mu.Lock()
	n.sniffers = append(n.sniffers, s)
	n.mu.Unlock()
}

func (n *Network) emit(ev WireEvent) {
	n.mu.Lock()
	ss := n.sniffers
	n.mu.Unlock()
	for _, s := range ss {
		s(ev)
	}
}

// Close shuts the network down: new dials fail, blocked senders and
// readers are released, and delivery goroutines exit.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	boxes := n.boxes
	n.boxes = nil
	close(n.done)
	n.mu.Unlock()
	// The list is frozen: unlink returns early once closed is set.
	for b := boxes; b != nil; b = b.next {
		b.close()
	}
}

// link adds a new connection's mailbox to the live list. Caller holds
// n.mu; a mailbox made after Close is never linked.
func (n *Network) link(m *mailbox) {
	m.next = n.boxes
	if n.boxes != nil {
		n.boxes.prev = m
	}
	n.boxes = m
}

// unlink removes a closed connection's mailbox from the live list.
// Every mailbox made before Close was linked, so while the network is
// open m is on the list.
func (n *Network) unlink(m *mailbox) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	if m.prev != nil {
		m.prev.next = m.next
	} else {
		n.boxes = m.next
	}
	if m.next != nil {
		m.next.prev = m.prev
	}
	m.prev, m.next = nil, nil
}

func (n *Network) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// jitter draws a uniform [0, j) duration under the network lock.
func (n *Network) jitter(j time.Duration) time.Duration {
	if j <= 0 {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return time.Duration(n.rng.Int63n(int64(j)))
}

// drop draws a loss event.
func (n *Network) drop(p float64) bool {
	if p <= 0 {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64() < p
}

func (n *Network) lookupTCP(dst netip.AddrPort) (TCPHandler, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.tcp[dst]
	return h, ok
}

func (n *Network) lookupUDP(dst netip.AddrPort) (udpService, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.udp[dst]
	return s, ok
}

// Dial establishes a TCP connection from src to dst, blocking for the
// SYN/SYN-ACK round trip (plus retransmission timeouts under loss). This
// is the path a blocking connect() takes; the timing of this call is what
// MopEye measures.
func (n *Network) Dial(src, dst netip.AddrPort) (*Conn, error) {
	if n.isClosed() {
		return nil, ErrNetDown
	}
	ls := n.linkFor(dst.Addr())
	n.mu.Lock()
	rto, attempts := n.synRTO, n.maxSYN
	loopback := n.loopback
	n.mu.Unlock()
	for i := 0; i < attempts; i++ {
		// Re-read per attempt: a timeline step may have shifted the link
		// while this dial was waiting out an RTO.
		link := ls.params()
		n.emit(WireEvent{At: n.clk.Nanos(), Kind: EventSYN, Local: src, Remote: dst, Bytes: 40})
		if !loopback && n.drop(link.Loss) {
			n.clk.Sleep(rto)
			continue
		}
		var rtt time.Duration
		if !loopback {
			rtt = link.RTT() + n.jitter(link.Jitter) + n.jitter(link.Jitter)
			if link.SharedQueue {
				// The 40-byte SYN and SYN-ACK wait behind whatever is
				// queued on the bottleneck in each direction — the
				// mechanism by which bufferbloat distorts measured
				// connect RTTs.
				now := n.clk.Nanos()
				rtt += ls.reserve(now, 40, false) + ls.reserve(now, 40, true)
			}
		}
		handler, ok := n.lookupTCP(dst)
		if !ok {
			// RST arrives after a full round trip.
			n.clk.Sleep(rtt)
			n.emit(WireEvent{At: n.clk.Nanos(), Kind: EventRST, Local: src, Remote: dst, Bytes: 40})
			return nil, ErrRefused
		}
		n.clk.Sleep(rtt)
		n.emit(WireEvent{At: n.clk.Nanos(), Kind: EventSYNACK, Local: src, Remote: dst, Bytes: 40})
		client, server := n.newConnPair(src, dst, ls)
		go handler(server)
		return client, nil
	}
	return nil, ErrTimeout
}

// newConnPair wires two halves together with one scheduler per
// direction. Both halves share the destination's live link state, so a
// SetLink after establishment reshapes the delay, jitter and bandwidth
// every subsequent chunk experiences.
func (n *Network) newConnPair(src, dst netip.AddrPort, ls *linkState) (client, server *Conn) {
	client = &Conn{net: n, local: src, remote: dst, ls: ls, clientSide: true}
	server = &Conn{net: n, local: dst, remote: src, ls: ls}
	client.peer, server.peer = server, client
	client.rx = newMailbox(DefaultRecvBuffer)
	server.rx = newMailbox(DefaultRecvBuffer)
	n.mu.Lock()
	if !n.closed {
		n.link(client.rx)
		n.link(server.rx)
	}
	n.mu.Unlock()
	// Up direction: client -> server.
	client.tx = newScheduler(n, ls, false, server.rx)
	// Down direction: server -> client.
	server.tx = newScheduler(n, ls, true, client.rx)
	return client, server
}
