package netsim

import (
	"errors"
	"net/netip"
	"sync"
	"time"
)

// DefaultRecvBuffer is the per-connection receive buffer, matching the
// 64 KiB socket buffers MopEye configures (§3.4). When the buffer is
// full the sender backpressures, which is what bounds throughput to
// window/RTT the way kernel TCP flow control does.
const DefaultRecvBuffer = 65535

// sendQueueDepth bounds the number of in-flight chunks per direction
// (the send buffer analogue). Writers block when it is full.
const sendQueueDepth = 64

// chunk is one scheduled byte delivery on a delayed link.
type chunk struct {
	data    []byte
	arrival int64 // target arrival, clock nanos
}

// pooledRecvBuf is the least capacity a drained receive buffer must
// have to go back to recvBufs; a smaller one stays with its mailbox.
const pooledRecvBuf = 4 << 10

// recvBufs recycles the receive buffers bulk transfers grow. A mailbox
// with no buffer draws from it whatever it is about to receive (the
// engine writes at most one MSS at a time, so a draw kept for big
// writes would never happen), and a drained buffer of pooledRecvBuf or
// more goes back, so a flow that sits drained pins no large buffer. A
// smaller buffer stays: a flow of small messages reuses its own, which
// pins a few bytes rather than a pooled page. Get returns nil when the
// pool is empty, and append then sizes a new buffer to the delivery.
var recvBufs sync.Pool // of *[]byte

// mailbox is an endpoint receive buffer with blocking and non-blocking
// reads and an optional readability callback for selector integration.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	space *sync.Cond
	// buf[off:] are the unread bytes, one contiguous run; tok is the
	// recvBufs token buf came with, if it came from there. buf is nil
	// only before the first delivery and after a drain that pooled it.
	buf        []byte
	off        int
	tok        *[]byte
	capBytes   int
	eof        bool
	rst        bool
	closed     bool
	onReadable func()
	// prev and next link the network's live list; guarded by the
	// network's mu.
	prev, next *mailbox
}

func newMailbox(capBytes int) *mailbox {
	m := &mailbox{capBytes: capBytes}
	m.cond = sync.NewCond(&m.mu)
	m.space = sync.NewCond(&m.mu)
	return m
}

// unread is how many bytes wait to be read. Caller holds m.mu.
func (m *mailbox) unread() int { return len(m.buf) - m.off }

// deliver copies data into the receive buffer, blocking while it would
// overfill it (flow control); data is the caller's again on return.
// data must not exceed capBytes, or it can never fit.
func (m *mailbox) deliver(data []byte) {
	m.mu.Lock()
	for m.unread()+len(data) > m.capBytes && !m.closed && !m.rst {
		m.space.Wait()
	}
	if m.closed || m.rst {
		m.mu.Unlock()
		return
	}
	wasEmpty := m.unread() == 0
	if m.buf == nil {
		if tok, ok := recvBufs.Get().(*[]byte); ok {
			m.buf, m.tok = (*tok)[:0], tok
		}
	}
	if len(m.buf)+len(data) > cap(m.buf) && m.off > 0 {
		// Slide the unread bytes down before append has to grow.
		n := copy(m.buf, m.buf[m.off:])
		m.buf, m.off = m.buf[:n], 0
	}
	m.buf = append(m.buf, data...)
	m.cond.Signal()
	cb := m.onReadable
	m.mu.Unlock()
	if wasEmpty && cb != nil {
		cb()
	}
}

// signal ends the stream: with a reset when rst (which also releases a
// deliver blocked on flow control), else with EOF. It never blocks, so
// abort paths cannot deadlock behind a full buffer.
func (m *mailbox) signal(rst bool) {
	m.mu.Lock()
	if rst {
		m.rst = true
		m.space.Broadcast()
	} else {
		m.eof = true
	}
	m.cond.Broadcast()
	cb := m.onReadable
	m.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// read copies up to len(buf) bytes out. block selects blocking
// behaviour; non-blocking empty reads return ErrWouldBlock.
func (m *mailbox) read(buf []byte, block bool) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.unread() == 0 {
		if m.rst {
			return 0, ErrReset
		}
		if m.eof {
			return 0, errEOF
		}
		if m.closed {
			return 0, ErrClosed
		}
		if !block {
			return 0, ErrWouldBlock
		}
		m.cond.Wait()
	}
	n := copy(buf, m.buf[m.off:])
	m.off += n
	if m.off == len(m.buf) {
		m.drainedLocked()
	}
	m.space.Broadcast()
	return n, nil
}

// drainedLocked rewinds a drained buffer, or hands it back to recvBufs
// when it is pooledRecvBuf or more. Caller holds m.mu.
func (m *mailbox) drainedLocked() {
	m.off = 0
	if cap(m.buf) < pooledRecvBuf {
		m.buf = m.buf[:0]
		return
	}
	if m.tok == nil { // grown here, not drawn from the pool
		m.tok = new([]byte)
	}
	*m.tok = m.buf[:0]
	recvBufs.Put(m.tok)
	m.buf, m.tok = nil, nil
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.space.Broadcast()
	m.mu.Unlock()
}

func (m *mailbox) setOnReadable(cb func()) {
	m.mu.Lock()
	m.onReadable = cb
	readable := m.unread() > 0 || m.eof || m.rst
	m.mu.Unlock()
	if readable && cb != nil {
		cb()
	}
}

// errEOF distinguishes orderly stream end internally; exported as
// ErrEOFConn via Conn.Read.
var errEOF = errors.New("netsim: EOF")

// scheduler delivers chunks to a destination mailbox after the link's
// serialisation and propagation delays, in FIFO order. Control signals
// (EOF after drain, immediate RST) travel out of band so teardown never
// blocks behind flow control. The link is re-read from the shared
// linkState per chunk, so a mid-flow SetLink reshapes delivery of
// everything scheduled after it.
type scheduler struct {
	net *Network
	ls  *linkState
	// down marks direction: true = server->phone (the Down bandwidth).
	down bool
	dst  *mailbox
	// sync marks loopback mode: deliveries happen inline on the
	// sender's thread and no run goroutine exists.
	sync bool

	mu            sync.Mutex
	nextFree      int64 // when the link can begin serialising the next chunk
	lastArr       int64 // monotonic arrival enforcement
	closed        bool
	eofAfterDrain bool

	q    chan chunk
	ctrl chan struct{} // wakes the run loop to re-check control flags
}

func newScheduler(n *Network, ls *linkState, down bool, dst *mailbox) *scheduler {
	s := &scheduler{
		net:  n,
		ls:   ls,
		down: down,
		dst:  dst,
	}
	if n.Loopback() {
		// Zero-delay loopback: no scheduler goroutine at all. Data goes
		// straight into the peer's mailbox (flow control still applies
		// — deliver blocks while the buffer is full, a full send buffer
		// in socket terms), EOF/RST flags flip inline.
		s.sync = true
		return s
	}
	s.q = make(chan chunk, sendQueueDepth)
	s.ctrl = make(chan struct{}, 1)
	go s.run()
	return s
}

// send delivers data toward the peer and returns once it is done with
// data: a loopback send copies it straight into the peer's receive
// buffer, any other copies it once into the chunk it queues. Either
// way the caller's slice never outlives the call, so a caller's
// stack buffer (EchoHandler's) stays on the stack. send blocks when
// the send queue is full (send-buffer backpressure), unblocking if the
// network shuts down.
func (s *scheduler) send(data []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.sync {
		s.mu.Unlock()
		s.dst.deliver(data)
		// Network.Close releases a deliver blocked on flow control by
		// closing the mailbox, which drops the data: report it as the
		// queued path does.
		select {
		case <-s.net.done:
			return ErrNetDown
		default:
			return nil
		}
	}
	now := s.net.clk.Nanos()
	// Live link read: a SetLink between writes moves every chunk
	// scheduled from here on, which is the handover contract.
	link := s.ls.params()
	var arr int64
	if link.SharedQueue {
		// Bufferbloat mode: serialisation is charged against the
		// destination's shared per-direction queue, so concurrent flows
		// inflate each other's delivery times.
		arr = now + int64(s.ls.reserve(now, len(data), s.down)) +
			int64(link.Delay) + int64(s.net.jitter(link.Jitter))
	} else {
		bw := link.Up
		if s.down {
			bw = link.Down
		}
		start := now
		if s.nextFree > start {
			start = s.nextFree
		}
		var tx int64
		if bw > 0 && len(data) > 0 {
			tx = int64(time.Duration(len(data)) * time.Second / time.Duration(bw))
		}
		s.nextFree = start + tx
		arr = s.nextFree + int64(link.Delay) + int64(s.net.jitter(link.Jitter))
	}
	if arr < s.lastArr {
		arr = s.lastArr
	}
	s.lastArr = arr
	s.mu.Unlock()
	select {
	case s.q <- chunk{data: append([]byte(nil), data...), arrival: arr}:
		return nil
	case <-s.net.done:
		return ErrNetDown
	}
}

// closeWithEOF asks the run loop to deliver an EOF after draining queued
// data, then exit. Never blocks.
func (s *scheduler) closeWithEOF() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.eofAfterDrain = true
	sync := s.sync
	s.mu.Unlock()
	if sync {
		s.dst.signal(false) // EOF
		return
	}
	s.wake()
}

// abort delivers a RST immediately (out of band) and stops the run
// loop. Never blocks: RST delivery is a flag flip on the mailbox, which
// also releases any deliver blocked on flow control.
func (s *scheduler) abort() {
	s.mu.Lock()
	if s.closed && !s.eofAfterDrain {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.eofAfterDrain = false
	sync := s.sync
	s.mu.Unlock()
	s.dst.signal(true)
	if !sync {
		s.wake()
	}
}

func (s *scheduler) wake() {
	select {
	case s.ctrl <- struct{}{}:
	default:
	}
}

func (s *scheduler) run() {
	for {
		select {
		case c := <-s.q:
			s.deliverAt(c)
		case <-s.ctrl:
			// Drain whatever was enqueued before the control signal,
			// preserving order, then act on the flags.
			for {
				select {
				case c := <-s.q:
					s.deliverAt(c)
					continue
				default:
				}
				break
			}
			s.mu.Lock()
			eof := s.eofAfterDrain
			closed := s.closed
			s.mu.Unlock()
			if eof {
				s.dst.signal(false) // EOF
			}
			if closed {
				return
			}
		case <-s.net.done:
			return
		}
	}
}

func (s *scheduler) deliverAt(c chunk) {
	d := time.Duration(c.arrival - s.net.clk.Nanos())
	if d > 0 {
		s.net.clk.Sleep(d)
	}
	s.dst.deliver(c.data)
}

// Conn is one endpoint of an established simulated TCP connection.
// Methods mirror what a socket offers: blocking and non-blocking reads,
// writes with flow control, half-close, and reset.
type Conn struct {
	net        *Network
	local      netip.AddrPort
	remote     netip.AddrPort
	clientSide bool

	rx *mailbox
	tx *scheduler

	mu          sync.Mutex
	writeClosed bool
	closed      bool
}

// Write sends len(b) bytes toward the peer, blocking on flow control.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.closed || c.writeClosed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	c.mu.Unlock()
	if len(b) == 0 {
		return 0, nil
	}
	// Segment at a fraction of the receive buffer so no single chunk
	// can exceed the peer's window — a write larger than the buffer
	// must trickle through flow control, not wedge behind it.
	const maxChunk = DefaultRecvBuffer / 4
	for off := 0; off < len(b); off += maxChunk {
		end := off + maxChunk
		if end > len(b) {
			end = len(b)
		}
		if err := c.tx.send(b[off:end]); err != nil {
			return off, err
		}
	}
	return len(b), nil
}

// Read blocks until data, EOF, or reset. At stream end it returns
// (0, ErrEOFConn).
func (c *Conn) Read(buf []byte) (int, error) {
	n, err := c.rx.read(buf, true)
	if errors.Is(err, errEOF) {
		return n, ErrEOFConn
	}
	return n, err
}

// TryRead is the non-blocking read used by the selector-driven relay.
func (c *Conn) TryRead(buf []byte) (int, error) {
	n, err := c.rx.read(buf, false)
	if errors.Is(err, errEOF) {
		return n, ErrEOFConn
	}
	return n, err
}

// SetOnReadable installs a callback fired when the connection becomes
// readable. The selector uses this for event notification.
func (c *Conn) SetOnReadable(cb func()) { c.rx.setOnReadable(cb) }

// CloseWrite half-closes: the peer sees EOF once in-flight data drains.
// Never blocks.
func (c *Conn) CloseWrite() error {
	c.mu.Lock()
	if c.writeClosed || c.closed {
		c.mu.Unlock()
		return nil
	}
	c.writeClosed = true
	c.mu.Unlock()
	c.tx.closeWithEOF()
	return nil
}

// Close fully closes the endpoint: the peer sees EOF after in-flight
// data, and local reads fail with ErrClosed. Never blocks.
func (c *Conn) Close() error {
	c.CloseWrite()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.rx.close()
	c.net.unlink(c.rx)
	return nil
}

// Reset aborts the connection: the peer observes ErrReset immediately,
// jumping any queued data. Never blocks.
func (c *Conn) Reset() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.writeClosed = true
	c.mu.Unlock()
	if c.clientSide {
		c.net.emit(WireEvent{At: c.net.clk.Nanos(), Kind: EventRST, Local: c.local, Remote: c.remote})
	}
	c.tx.abort()
	c.rx.close()
	c.net.unlink(c.rx)
	return nil
}

// ErrEOFConn reports orderly stream end from Read/TryRead.
var ErrEOFConn = errors.New("netsim: connection EOF")
