// Package tun emulates the Android VpnService TUN virtual network
// device (/dev/tun) that MopEye builds its interception on (§2.2).
//
// A TUN device is a point-to-point IP link between the kernel and a
// user-space process. Here the "kernel side" is the simulated phone
// stack (package phonestack) injecting app packets, and the "user-space
// side" is the engine's TunReader/TunWriter threads.
//
// The device reproduces the behaviour that drives §3.1 of the paper: its
// file descriptor starts in non-blocking mode, so a reader either
// sleep-polls (the ToyVpn / Haystack / PrivacyGuard paradigm) or flips
// the descriptor to blocking mode the way MopEye does via fcntl /
// libcore.io.IoUtils.setBlocking. Both modes are observable here, with
// per-packet queueing delay recorded so experiments can quantify the
// retrieval latency each paradigm costs.
package tun

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/fifoq"
)

// DefaultMTU is the MTU a device starts with when the backend has no
// interface to query. MopEye sends 1500-byte IP packets to apps (§3.4).
const DefaultMTU = 1500

// Errors.
var (
	ErrClosed     = errors.New("tun: device closed")
	ErrWouldBlock = errors.New("tun: read would block") // EAGAIN analogue
	ErrTooBig     = errors.New("tun: packet exceeds MTU")
)

// queued is one packet plus, on the outbound queue, the time it entered
// the queue, used to measure retrieval delay.
type queued struct {
	data     []byte
	enqueued int64 // clock nanos
}

// fifo is one direction of the device: a blocking-capable packet queue
// guarded by a condition variable, and that direction's counters, kept
// under the lock every packet takes anyway. Closing wakes all waiters.
//
// The counters count the engine's side of each hop. The outbound queue
// has a clock: it stamps each packet on entry and counts what is taken
// from it, with its queueing delay, and the reads that found it empty.
// The inbound queue has none and counts what is put into it.
type fifo struct {
	clk    clock.Clock // nil on the inbound queue
	mu     sync.Mutex
	cond   *sync.Cond
	items  fifoq.Queue[queued]
	closed bool
	max    int

	packets    int
	bytes      int64
	drops      int
	emptyReads int
	delaySum   time.Duration
	delayMax   time.Duration
}

func newFIFO(max int, clk clock.Clock) *fifo {
	f := &fifo{max: max, clk: clk}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// pushLocked queues one packet, or drops it on overflow and releases
// its buffer: real TUN queues drop rather than block the kernel.
func (f *fifo) pushLocked(data []byte) {
	if f.clk == nil {
		f.packets++
		f.bytes += int64(len(data))
	}
	if f.items.Len() >= f.max {
		f.drops++
		ReleaseBuffer(data)
		return
	}
	q := queued{data: data}
	if f.clk != nil {
		q.enqueued = f.clk.Nanos()
	}
	f.items.Push(q)
}

func (f *fifo) put(data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.pushLocked(data)
	f.cond.Signal()
	return nil
}

// putBatch queues a burst under one lock, dropping on overflow exactly
// like per-packet put does.
func (f *fifo) putBatch(pkts [][]byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	for _, data := range pkts {
		f.pushLocked(data)
	}
	f.cond.Broadcast()
	return nil
}

// waitLocked waits until the queue holds a packet, the way take and
// takeBatch both do. If block is false an empty queue returns
// ErrWouldBlock.
func (f *fifo) waitLocked(block bool) error {
	for f.items.Len() == 0 {
		if f.closed {
			return ErrClosed
		}
		if !block {
			f.emptyReads++
			return ErrWouldBlock
		}
		f.cond.Wait()
	}
	return nil
}

// tookLocked counts one packet the engine read, and its queueing delay
// as of now.
func (f *fifo) tookLocked(q queued, now int64) {
	f.packets++
	f.bytes += int64(len(q.data))
	if delay := time.Duration(now - q.enqueued); delay >= 0 {
		f.delaySum += delay
		if delay > f.delayMax {
			f.delayMax = delay
		}
	}
}

// take removes the head. If block is false it returns ErrWouldBlock on
// an empty queue.
func (f *fifo) take(block bool) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.waitLocked(block); err != nil {
		return nil, err
	}
	q, _ := f.items.Pop()
	if f.clk != nil {
		f.tookLocked(q, f.clk.Nanos())
	}
	return q.data, nil
}

// takeBatch removes up to len(dst) packets from the outbound queue in
// one lock acquisition. Blocking semantics match
// take for the first packet; the rest of the burst is whatever is
// already queued, never an extra wait. Every packet's delay is measured
// at the burst's retrieval instant.
func (f *fifo) takeBatch(dst [][]byte, block bool) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.waitLocked(block); err != nil {
		return 0, err
	}
	now := f.clk.Nanos()
	n := 0
	for n < len(dst) {
		q, ok := f.items.Pop()
		if !ok {
			break
		}
		f.tookLocked(q, now)
		dst[n] = q.data
		n++
	}
	return n, nil
}

func (f *fifo) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.items.Len()
}

func (f *fifo) close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Stats aggregates device counters. CPU accounting uses EmptyReads: each
// failed non-blocking read is one futile wakeup of the polling thread.
type Stats struct {
	PacketsOut   int // app -> engine packets read
	PacketsIn    int // engine -> app packets written
	BytesOut     int64
	BytesIn      int64
	EmptyReads   int // non-blocking reads that returned ErrWouldBlock
	Drops        int // packets dropped on queue overflow
	ReadDelayMax time.Duration
	ReadDelaySum time.Duration
}

// MeanReadDelay returns the average time packets sat in the outbound
// queue before the engine retrieved them.
func (s Stats) MeanReadDelay() time.Duration {
	if s.PacketsOut == 0 {
		return 0
	}
	return s.ReadDelaySum / time.Duration(s.PacketsOut)
}

// Device is the emulated TUN interface.
type Device struct {
	clk clock.Clock

	outbound *fifo // phone -> engine
	inbound  *fifo // engine -> phone

	// blocking and mtu are read on every Read, Write and
	// InjectOutbound, so they are atomics rather than fields under mu.
	blocking atomic.Bool
	mtu      atomic.Int64

	mu     sync.Mutex
	closed bool

	// writeMu serialises engine-side writes: the kernel tunnel accepts
	// one write at a time, which is why multiple writer threads contend
	// (§3.5.1 "multiple writing threads share only one tunnel").
	writeMu   sync.Mutex
	writeCost func(*rand.Rand) time.Duration
	writeRng  *rand.Rand

	// wbScratch is the WriteBatch staging area, guarded by writeMu.
	wbScratch [][]byte
}

// New creates a TUN device with the given queue capacity per direction.
// The descriptor starts in non-blocking mode, matching Android, where no
// API sets blocking mode before 5.0 (§3.1).
func New(clk clock.Clock, queueCap int) *Device {
	if queueCap <= 0 {
		queueCap = 1024
	}
	d := &Device{
		clk:      clk,
		outbound: newFIFO(queueCap, clk),
		inbound:  newFIFO(queueCap, nil),
	}
	d.mtu.Store(DefaultMTU)
	return d
}

// MTU reports the device MTU. Writes larger than this fail with
// ErrTooBig.
func (d *Device) MTU() int { return int(d.mtu.Load()) }

// SetMTU overrides the device MTU (DefaultMTU at construction). It
// emulates configuring the interface before bringing the tunnel up —
// call it before traffic flows, not mid-run.
func (d *Device) SetMTU(mtu int) {
	if mtu <= 0 {
		return
	}
	d.mtu.Store(int64(mtu))
}

// SetBlocking switches the read mode of the descriptor, the equivalent of
// fcntl(F_SETFL) at native level or the hidden
// libcore.io.IoUtils.setBlocking (§3.1).
func (d *Device) SetBlocking(b bool) { d.blocking.Store(b) }

// Blocking reports the current read mode.
func (d *Device) Blocking() bool { return d.blocking.Load() }

// Read retrieves the next outgoing app packet (the engine side of the
// tunnel input stream). In blocking mode it waits for a packet; in
// non-blocking mode it returns ErrWouldBlock immediately when the queue
// is empty, and the caller is expected to sleep-poll. The packet's
// buffer is the caller's until it passes it to Release.
func (d *Device) Read() ([]byte, error) {
	return d.outbound.take(d.Blocking())
}

// Release returns a buffer that Read or ReadInbound handed out (see
// Interface).
func (d *Device) Release(buf []byte) { ReleaseBuffer(buf) }

// ReadBatch retrieves up to len(dst) outgoing app packets in one call —
// the emulated equivalent of a batched read (readv/recvmmsg): the queue
// lock, the blocking/poll decision, and the stats update are paid once
// per burst instead of once per packet. Semantics match Read: in
// blocking mode the call waits for the first packet; in non-blocking
// mode an empty queue returns ErrWouldBlock and counts one empty read
// (one futile wakeup — the poll schedule is per burst, not per packet).
// Once one packet is available the rest of the burst is whatever is
// already queued, never an extra wait. Per-packet retrieval delay is
// measured at the burst's retrieval instant.
func (d *Device) ReadBatch(dst [][]byte) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	return d.outbound.takeBatch(dst, d.Blocking())
}

// SetWriteCost installs a per-write syscall cost model, drawn once per
// Write while holding the single-tunnel write lock. This is the cost
// Table 1 measures: on Android a tunnel write usually takes ~0.1 ms but
// occasionally much longer, and concurrent writers queue behind it.
func (d *Device) SetWriteCost(f func(*rand.Rand) time.Duration, seed int64) {
	d.writeMu.Lock()
	d.writeCost = f
	d.writeRng = rand.New(rand.NewSource(seed))
	d.writeMu.Unlock()
}

// AndroidWriteCost is a write cost distribution calibrated to §3.5.1:
// ~0.1 ms typical with an occasional multi-millisecond spike.
func AndroidWriteCost() func(*rand.Rand) time.Duration {
	return func(r *rand.Rand) time.Duration {
		c := 60*time.Microsecond + time.Duration(r.Int63n(int64(120*time.Microsecond)))
		p := r.Float64()
		switch {
		case p < 0.004:
			c += 5*time.Millisecond + time.Duration(r.Int63n(int64(18*time.Millisecond)))
		case p < 0.02:
			c += time.Millisecond + time.Duration(r.Int63n(int64(3*time.Millisecond)))
		}
		return c
	}
}

// Write sends a packet to the phone side (the engine writing a
// synthesised packet to the app). It corresponds to writing to
// mInterface's output stream. Writes are serialised and charge the
// configured write cost, so concurrent writers observe queueing delay.
func (d *Device) Write(pkt []byte) error {
	if len(pkt) > d.MTU() {
		return ErrTooBig
	}
	d.writeMu.Lock()
	if d.writeCost != nil {
		c := d.writeCost(d.writeRng)
		if c > 0 {
			d.clk.SleepFine(c)
		}
	}
	err := d.inbound.put(copyPacket(pkt))
	d.writeMu.Unlock()
	return err
}

// copyPacket copies a packet into a buffer of its own, pooled when it
// fits bufferSize.
func copyPacket(pkt []byte) []byte {
	cp := Buffer(len(pkt))
	copy(cp, pkt)
	return cp
}

// WriteBatch sends a burst of packets to the phone side, serialising
// once on the single tunnel instead of once per packet and delivering
// the whole burst into the inbound queue under one lock. The per-write
// syscall cost model is still charged per packet — batching amortises
// queue locking, not the modelled kernel work. Packets fail
// independently, matching a loop of per-packet Writes: an oversized
// packet is skipped (and reported via the returned error) while the
// rest of the burst is still delivered — ACKs and FINs of other flows
// must not be lost to one bad packet. It returns how many packets were
// delivered and the first per-packet error.
func (d *Device) WriteBatch(pkts [][]byte) (int, error) {
	if len(pkts) == 0 {
		return 0, nil
	}
	mtu := d.MTU()
	d.writeMu.Lock()
	staged := d.wbScratch[:0]
	var ferr error
	for _, pkt := range pkts {
		if len(pkt) > mtu {
			if ferr == nil {
				ferr = ErrTooBig
			}
			continue
		}
		if d.writeCost != nil {
			if c := d.writeCost(d.writeRng); c > 0 {
				d.clk.SleepFine(c)
			}
		}
		staged = append(staged, copyPacket(pkt))
	}
	n := len(staged)
	err := d.inbound.putBatch(staged)
	clear(staged)
	d.wbScratch = staged[:0]
	d.writeMu.Unlock()
	if err != nil {
		return 0, err
	}
	return n, ferr
}

// InjectOutbound is the kernel-side entry point: the phone stack routes
// an app's IP packet into the TUN. It is also how the engine releases a
// blocked Read during shutdown — by injecting a dummy packet, exactly the
// trick §3.1 describes (self-sent pre-5.0, DownloadManager-triggered on
// 5.0+).
func (d *Device) InjectOutbound(pkt []byte) error {
	if len(pkt) > d.MTU() {
		return ErrTooBig
	}
	return d.outbound.put(copyPacket(pkt))
}

// ReadInbound delivers the next engine-written packet to the phone side;
// it always blocks (the phone kernel is always ready to receive). As
// with Read, the buffer is the caller's until it passes it to Release.
func (d *Device) ReadInbound() ([]byte, error) {
	return d.inbound.take(true)
}

// OutboundLen reports how many app packets are waiting for the engine.
func (d *Device) OutboundLen() int { return d.outbound.len() }

// InboundLen reports how many engine packets are waiting for the phone.
func (d *Device) InboundLen() int { return d.inbound.len() }

// Stats returns a snapshot of the device counters, one direction's
// under one lock.
func (d *Device) Stats() Stats {
	var s Stats
	out, in := d.outbound, d.inbound
	out.mu.Lock()
	s.PacketsOut, s.BytesOut, s.Drops = out.packets, out.bytes, out.drops
	s.EmptyReads, s.ReadDelaySum, s.ReadDelayMax = out.emptyReads, out.delaySum, out.delayMax
	out.mu.Unlock()
	in.mu.Lock()
	s.PacketsIn, s.BytesIn = in.packets, in.bytes
	s.Drops += in.drops
	in.mu.Unlock()
	return s
}

// Close tears the interface down, waking any blocked readers with
// ErrClosed.
func (d *Device) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	d.outbound.close()
	d.inbound.close()
}

// Closed reports whether Close has been called.
func (d *Device) Closed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}
