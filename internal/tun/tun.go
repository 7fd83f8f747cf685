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

// queued is one packet plus the time it entered the queue, used to
// measure retrieval delay.
type queued struct {
	data     []byte
	enqueued int64 // clock nanos
}

// fifo is a blocking-capable packet queue guarded by a condition
// variable. Closing wakes all waiters.
type fifo struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  fifoq.Queue[queued]
	closed bool
	max    int
	drops  int
}

func newFIFO(max int) *fifo {
	f := &fifo{max: max}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *fifo) put(q queued) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.items.Len() >= f.max {
		// Real TUN queues drop on overflow rather than blocking the
		// kernel.
		f.drops++
		return nil
	}
	f.items.Push(q)
	f.cond.Signal()
	return nil
}

// take removes the head. If block is false it returns ErrWouldBlock on an
// empty queue.
func (f *fifo) take(block bool) (queued, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.items.Len() == 0 {
		if f.closed {
			return queued{}, ErrClosed
		}
		if !block {
			return queued{}, ErrWouldBlock
		}
		f.cond.Wait()
	}
	q, _ := f.items.Pop()
	return q, nil
}

// takeBatch removes up to len(dst) queued packets in one lock
// acquisition. Blocking semantics match take for the first packet; the
// rest of the burst is whatever is already queued, never an extra wait.
func (f *fifo) takeBatch(dst []queued, block bool) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.items.Len() == 0 {
		if f.closed {
			return 0, ErrClosed
		}
		if !block {
			return 0, ErrWouldBlock
		}
		f.cond.Wait()
	}
	return f.items.PopInto(dst), nil
}

// putBatch appends a burst under one lock, dropping on overflow exactly
// like per-packet put does.
func (f *fifo) putBatch(qs []queued) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	for _, q := range qs {
		if f.items.Len() >= f.max {
			f.drops++
			continue
		}
		f.items.Push(q)
	}
	f.cond.Broadcast()
	return nil
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
	stats  Stats
	closed bool

	// writeMu serialises engine-side writes: the kernel tunnel accepts
	// one write at a time, which is why multiple writer threads contend
	// (§3.5.1 "multiple writing threads share only one tunnel").
	writeMu   sync.Mutex
	writeCost func(*rand.Rand) time.Duration
	writeRng  *rand.Rand

	// batchMu guards the ReadBatch scratch (one reader thread in
	// practice; the mutex keeps the API safe for concurrent callers
	// without allocating a scratch per call).
	batchMu      sync.Mutex
	batchScratch []queued

	// wbScratch is the WriteBatch staging area, guarded by writeMu.
	wbScratch []queued
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
		outbound: newFIFO(queueCap),
		inbound:  newFIFO(queueCap),
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
// is empty, and the caller is expected to sleep-poll.
func (d *Device) Read() ([]byte, error) {
	q, err := d.outbound.take(d.Blocking())
	if err != nil {
		if errors.Is(err, ErrWouldBlock) {
			d.mu.Lock()
			d.stats.EmptyReads++
			d.mu.Unlock()
		}
		return nil, err
	}
	delay := time.Duration(d.clk.Nanos() - q.enqueued)
	d.mu.Lock()
	d.stats.PacketsOut++
	d.stats.BytesOut += int64(len(q.data))
	d.stats.ReadDelaySum += delay
	if delay > d.stats.ReadDelayMax {
		d.stats.ReadDelayMax = delay
	}
	d.mu.Unlock()
	return q.data, nil
}

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
	d.batchMu.Lock()
	if cap(d.batchScratch) < len(dst) {
		d.batchScratch = make([]queued, len(dst))
	}
	scratch := d.batchScratch[:len(dst)]
	n, err := d.outbound.takeBatch(scratch, d.Blocking())
	if err != nil {
		d.batchMu.Unlock()
		if errors.Is(err, ErrWouldBlock) {
			d.mu.Lock()
			d.stats.EmptyReads++
			d.mu.Unlock()
		}
		return 0, err
	}
	now := d.clk.Nanos()
	var bytes int64
	var delaySum, delayMax time.Duration
	for i := 0; i < n; i++ {
		dst[i] = scratch[i].data
		bytes += int64(len(dst[i]))
		if delay := time.Duration(now - scratch[i].enqueued); delay >= 0 {
			delaySum += delay
			if delay > delayMax {
				delayMax = delay
			}
		}
		scratch[i] = queued{} // drop the reference; ownership moved to dst
	}
	d.batchMu.Unlock()
	d.mu.Lock()
	d.stats.PacketsOut += n
	d.stats.BytesOut += bytes
	d.stats.ReadDelaySum += delaySum
	if delayMax > d.stats.ReadDelayMax {
		d.stats.ReadDelayMax = delayMax
	}
	d.mu.Unlock()
	return n, nil
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
	cp := append([]byte(nil), pkt...)
	err := d.inbound.put(queued{data: cp, enqueued: d.clk.Nanos()})
	d.writeMu.Unlock()
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.stats.PacketsIn++
	d.stats.BytesIn += int64(len(pkt))
	d.mu.Unlock()
	return nil
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
	if cap(d.wbScratch) < len(pkts) {
		d.wbScratch = make([]queued, len(pkts))
	}
	staged := d.wbScratch[:0]
	var bytes int64
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
		cp := append([]byte(nil), pkt...)
		staged = append(staged, queued{data: cp, enqueued: d.clk.Nanos()})
		bytes += int64(len(pkt))
	}
	n := len(staged)
	err := d.inbound.putBatch(staged)
	for i := range staged {
		staged[i] = queued{}
	}
	d.writeMu.Unlock()
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	d.stats.PacketsIn += n
	d.stats.BytesIn += bytes
	d.mu.Unlock()
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
	cp := append([]byte(nil), pkt...)
	return d.outbound.put(queued{data: cp, enqueued: d.clk.Nanos()})
}

// ReadInbound delivers the next engine-written packet to the phone side;
// it always blocks (the phone kernel is always ready to receive).
func (d *Device) ReadInbound() ([]byte, error) {
	q, err := d.inbound.take(true)
	if err != nil {
		return nil, err
	}
	return q.data, nil
}

// OutboundLen reports how many app packets are waiting for the engine.
func (d *Device) OutboundLen() int { return d.outbound.len() }

// InboundLen reports how many engine packets are waiting for the phone.
func (d *Device) InboundLen() int { return d.inbound.len() }

// Stats returns a snapshot of the device counters, folding in queue drop
// counts.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	s := d.stats
	d.mu.Unlock()
	d.outbound.mu.Lock()
	s.Drops = d.outbound.drops
	d.outbound.mu.Unlock()
	d.inbound.mu.Lock()
	s.Drops += d.inbound.drops
	d.inbound.mu.Unlock()
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
