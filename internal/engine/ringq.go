package engine

import (
	"sync"
	"sync/atomic"
)

// ringQ is one worker's tunnel-packet queue: a bounded
// single-producer/single-consumer ring. The producer is the TunReader
// (reader.go); the consumer is the worker the ring belongs to. Pushes
// and pops on the hot path are two atomic loads, one atomic store, and
// one slot write — no lock, no allocation in steady state. FIFO order
// within the ring is what preserves per-flow packet ordering (a flow's
// packets all land in the same ring).
//
// The consumer never sleeps on the ring: it parks in its selector's
// Select, and the reader wakes that selector after pushing. Only the
// producer can block here, when the ring is full — backpressure toward
// the TUN queue, which drops on overflow exactly like a real device.
// The park/wake protocol is the standard flag-then-recheck dance: the
// producer sets prodWait and re-checks the ring under the mutex before
// waiting, the consumer advances head and then loads the flag —
// sequentially consistent atomics make it impossible for both to miss.
type ringQ struct {
	// head is owned by the consumer, tail by the producer; buf slot i
	// is written by the producer before the tail store publishes it and
	// cleared by the consumer before the head store releases it.
	buf  [][]byte
	mask uint64
	head atomic.Uint64
	tail atomic.Uint64

	pktClosed atomic.Bool

	// wake (the consumer selector's Wakeup) is invoked wherever the
	// consumer could otherwise sleep through a state change it must
	// see: a producer about to park on a full ring, and the packet
	// lane's close. The per-push consumer wakeup is NOT routed through
	// it — the reader pays that Wakeup itself, once per packet (§3.2).
	wake func()

	mu       sync.Mutex
	space    *sync.Cond // producer waits here when the ring is full
	prodWait atomic.Bool
}

// ringSize is the per-worker ring capacity (the read queue of §3.2):
// deep enough that a worker absorbing a burst of its own flows never
// stalls the reader, small enough that backpressure reaches the TUN
// queue before unbounded memory does. A variable only so a test can
// shorten it; nothing else writes it.
var ringSize = 1024

// newRingQ builds a ring of size rounded up to a power of two.
func newRingQ(size int, wake func()) *ringQ {
	n := 1
	for n < size {
		n <<= 1
	}
	q := &ringQ{buf: make([][]byte, n), mask: uint64(n - 1), wake: wake}
	q.space = sync.NewCond(&q.mu)
	return q
}

func (q *ringQ) capacity() int { return len(q.buf) }

// pushPacket enqueues one raw tunnel packet. Single producer only. It
// blocks while the ring is full; closing the packet lane is the
// producer's own act, so a blocked push only ever waits on the
// consumer, which drains before it exits.
func (q *ringQ) pushPacket(raw []byte) {
	for {
		t := q.tail.Load()
		if t-q.head.Load() < uint64(len(q.buf)) {
			q.buf[t&q.mask] = raw
			q.tail.Store(t + 1)
			return
		}
		// Full ring: the consumer may be parked in Select having last
		// seen an empty ring — wake it before waiting, or nobody makes
		// space.
		q.wake()
		q.mu.Lock()
		q.prodWait.Store(true)
		if q.tail.Load()-q.head.Load() >= uint64(len(q.buf)) {
			q.space.Wait()
		}
		q.prodWait.Store(false)
		q.mu.Unlock()
	}
}

// popPacket dequeues one packet without blocking. Single consumer only.
func (q *ringQ) popPacket() ([]byte, bool) {
	h := q.head.Load()
	if h == q.tail.Load() {
		return nil, false
	}
	raw := q.buf[h&q.mask]
	q.buf[h&q.mask] = nil
	q.head.Store(h + 1)
	if q.prodWait.Load() {
		q.mu.Lock()
		q.space.Signal()
		q.mu.Unlock()
	}
	return raw, true
}

// drained reports a closed and empty packet lane: the worker's exit
// test.
func (q *ringQ) drained() bool {
	return q.pktClosed.Load() && q.head.Load() == q.tail.Load()
}

// closePackets marks the packet lane closed. Only the producer calls
// it, after its final push, so no push can follow.
func (q *ringQ) closePackets() {
	q.pktClosed.Store(true)
	q.wake()
}
