package engine

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/fifoq"
	"repro/internal/stats"
	"repro/internal/tun"
)

// This file implements the write queue of the tunnel write path
// (§3.5.1). The read-side queue of §3.2 is the per-worker ring in
// ringq.go.
//
// Table 1 compares four schemes. directWrite has every producer thread
// write to the (single, serialised) tunnel itself, so producers observe
// the write syscall cost plus contention. queueWrite moves the write to
// a dedicated TunWriter thread; the producer cost becomes the enqueue.
// With a plain wait/notify queue (oldPut), enqueuing while the writer
// sleeps pays the notify handoff, which is where the 1–5 ms overheads
// come from. The paper's newPut writer polls through a sleep counter
// and parks only after a run of empty checks, so the handoff almost
// never happens. Here both schemes share one writer, which blocks
// whenever the queue is empty; only put differs (see parkAfter), so a
// waiting writer costs no CPU.

// notifyHandoff models the java wait/notify wakeup cost paid by the
// notifier: usually sub-millisecond, with a 1–5 ms tail that dominates
// the oldPut column of Table 1.
func notifyHandoff(r *rand.Rand) time.Duration {
	p := r.Float64()
	switch {
	case p < 0.42:
		return time.Millisecond + time.Duration(r.Int63n(int64(4*time.Millisecond)))
	case p < 0.55:
		return 400*time.Microsecond + time.Duration(r.Int63n(int64(600*time.Microsecond)))
	default:
		return time.Duration(r.Int63n(int64(250 * time.Microsecond)))
	}
}

// parkAfter is how long the paper's newPut writer polls an empty queue
// before it parks (§3.5.1): the sleep counter's threshold of 512 empty
// checks, each followed by a 100 µs sleep.
const parkAfter = 512 * 100 * time.Microsecond

// packetQueue is the TunWriter's input queue with both put algorithms.
type packetQueue struct {
	clk    clock.Clock
	newPut bool

	mu        sync.Mutex
	cond      *sync.Cond
	items     fifoq.Queue[[]byte]
	waiting   bool  // the TunWriter is blocked in take
	idleSince int64 // clk.Nanos() when the TunWriter began waiting
	closed    bool
	rng       *rand.Rand

	putHist stats.DelayHistogram
}

func newPacketQueue(clk clock.Clock, newPut bool, seed int64) *packetQueue {
	q := &packetQueue{
		clk:    clk,
		newPut: newPut,
		rng:    rand.New(rand.NewSource(seed)),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// put enqueues one packet, charging the notify handoff when the writer
// must be woken from wait(): always under oldPut, under newPut only
// once it has waited parkAfter. The enqueue duration is recorded in
// the put histogram (the oldPut/newPut columns of Table 1). Ownership
// of raw moves to the queue and then to TunWriter; a closed queue
// releases it (tun.ReleaseBuffer).
func (q *packetQueue) put(raw []byte) {
	start := q.clk.Nanos()
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		tun.ReleaseBuffer(raw)
		return
	}
	q.items.Push(raw)
	var handoff time.Duration
	if q.waiting {
		q.cond.Signal()
		if !q.newPut || start-q.idleSince >= int64(parkAfter) {
			handoff = notifyHandoff(q.rng)
		}
	}
	q.mu.Unlock()
	if handoff > 0 {
		q.clk.SleepFine(handoff)
	}
	d := time.Duration(q.clk.Nanos() - start)
	q.mu.Lock()
	q.putHist.Add(d)
	q.mu.Unlock()
}

// take dequeues the next packet for TunWriter, blocking while the queue
// is empty. ok is false when the queue is closed and empty.
func (q *packetQueue) take() (raw []byte, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 {
		if q.closed {
			return nil, false
		}
		q.waiting = true
		q.idleSince = q.clk.Nanos()
		q.cond.Wait()
		q.waiting = false
	}
	return q.items.Pop()
}

func (q *packetQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *packetQueue) putHistogram() stats.DelayHistogram {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.putHist
}
