package engine

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/fifoq"
	"repro/internal/stats"
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
// come from. newPut keeps the writer spinning through a sleep counter
// so the handoff almost never happens.

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

// outPacket is one queued tunnel write: the encoded bytes plus the
// pool token of the buffer backing them, recycled by TunWriter after
// the tunnel write copies the bytes out.
type outPacket struct {
	raw []byte
	buf *[]byte
}

// packetQueue is the TunWriter's input queue with both put algorithms.
type packetQueue struct {
	clk      clock.Clock
	newPut   bool
	spinMax  int
	spinWait time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	items   fifoq.Queue[outPacket]
	waiting bool // the TunWriter is parked in wait()
	closed  bool
	rng     *rand.Rand

	putHist stats.DelayHistogram
}

func newPacketQueue(clk clock.Clock, newPut bool, spinMax int, seed int64) *packetQueue {
	q := &packetQueue{
		clk:      clk,
		newPut:   newPut,
		spinMax:  spinMax,
		spinWait: 100 * time.Microsecond,
		rng:      rand.New(rand.NewSource(seed)),
	}
	if q.spinMax <= 0 {
		q.spinMax = 512
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// put enqueues one packet, charging the notify handoff when the writer
// thread must be woken from wait(). The enqueue duration is recorded in
// the put histogram (the oldPut/newPut columns of Table 1). buf is the
// pool token for raw's backing buffer (may be nil); ownership moves to
// the queue and then to TunWriter.
func (q *packetQueue) put(raw []byte, buf *[]byte) {
	start := q.clk.Nanos()
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		if buf != nil {
			encodeBufPool.Put(buf)
		}
		return
	}
	q.items.Push(outPacket{raw: raw, buf: buf})
	mustWake := q.waiting
	if mustWake {
		q.cond.Signal()
	}
	var handoff time.Duration
	if mustWake {
		handoff = notifyHandoff(q.rng)
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

// take dequeues the next packet for TunWriter, blocking according to the
// configured algorithm. ok is false when the queue is closed and empty.
func (q *packetQueue) take() (raw []byte, buf *[]byte, ok bool) {
	if q.newPut {
		return q.takeNewPut()
	}
	return q.takeOldPut()
}

// takeOldPut is the traditional scheme: park in wait() whenever empty.
func (q *packetQueue) takeOldPut() ([]byte, *[]byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 {
		if q.closed {
			return nil, nil, false
		}
		q.waiting = true
		q.cond.Wait()
		q.waiting = false
	}
	out, _ := q.items.Pop()
	return out.raw, out.buf, true
}

// takeNewPut implements §3.5.1's sleep counter: keep checking (with a
// tiny sleep per round) while the counter is below the threshold;
// decrement (halve) the counter whenever the queue is found non-empty;
// only park in wait() when the counter reaches the threshold. The
// counter resets on wakeup.
func (q *packetQueue) takeNewPut() ([]byte, *[]byte, bool) {
	counter := 0
	for {
		q.mu.Lock()
		if q.items.Len() > 0 {
			out, _ := q.items.Pop()
			q.mu.Unlock()
			counter /= 2
			return out.raw, out.buf, true
		}
		if q.closed {
			q.mu.Unlock()
			return nil, nil, false
		}
		if counter >= q.spinMax {
			q.waiting = true
			q.cond.Wait()
			q.waiting = false
			counter = 0
			q.mu.Unlock()
			continue
		}
		q.mu.Unlock()
		counter++
		q.clk.SleepFine(q.spinWait)
	}
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
