package fifoq

import (
	"sync"
	"time"

	"repro/internal/clock"
)

// Inbox is a synchronised Queue that receivers block on: the inbox of
// an emulated datagram socket. Push and Close wake a blocked receiver,
// so Recv returns on the event itself, bounded by one clock deadline,
// with no poll in between. Any number of goroutines may receive at
// once. The zero value is open and empty.
type Inbox[T any] struct {
	mu     sync.Mutex
	q      Queue[T]
	closed bool
	// ready holds a token while an item or the close may be waiting for
	// a blocked receiver. One token is enough: a receiver that leaves
	// items or the close behind passes it on before it returns.
	ready chan struct{}
}

// Push queues v for a receiver; after Close it is dropped.
func (b *Inbox[T]) Push(v T) {
	b.mu.Lock()
	if !b.closed {
		b.q.Push(v)
		b.wake()
	}
	b.mu.Unlock()
}

// Recv returns the oldest item, waiting up to timeout for one to
// arrive. ok is false if the timeout elapsed or the inbox was closed
// with nothing queued.
func (b *Inbox[T]) Recv(clk clock.Clock, timeout time.Duration) (v T, ok bool) {
	var expired <-chan time.Time
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.q.Len() == 0 && !b.closed && timeout > 0 {
		if b.ready == nil {
			b.ready = make(chan struct{}, 1)
		}
		if expired == nil {
			expired = clk.After(timeout)
		}
		ready := b.ready
		b.mu.Unlock()
		select {
		case <-ready:
		case <-expired:
			timeout = 0 // one last look at the queue, then give up
		}
		b.mu.Lock()
	}
	v, ok = b.q.Pop()
	if b.q.Len() > 0 || b.closed {
		b.wake()
	}
	return v, ok
}

// TryRecv returns the oldest item without blocking.
func (b *Inbox[T]) TryRecv() (T, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.q.Pop()
}

// Close drops later pushes and wakes every receiver once the queue is
// drained. It reports whether this call closed the inbox.
func (b *Inbox[T]) Close() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	b.closed = true
	b.wake()
	return true
}

// Closed reports whether Close has been called.
func (b *Inbox[T]) Closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// wake leaves a blocked receiver the token, if one has ever waited.
// Called with mu held.
func (b *Inbox[T]) wake() {
	select {
	case b.ready <- struct{}{}:
	default:
	}
}
