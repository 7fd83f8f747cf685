// Package fifoq is the slice-backed FIFO behind the packet queues on
// the relay path: the engine's tunnel write queue and the emulated TUN
// device's two directions. It exists because the obvious pop,
// items = items[1:], walks the slice off the end of its backing array —
// so every put reallocates — and leaves the popped elements' pointers
// reachable in the dead prefix.
package fifoq

// Queue is an unsynchronised FIFO; the zero value is empty and ready.
// Its backing array is reused: a push/pop pair on a queue in steady
// state allocates nothing, and capacity settles at a small multiple of
// the peak backlog. Popped slots are cleared, so the queue keeps
// nothing reachable that it has handed out.
type Queue[T any] struct {
	items []T // items[head:] is the backlog, items[:head] is cleared
	head  int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	// A backlog that never empties never rewinds the head (PopInto), so
	// when the array is full and at least half of it is dead prefix,
	// slide the backlog down rather than let append copy the prefix
	// into a larger array. Waiting for half keeps the slide amortised.
	if q.head > 0 && len(q.items) == cap(q.items) && q.head >= len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// PopInto moves up to len(dst) of the oldest items into dst, in order,
// and returns how many.
func (q *Queue[T]) PopInto(dst []T) int {
	n := copy(dst, q.items[q.head:])
	clear(q.items[q.head : q.head+n])
	q.head += n
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return n
}

// Pop removes and returns the oldest item; ok is false when the queue
// is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	var one [1]T
	ok = q.PopInto(one[:]) == 1
	return one[0], ok
}
