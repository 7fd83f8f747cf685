package sockets

import (
	"sync"
	"sync/atomic"
	"time"
)

// Ops is a bit set of selectable operations, mirroring java.nio
// SelectionKey interest/ready sets.
type Ops int

// Selectable operations.
const (
	OpRead Ops = 1 << iota
	OpWrite
	OpConnect
)

// SelectionKey binds a channel to a selector with an interest set and an
// attachment, like java.nio.channels.SelectionKey. MopEye attaches the
// TCP client object so the event handler can reach the state machine
// (§2.3 "two-way referencing").
//
// The per-event state is lock-free: interest, ready, the attachment,
// and the cancel flag are independent atomics, so the relay hot path —
// markReady from the network callback, ReadyOps/Attachment from the
// processing worker, SetInterestOps from the packet handlers — never
// serialises on a key mutex. The Java-mirroring mutex the seed carried
// here was load-bearing only for compound read-modify-write on `ready`,
// which CAS loops now provide directly. The one non-atomic field,
// queued, belongs to the selector's ready queue and is guarded by the
// selector mutex.
type SelectionKey struct {
	sel *Selector
	ch  *Channel

	// attachment is boxed so the stored value can change concrete type
	// (the engine swaps *eventConnect for *relay.TCPClient when a
	// non-blocking connect completes).
	attachment atomic.Pointer[any]
	interest   atomic.Int32
	ready      atomic.Int32
	canceled   atomic.Bool

	// queued marks membership in the selector's ready queue; guarded by
	// sel.mu, never touched outside enqueueReady/collectLocked.
	queued bool
}

// Channel returns the registered channel.
func (k *SelectionKey) Channel() *Channel { return k.ch }

// Attachment returns the attached object, like
// java.nio.channels.SelectionKey.attachment(). Lock-free: the
// multi-worker engine reads it on the dispatch path while a
// socket-connect thread may be swapping it via Attach.
func (k *SelectionKey) Attachment() interface{} {
	if p := k.attachment.Load(); p != nil {
		return *p
	}
	return nil
}

// Attach replaces the attached object.
func (k *SelectionKey) Attach(a interface{}) {
	k.attachment.Store(&a)
}

// SetInterestOps replaces the interest set. Adding OpWrite immediately
// marks the key write-ready (the simulated socket is always writable;
// the send path applies flow control inside Write itself).
func (k *SelectionKey) SetInterestOps(ops Ops) {
	k.interest.Store(int32(ops))
	if ops&OpWrite != 0 {
		k.markReady(OpWrite)
	}
}

// ReadyOps returns and clears the ready set; the selected-key consumer
// calls this once per selected key (consume-once semantics).
func (k *SelectionKey) ReadyOps() Ops {
	return Ops(k.ready.Swap(0)) & Ops(k.interest.Load())
}

// markReady records readiness and, when the key is interested, hands it
// to its selector's ready queue.
func (k *SelectionKey) markReady(op Ops) {
	if k.canceled.Load() {
		return
	}
	for {
		old := k.ready.Load()
		if old&int32(op) == int32(op) && old != 0 {
			// Bit already set: the key is queued (or about to be
			// collected and re-examined); nothing to publish.
			break
		}
		if k.ready.CompareAndSwap(old, old|int32(op)) {
			break
		}
	}
	if Ops(k.interest.Load())&op != 0 {
		k.sel.enqueueReady(k)
	}
}

// cancel removes the key from its selector.
func (k *SelectionKey) cancel() {
	k.canceled.Store(true)
	k.sel.remove(k)
}

// Canceled reports whether the key was canceled.
func (k *SelectionKey) Canceled() bool {
	return k.canceled.Load()
}

// Selector multiplexes channel readiness, mirroring
// java.nio.channels.Selector including Wakeup — which MopEye's TunReader
// uses to make a packet-processing thread monitor its tunnel packet
// queue and its socket events simultaneously (§3.2). Each engine worker
// owns one Selector, so readiness never crosses a shared stage.
//
// Select is O(ready), not O(registered): markReady pushes interested
// keys onto a ready queue, and Select drains the queue instead of
// scanning every registered key. The scan was the top entry of the
// loopback ceiling CPU profile once the ring path stopped allocating —
// thousands of idle keys paid a mutexed poll on every wakeup.
type Selector struct {
	p *Provider

	mu     sync.Mutex
	cond   *sync.Cond
	keys   map[*SelectionKey]struct{}
	readyQ []*SelectionKey
	wakeup bool
	closed bool
	// Selects counts Select returns; Wakeups counts explicit Wakeup
	// calls; both feed the CPU accounting.
	Selects int64
	Wakeups int64
}

// NewSelector creates a selector.
func (p *Provider) NewSelector() *Selector {
	s := &Selector{p: p, keys: make(map[*SelectionKey]struct{})}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Register attaches a channel with an interest set, paying the
// register() cost (§3.4: MopEye defers this call to the socket-connect
// thread because it is sometimes expensive).
func (s *Selector) Register(ch *Channel, ops Ops, attachment interface{}) *SelectionKey {
	if c := drawCost(s.p.Costs.Register, s.p.rng, &s.p.mu); c > 0 {
		s.p.Clk.SleepFine(c)
	}
	key := &SelectionKey{sel: s, ch: ch}
	key.interest.Store(int32(ops))
	if attachment != nil {
		key.Attach(attachment)
	}
	s.mu.Lock()
	s.keys[key] = struct{}{}
	s.mu.Unlock()

	ch.mu.Lock()
	ch.key = key
	if ch.connected {
		ch.attachReadiness()
	}
	ch.mu.Unlock()
	if ops&OpWrite != 0 {
		key.markReady(OpWrite)
	}
	return key
}

func (s *Selector) remove(k *SelectionKey) {
	s.mu.Lock()
	delete(s.keys, k)
	// A queued canceled key is left in readyQ; collectLocked drops it.
	s.mu.Unlock()
}

// enqueueReady publishes a ready-and-interested key to the selector and
// wakes a pending Select. The queued flag keeps a key from occupying
// more than one queue slot however many ops fire before it is selected.
func (s *Selector) enqueueReady(k *SelectionKey) {
	s.mu.Lock()
	if !k.queued {
		k.queued = true
		s.readyQ = append(s.readyQ, k)
	}
	s.wakeup = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Wakeup unblocks a pending or the next Select call, like
// java.nio.channels.Selector.wakeup(). TunReader calls this after
// enqueuing a tunnel packet (§3.2), on the selector of the worker it
// enqueued to.
func (s *Selector) Wakeup() {
	s.mu.Lock()
	s.Wakeups++
	s.wakeup = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Select blocks until at least one registered key is ready, a Wakeup
// arrives, or the selector closes. It returns the keys with non-empty
// ready∩interest sets. The dispatch cost is applied once per readiness-
// driven return, modelling the notification latency of challenge C2.
func (s *Selector) Select() []*SelectionKey {
	return s.selectImpl(-1)
}

// SelectTimeout is Select with an upper bound on blocking; zero means
// poll without blocking. Poll-mode relays (the Haystack baseline) use
// it.
func (s *Selector) SelectTimeout(d time.Duration) []*SelectionKey {
	return s.selectImpl(d)
}

func (s *Selector) selectImpl(timeout time.Duration) []*SelectionKey {
	var timer <-chan time.Time
	if timeout > 0 {
		timer = s.p.Clk.After(timeout)
	}
	for {
		s.mu.Lock()
		for {
			if s.closed {
				s.mu.Unlock()
				return nil
			}
			ready := s.collectLocked()
			if len(ready) > 0 {
				s.wakeup = false
				s.Selects++
				s.mu.Unlock()
				if c := drawCost(s.p.Costs.Dispatch, s.p.rng, &s.p.mu); c > 0 {
					s.p.Clk.SleepFine(c)
				}
				return ready
			}
			if s.wakeup {
				s.wakeup = false
				s.Selects++
				s.mu.Unlock()
				return nil
			}
			if timeout == 0 {
				s.Selects++
				s.mu.Unlock()
				return nil
			}
			if timer != nil {
				// Blocking with timeout: wait in small slices so the
				// timer is honoured without a second goroutine.
				s.mu.Unlock()
				select {
				case <-timer:
					s.mu.Lock()
					s.Selects++
					ready := s.collectLocked()
					s.wakeup = false
					s.mu.Unlock()
					return ready
				default:
				}
				s.p.Clk.Sleep(200 * time.Microsecond)
				s.mu.Lock()
				continue
			}
			s.cond.Wait()
		}
	}
}

// collectLocked drains the ready queue, keeping the keys whose
// ready∩interest is still non-empty — a key may have been consumed (or
// canceled) between enqueue and collection, in which case it is
// dropped; readiness arriving after the drop re-enqueues it. Caller
// holds s.mu.
func (s *Selector) collectLocked() []*SelectionKey {
	if len(s.readyQ) == 0 {
		return nil
	}
	out := make([]*SelectionKey, 0, len(s.readyQ))
	for _, k := range s.readyQ {
		k.queued = false
		if !k.canceled.Load() && Ops(k.ready.Load())&Ops(k.interest.Load()) != 0 {
			out = append(out, k)
		}
	}
	s.readyQ = s.readyQ[:0]
	return out
}

// Close releases the selector, unblocking any Select.
func (s *Selector) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// KeyCount returns the number of registered keys.
func (s *Selector) KeyCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
}

// SelectorStats is a consistent point-in-time view of one selector,
// taken under the selector mutex — the safe way for observability
// code to read Selects/Wakeups, which are only coherent under s.mu.
type SelectorStats struct {
	Selects    int64 // Select returns
	Wakeups    int64 // explicit Wakeup calls
	ReadyDepth int   // keys queued ready right now
	Keys       int   // registered keys
}

// Stats snapshots the selector's counters and queue depths.
func (s *Selector) Stats() SelectorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SelectorStats{
		Selects:    s.Selects,
		Wakeups:    s.Wakeups,
		ReadyDepth: len(s.readyQ),
		Keys:       len(s.keys),
	}
}
