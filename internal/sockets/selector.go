package sockets

import (
	"sync"
	"sync/atomic"
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

// cancel removes the key from its selector; a second call is a no-op.
func (k *SelectionKey) cancel() {
	if !k.canceled.Swap(true) {
		k.sel.remove()
	}
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

	mu   sync.Mutex
	cond *sync.Cond
	// keys counts the registered keys. Nothing iterates them (Select
	// drains readyQ), so the selector holds no reference to an idle or
	// canceled key.
	keys   int
	readyQ []*SelectionKey
	// selected is the slice Select returns, reused by every select:
	// collectLocked empties it first, so between selects it holds only
	// the keys the last one returned.
	selected []*SelectionKey
	wakeup   bool
	closed   bool
	// Selects counts Select returns; Wakeups counts explicit Wakeup
	// calls; both feed the CPU accounting.
	Selects int64
	Wakeups int64
}

// NewSelector creates a selector.
func (p *Provider) NewSelector() *Selector {
	s := &Selector{p: p}
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
	s.keys++
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

func (s *Selector) remove() {
	s.mu.Lock()
	s.keys--
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
//
// The returned slice belongs to the selector, like Java's
// selectedKeys() set: it stays valid until the next Select or
// SelectNow, which reuses it. A caller that keeps keys past that copies
// them.
func (s *Selector) Select() []*SelectionKey {
	return s.selectImpl(true)
}

// SelectNow is Select without blocking, like
// java.nio.channels.Selector.selectNow(); it clears a pending Wakeup.
// The worker loops drain readiness with it between tunnel packets. Its
// result is reused as Select's is.
func (s *Selector) SelectNow() []*SelectionKey {
	return s.selectImpl(false)
}

func (s *Selector) selectImpl(block bool) []*SelectionKey {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return nil
		}
		if ready := s.collectLocked(); len(ready) > 0 {
			s.wakeup = false
			s.Selects++
			s.mu.Unlock()
			if c := drawCost(s.p.Costs.Dispatch, s.p.rng, &s.p.mu); c > 0 {
				s.p.Clk.SleepFine(c)
			}
			return ready
		}
		if s.wakeup || !block {
			s.wakeup = false
			s.Selects++
			s.mu.Unlock()
			return nil
		}
		s.cond.Wait()
	}
}

// collectLocked drains the ready queue into s.selected, keeping the
// keys whose ready∩interest is still non-empty — a key may have been
// consumed (or canceled) between enqueue and collection, in which case
// it is dropped; readiness arriving after the drop re-enqueues it.
// Caller holds s.mu.
//
// Both slices are cleared before they are truncated: a backing array
// would otherwise keep drained keys, and through their attachments
// whole finished flows, reachable until the slots are overwritten. A
// select that finds nothing ready therefore also lets go of the last
// one's keys before it blocks.
func (s *Selector) collectLocked() []*SelectionKey {
	clear(s.selected)
	s.selected = s.selected[:0]
	for _, k := range s.readyQ {
		k.queued = false
		if !k.canceled.Load() && Ops(k.ready.Load())&Ops(k.interest.Load()) != 0 {
			s.selected = append(s.selected, k)
		}
	}
	clear(s.readyQ)
	s.readyQ = s.readyQ[:0]
	return s.selected
}

// Close releases the selector, unblocking any Select.
func (s *Selector) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
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
		Keys:       s.keys,
	}
}
