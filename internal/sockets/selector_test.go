package sockets

import (
	"sync"
	"testing"
	"time"
)

// Tests for the lock-free SelectionKey and the selector's ready queue —
// the shared-nothing hot path's event plumbing. These complement the
// end-to-end selector tests in sockets_test.go by pinning the
// properties the engine's sharded dispatch depends on: consume-once
// readiness through the queue, no duplicate queue slots, canceled keys
// dropped at collection, and attachment swaps that are safe against
// concurrent readers.

// connectedKey registers a fresh connected channel and returns its key.
func connectedKey(t *testing.T, p *Provider, sel *Selector, ops Ops) *SelectionKey {
	t.Helper()
	ch := p.Open()
	t.Cleanup(func() { ch.Close() })
	if err := ch.Connect(serverAP); err != nil {
		t.Fatal(err)
	}
	return sel.Register(ch, ops, nil)
}

// TestAttachmentSwapUnderConcurrentReads is the satellite's race test:
// Attach on one goroutine (the engine's connect path swapping
// eventConnect for the TCP client, with a changing concrete type) while
// readers hammer Attachment. Run under -race this proves the lock-free
// swap; single-threaded it still pins last-write-wins visibility.
func TestAttachmentSwapUnderConcurrentReads(t *testing.T) {
	p, _ := newProvider(t, CostModel{})
	sel := p.NewSelector()
	defer sel.Close()
	key := connectedKey(t, p, sel, OpRead)

	type boxA struct{ v int }
	type boxB struct{ s string }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch a := key.Attachment().(type) {
				case nil, *boxA, *boxB:
				default:
					t.Errorf("unexpected attachment type %T", a)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			key.Attach(&boxA{v: i})
		} else {
			key.Attach(&boxB{s: "swap"})
		}
	}
	close(stop)
	wg.Wait()
	if _, ok := key.Attachment().(*boxB); !ok {
		t.Errorf("final attachment = %T, want *boxB", key.Attachment())
	}
}

// TestReadyQueueSingleSlot: however many ops fire before the key is
// selected, it occupies one queue slot and is returned once.
func TestReadyQueueSingleSlot(t *testing.T) {
	p, _ := newProvider(t, CostModel{})
	sel := p.NewSelector()
	defer sel.Close()
	key := connectedKey(t, p, sel, OpRead|OpWrite)

	key.markReady(OpRead)
	key.markReady(OpWrite)
	key.markReady(OpRead)

	keys := sel.SelectNow()
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("selected %d keys, want the one key once", len(keys))
	}
	if got := keys[0].ReadyOps(); got&OpRead == 0 || got&OpWrite == 0 {
		t.Errorf("ReadyOps = %v, want OpRead|OpWrite", got)
	}
	// Consume-once: the set is cleared, and the emptied key must not
	// linger in the queue.
	if got := key.ReadyOps(); got != 0 {
		t.Errorf("second ReadyOps = %v, want 0", got)
	}
	if keys = sel.SelectNow(); len(keys) != 0 {
		t.Errorf("emptied key was re-selected: %v", keys)
	}
}

// TestReadyReEnqueueAfterConsume: readiness arriving after a consume
// re-queues the key — the drop-then-requeue path collectLocked relies
// on.
func TestReadyReEnqueueAfterConsume(t *testing.T) {
	p, _ := newProvider(t, CostModel{})
	sel := p.NewSelector()
	defer sel.Close()
	key := connectedKey(t, p, sel, OpRead)

	key.markReady(OpRead)
	if keys := sel.SelectNow(); len(keys) != 1 {
		t.Fatalf("first readiness not selected")
	}
	key.ReadyOps()
	key.markReady(OpRead)
	keys := sel.SelectNow()
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("re-armed key not re-selected: %v", keys)
	}
}

// TestCancelWhileQueuedDropped: a key canceled between enqueue and
// collection is dropped, not delivered to the worker.
func TestCancelWhileQueuedDropped(t *testing.T) {
	p, _ := newProvider(t, CostModel{})
	sel := p.NewSelector()
	defer sel.Close()
	ch := p.Open()
	if err := ch.Connect(serverAP); err != nil {
		t.Fatal(err)
	}
	key := sel.Register(ch, OpRead, nil)
	key.markReady(OpRead)
	ch.Close() // cancels the key while it sits in the ready queue
	if !key.canceled.Load() {
		t.Fatal("close did not cancel the key")
	}
	if keys := sel.SelectNow(); len(keys) != 0 {
		t.Errorf("canceled key delivered: %v", keys)
	}
}

// TestUninterestedReadinessNotQueued: readiness outside the interest
// set stays pending on the key but never wakes the selector; widening
// the interest later (the engine's OpWrite backpressure toggle)
// surfaces it.
func TestUninterestedReadinessNotQueued(t *testing.T) {
	p, _ := newProvider(t, CostModel{})
	sel := p.NewSelector()
	defer sel.Close()
	key := connectedKey(t, p, sel, OpRead)

	key.markReady(OpWrite) // not interested: must not enqueue
	if keys := sel.SelectNow(); len(keys) != 0 {
		t.Fatalf("uninterested readiness selected: %v", keys)
	}
	// SetInterestOps(OpRead|OpWrite) marks write-ready itself (the
	// simulated socket is always writable) and enqueues.
	key.SetInterestOps(OpRead | OpWrite)
	keys := sel.SelectNow()
	if len(keys) != 1 || keys[0].ReadyOps()&OpWrite == 0 {
		t.Fatalf("widened interest did not surface readiness: %v", keys)
	}
}

// TestMarkReadySelectRace hammers markReady from several goroutines
// against a consuming Select loop; under -race this exercises the CAS
// or-loop against the Swap-consume, and the accounting below catches a
// lost wakeup (a marked key never delivered).
func TestMarkReadySelectRace(t *testing.T) {
	p, _ := newProvider(t, CostModel{})
	sel := p.NewSelector()
	defer sel.Close()
	key := connectedKey(t, p, sel, OpRead)

	const marks = 500
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < marks; i++ {
				key.markReady(OpRead)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	deadline := time.After(10 * time.Second)
	for {
		keys := sel.SelectNow()
		for _, k := range keys {
			k.ReadyOps()
		}
		select {
		case <-done:
			// All markReady calls issued; one final drain must leave the
			// key consumable and the queue empty.
			for _, k := range sel.SelectNow() {
				k.ReadyOps()
			}
			if got := key.ReadyOps(); got != 0 {
				// A mark may have landed after the drain above; consume
				// and confirm it was the last.
				if again := key.ReadyOps(); again != 0 {
					t.Fatalf("ready set refilled without markReady: %v", again)
				}
			}
			return
		case <-deadline:
			t.Fatal("selector stalled under concurrent markReady")
		default:
		}
	}
}
