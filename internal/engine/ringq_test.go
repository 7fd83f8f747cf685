package engine

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Unit and property tests for the per-worker SPSC ring queue: FIFO
// order under concurrency (the invariant per-flow ordering rests on),
// producer backpressure when the ring is full, close semantics, and
// the allocation-free steady state.

// testConsumer stands in for a worker: it parks on a channel the way a
// worker parks in its selector, and the ring's wake callback is that
// channel's Wakeup.
type testConsumer struct {
	q      *ringQ
	wakeCh chan struct{}
}

func newTestConsumer(size int) *testConsumer {
	c := &testConsumer{wakeCh: make(chan struct{}, 1)}
	c.q = newRingQ(size, c.wake)
	return c
}

func (c *testConsumer) wake() {
	select {
	case c.wakeCh <- struct{}{}:
	default:
	}
}

// take returns the next packet, parking between the producer's wakes;
// ok is false once the lane is closed and drained. The producer side of
// a test calls wake after its pushes, as the reader does.
func (c *testConsumer) take() ([]byte, bool) {
	for {
		if raw, ok := c.q.popPacket(); ok {
			return raw, true
		}
		if c.q.drained() {
			return nil, false
		}
		<-c.wakeCh
	}
}

func TestRingQRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {1000, 1024},
	} {
		if got := newRingQ(tc.in, func() {}).capacity(); got != tc.want {
			t.Errorf("newRingQ(%d) capacity = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestRingQFIFOAcrossWrap pushes far more packets than the capacity
// through a concurrent producer/consumer pair and asserts strict FIFO —
// the wraparound indices must never skip or duplicate a slot.
func TestRingQFIFOAcrossWrap(t *testing.T) {
	c := newTestConsumer(16)
	const n = 5000
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			raw, ok := c.take()
			if !ok {
				done <- errf("queue closed at %d", i)
				return
			}
			if got := binary.BigEndian.Uint32(raw); got != uint32(i) {
				done <- errf("pop %d returned %d: FIFO violated", i, got)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		raw := make([]byte, 4)
		binary.BigEndian.PutUint32(raw, uint32(i))
		c.q.pushPacket(raw)
		c.wake()
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consumer stalled")
	}
}

// TestRingQPerFlowOrderAcrossRings mimics the reader's routing: one
// producer distributes sequence-numbered packets of many flows across
// several rings by flow hash (every packet of a flow lands in the same
// ring), and each ring's consumer asserts per-flow sequence numbers
// arrive strictly in order.
func TestRingQPerFlowOrderAcrossRings(t *testing.T) {
	const (
		rings = 4
		flows = 32
		perFl = 400
	)
	cs := make([]*testConsumer, rings)
	for i := range cs {
		cs[i] = newTestConsumer(64) // small: exercises full-ring backpressure
	}
	var wg sync.WaitGroup
	errs := make(chan error, rings)
	for _, c := range cs {
		wg.Add(1)
		go func(c *testConsumer) {
			defer wg.Done()
			last := make(map[uint32]uint32)
			for {
				raw, ok := c.take()
				if !ok {
					errs <- nil
					return
				}
				flow := binary.BigEndian.Uint32(raw[0:])
				seq := binary.BigEndian.Uint32(raw[4:])
				if prev, seen := last[flow]; seen && seq != prev+1 {
					errs <- errf("flow %d: seq %d after %d", flow, seq, prev)
					return
				}
				last[flow] = seq
			}
		}(c)
	}
	// Interleave flows the way a real tunnel does: round-robin over
	// flows, sequence numbers per flow.
	for seq := uint32(0); seq < perFl; seq++ {
		for flow := uint32(0); flow < flows; flow++ {
			raw := make([]byte, 8)
			binary.BigEndian.PutUint32(raw[0:], flow)
			binary.BigEndian.PutUint32(raw[4:], seq)
			c := cs[flow%rings]
			c.q.pushPacket(raw)
			c.wake() // one wake per push, like the reader's
		}
	}
	for _, c := range cs {
		c.q.closePackets()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRingQFullBlocksProducerUntilDrain verifies bounded-queue
// backpressure: a push beyond capacity wakes the consumer (which may be
// parked having last seen an empty ring) and parks the producer until
// the consumer pops.
func TestRingQFullBlocksProducerUntilDrain(t *testing.T) {
	c := newTestConsumer(4)
	q := c.q
	for i := 0; i < 4; i++ {
		q.pushPacket([]byte{byte(i)})
	}
	select {
	case <-c.wakeCh:
		t.Fatal("push into a ring with space woke the consumer")
	default:
	}
	pushed := make(chan struct{})
	go func() {
		q.pushPacket([]byte{99})
		close(pushed)
	}()
	select {
	case <-pushed:
		t.Fatal("push into a full ring returned without a pop")
	case <-time.After(20 * time.Millisecond):
	}
	select {
	case <-c.wakeCh:
	default:
		t.Fatal("producer parked on a full ring without waking the consumer")
	}
	if raw, ok := q.popPacket(); !ok || raw[0] != 0 {
		t.Fatalf("pop = %v, %v", raw, ok)
	}
	select {
	case <-pushed:
	case <-time.After(5 * time.Second):
		t.Fatal("producer not released by the pop")
	}
}

// TestRingQCloseReleasesConsumer parks a consumer on an empty ring and
// closes the lane: the close must wake it, and it must then see the
// lane closed and drained.
func TestRingQCloseReleasesConsumer(t *testing.T) {
	c := newTestConsumer(8)
	got := make(chan bool, 1)
	go func() {
		_, ok := c.take()
		got <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	c.q.closePackets()
	select {
	case ok := <-got:
		if ok {
			t.Fatal("take returned an item from an empty closed queue")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not release the parked consumer")
	}
}

// TestRingQDrainsBacklogAfterClose ensures close-then-drain semantics:
// packets pushed before close are all delivered before the consumer
// sees the lane closed and drained.
func TestRingQDrainsBacklogAfterClose(t *testing.T) {
	c := newTestConsumer(8)
	for i := 0; i < 5; i++ {
		c.q.pushPacket([]byte{byte(i)})
	}
	c.q.closePackets()
	pkts := 0
	for {
		if _, ok := c.take(); !ok {
			break
		}
		pkts++
	}
	if pkts != 5 {
		t.Fatalf("drained %d packets, want 5", pkts)
	}
}

// TestRingQSteadyStateAllocFree pins the allocation-free claim: a
// push/pop pair on a non-contended ring performs zero allocations.
func TestRingQSteadyStateAllocFree(t *testing.T) {
	q := newRingQ(64, func() {})
	raw := []byte{1, 2, 3}
	allocs := testing.AllocsPerRun(1000, func() {
		q.pushPacket(raw)
		if _, ok := q.popPacket(); !ok {
			t.Fatal("pop missed")
		}
	})
	if allocs != 0 {
		t.Errorf("push/pop allocates %.1f per op, want 0", allocs)
	}
}

// errf keeps the test goroutines terse.
func errf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}
