package fifoq

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestSteadyStateAllocFree pins the reason the type exists: once the
// backing array is there, a push/pop pair reuses it.
func TestSteadyStateAllocFree(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	if allocs := testing.AllocsPerRun(1000, func() {
		q.Push(v)
		if _, ok := q.Pop(); !ok {
			t.Fatal("pop missed")
		}
	}); allocs != 0 {
		t.Errorf("push/pop allocates %.1f per op, want 0", allocs)
	}
}

// TestStandingBacklog drives the case the head rewind never sees — a
// backlog that does not empty — through both pop shapes, and checks
// FIFO order, that no popped slot still references its item, and that
// the backing array stays at the size of the backlog instead of
// growing with the number of items ever queued.
func TestStandingBacklog(t *testing.T) {
	const backlog, rounds = 100, 10000
	var q Queue[*int]
	next := 0
	push := func() {
		v := next
		q.Push(&v)
		next++
	}
	for i := 0; i < backlog; i++ {
		push()
	}
	batch := make([]*int, 3)
	for taken := 0; taken < rounds; {
		got := batch[:1]
		if taken%2 == 0 {
			got[0], _ = q.Pop()
		} else {
			got = batch[:q.PopInto(batch)]
		}
		for _, v := range got {
			if v == nil || *v != taken {
				t.Fatalf("item %d out of order: got %v", taken, v)
			}
			taken++
			push()
		}
	}
	if q.Len() != backlog {
		t.Errorf("Len %d, want %d", q.Len(), backlog)
	}
	if c := cap(q.items); c > 4*backlog {
		t.Errorf("backing array grew to %d slots for a backlog of %d", c, backlog)
	}
	for i, v := range q.items[:q.head] {
		if v != nil {
			t.Fatalf("popped slot %d still references its item", i)
		}
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue[int]
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from an empty queue succeeded")
	}
	q.Push(7)
	if v, ok := q.Pop(); !ok || v != 7 || q.Len() != 0 {
		t.Fatalf("got %d, %v, len %d", v, ok, q.Len())
	}
}

// TestInboxWakesEveryReceiver blocks several receivers on a virtual
// clock that stands still, so only Push and Close can wake them: two
// pushes must reach two receivers, and Close must release the rest.
func TestInboxWakesEveryReceiver(t *testing.T) {
	const receivers = 4
	clk := clock.NewVirtual(time.Unix(0, 0))
	var in Inbox[int]
	got := make(chan bool, receivers)
	for i := 0; i < receivers; i++ {
		go func() {
			_, ok := in.Recv(clk, 5*time.Second)
			got <- ok
		}()
	}
	for clk.Pending() < receivers { // every receiver has armed its timeout
		runtime.Gosched()
	}
	in.Push(1)
	in.Push(2)
	delivered := 0
	for i := 0; i < 2; i++ {
		select {
		case ok := <-got:
			if !ok {
				t.Fatal("a receiver returned empty-handed with items queued")
			}
			delivered++
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 2 pushes reached a receiver while the clock stood still", delivered)
		}
	}
	if !in.Close() || in.Close() {
		t.Error("Close did not report the first close alone")
	}
	for i := 2; i < receivers; i++ {
		select {
		case ok := <-got:
			if ok {
				t.Fatal("a receiver got an item after the queue was drained")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Close released %d of %d blocked receivers", i-2, receivers-2)
		}
	}
	if _, ok := in.Recv(clk, time.Second); ok || !in.Closed() {
		t.Error("Recv on a closed, drained inbox did not return at once")
	}
}
