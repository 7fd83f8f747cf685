package measure

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func brec(i int) Record {
	return Record{
		Kind: KindTCP,
		App:  fmt.Sprintf("app.%d", i%3),
		UID:  10000 + i%3,
		RTT:  time.Duration(i+1) * time.Millisecond,
		At:   time.Unix(0, int64(i)).UTC(),
	}
}

// The stream must observe exactly the records added after Subscribe,
// in Add order — the same order a Snapshot reports.
func TestSubscriptionSeesAddsInOrder(t *testing.T) {
	s := NewStore()
	sub := s.Subscribe(64, nil)
	defer sub.Close()
	const n = 50
	for i := 0; i < n; i++ {
		s.Add(brec(i))
	}
	snap := s.Snapshot()
	for i := 0; i < n; i++ {
		r, ok := sub.Next(context.Background())
		if !ok {
			t.Fatalf("stream ended at %d of %d", i, n)
		}
		if r != snap[i] {
			t.Fatalf("record %d: stream %+v != snapshot %+v", i, r, snap[i])
		}
	}
	// Delivered exactly n: nothing dropped under the lag bound.
	sub.Close()
	if r, ok := sub.Next(context.Background()); ok {
		t.Errorf("record beyond the %d added: %+v", n, r)
	}
}

func TestSubscriptionFilter(t *testing.T) {
	s := NewStore()
	sub := s.Subscribe(64, func(r Record) bool { return r.App == "app.1" })
	defer sub.Close()
	for i := 0; i < 30; i++ {
		s.Add(brec(i))
	}
	for i := 0; i < 10; i++ {
		r, ok := sub.Next(context.Background())
		if !ok {
			t.Fatalf("stream ended at %d", i)
		}
		if r.App != "app.1" {
			t.Fatalf("filter leaked %q", r.App)
		}
	}
	// Delivered exactly the 10 kept records, and filtered-out records
	// are not drops: the subscriber never wanted them.
	sub.Close()
	if r, ok := sub.Next(context.Background()); ok {
		t.Errorf("record beyond the 10 kept: %+v", r)
	}
	if d := s.DroppedRecords(); d != 0 {
		t.Errorf("filtered records counted as drops: %d", d)
	}
}

// A lagging reader drops (and counts) instead of blocking the
// producer — the bounded-lag contract.
func TestSubscriptionBoundedDrop(t *testing.T) {
	s := NewStore()
	sub := s.Subscribe(4, nil)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		s.Add(brec(i)) // no consumer draining: 4 land, 6 drop
	}
	if d := s.DroppedRecords(); d != 6 {
		t.Fatalf("store-wide drops %d, want 6", d)
	}
	// The survivors are the NEWEST records: a lagging cursor skips its
	// oldest unread rows, so what got through is a suffix, not a
	// random sample. Exactly 4 are delivered, 10 added less 6 dropped.
	for i := 6; i < 10; i++ {
		r, ok := sub.Next(context.Background())
		if !ok {
			t.Fatalf("stream ended at %d", i)
		}
		if want := brec(i); r != want {
			t.Fatalf("slot %d: got %+v want %+v", i, r, want)
		}
	}
	sub.Close()
	if r, ok := sub.Next(context.Background()); ok {
		t.Fatalf("record beyond the 4 survivors: %+v", r)
	}
}

func TestSubscriptionCloseReleasesBlockedNext(t *testing.T) {
	s := NewStore()
	sub := s.Subscribe(4, nil)
	done := make(chan bool)
	go func() {
		_, ok := sub.Next(context.Background())
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	sub.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Next returned a record from an empty closed stream")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next still blocked after Close")
	}
	if n := s.Subscribers(); n != 0 {
		t.Errorf("subscribers after close: %d", n)
	}
}

func TestSubscriptionContextCancel(t *testing.T) {
	s := NewStore()
	sub := s.Subscribe(4, nil)
	defer sub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool)
	go func() {
		_, ok := sub.Next(ctx)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Error("Next returned a record after cancellation")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next still blocked after context cancel")
	}
}

// Closing the store's broadcast side ends the stream but does not
// truncate it: records already ringed are still delivered.
//
// A subscription is a cursor into the store's row log, read while
// writers add, so the test repeats under the race detector.
//
//race:repeat 20
func TestCloseSubscribersDrainsRemainder(t *testing.T) {
	s := NewStore()
	sub := s.Subscribe(16, nil)
	for i := 0; i < 5; i++ {
		s.Add(brec(i))
	}
	s.CloseSubscribers()
	var got int
	for {
		_, ok := sub.Next(context.Background())
		if !ok {
			break
		}
		got++
	}
	if got != 5 {
		t.Errorf("drained %d of 5 ringed records after shutdown", got)
	}
	// Subscriptions opened after shutdown are born closed.
	late := s.Subscribe(16, nil)
	if _, ok := late.Next(context.Background()); ok {
		t.Error("post-shutdown subscription yielded a record")
	}
}

func TestSubscriptionSeq(t *testing.T) {
	s := NewStore()
	sub := s.Subscribe(64, nil)
	for i := 0; i < 8; i++ {
		s.Add(brec(i))
	}
	var got []Record
	for r := range sub.Seq(context.Background()) {
		got = append(got, r)
		if len(got) == 8 {
			break // breaking the range must close the subscription
		}
	}
	if len(got) != 8 {
		t.Fatalf("ranged %d of 8", len(got))
	}
	if n := s.Subscribers(); n != 0 {
		t.Errorf("subscription leaked past range break: %d live", n)
	}
}

// The zero-subscriber publish path is the engine hot path; pin it to
// zero allocations.
func TestPublishZeroSubscribersAllocFree(t *testing.T) {
	s := NewStore()
	allocs := testing.AllocsPerRun(1000, func() {
		s.mu.Lock()
		s.publish()
		s.mu.Unlock()
	})
	if allocs != 0 {
		t.Errorf("zero-subscriber publish allocates %.1f/op", allocs)
	}
}

// With subscribers attached, both the wake and the lag-drop paths
// stay allocation-free.
func TestPublishWithSubscribersAllocFree(t *testing.T) {
	s := NewStore()
	sub := s.Subscribe(8, nil)
	defer sub.Close()
	filtered := s.Subscribe(8, func(Record) bool { return false })
	defer filtered.Close()
	// Room for every row the runs append, so only publish is priced.
	w := s.tabs.row(brec(1))
	s.recs = make([]row, 0, 2048)
	allocs := testing.AllocsPerRun(1000, func() {
		s.mu.Lock()
		s.recs = append(s.recs, w)
		s.publish() // lag passes 8 after 8 rows, then exercises the drop path
		s.mu.Unlock()
	})
	if allocs != 0 {
		t.Errorf("subscriber publish allocates %.1f/op", allocs)
	}
}

// A deliberately slow consumer against a flooding producer: the
// producer (the stand-in relay worker) must finish its flood without
// ever blocking on the subscriber, and the accounting must be exact —
// every produced record is either delivered (in order, no duplicates)
// or counted on the drop counters. Nothing vanishes, nothing doubles.
//
// A subscription is a cursor into the store's row log, read while
// writers add, so the test repeats under the race detector.
//
//race:repeat 20
func TestSubscriptionSlowConsumerExactAccounting(t *testing.T) {
	s := NewStore()
	sub := s.Subscribe(8, nil)
	const total = 5000

	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		for i := 0; i < total; i++ {
			s.Add(brec(i))
		}
	}()

	// The slow consumer: one record, then a dawdle three orders of
	// magnitude longer than an Add.
	var delivered []Record
	consDone := make(chan struct{})
	go func() {
		defer close(consDone)
		for {
			r, ok := sub.Next(context.Background())
			if !ok {
				return
			}
			delivered = append(delivered, r)
			time.Sleep(time.Millisecond)
		}
	}()

	// The bounded-drop contract: the flood completes on the producer's
	// schedule, not the consumer's.
	select {
	case <-prodDone:
	case <-time.After(30 * time.Second):
		t.Fatal("producer stalled behind the slow consumer")
	}
	s.CloseSubscribers()
	<-consDone

	drops := int(s.DroppedRecords())
	if len(delivered) != total-drops {
		t.Fatalf("exact accounting: delivered %d, want %d added - %d dropped = %d",
			len(delivered), total, drops, total-drops)
	}
	if drops == 0 {
		t.Fatal("consumer was never behind: the test exercised nothing")
	}
	// Delivered records are an ordered subsequence of the Add sequence:
	// brec stamps At = Unix(0, i), so order and uniqueness reduce to
	// strictly increasing timestamps.
	for i := 1; i < len(delivered); i++ {
		if !delivered[i].At.After(delivered[i-1].At) {
			t.Fatalf("delivery %d out of order: %v after %v",
				i, delivered[i].At, delivered[i-1].At)
		}
	}
	// The store itself missed nothing: drops are a lagging-cursor
	// phenomenon, never data loss.
	if s.Len() != total {
		t.Errorf("store kept %d of %d", s.Len(), total)
	}
}

// Concurrent adders, a draining consumer, and a racing Close: the
// -race detector is the assertion, plus conservation — every record is
// delivered or counted as dropped.
//
// A subscription is a cursor into the store's row log, read while
// writers add, so the test repeats under the race detector.
//
//race:repeat 20
func TestBroadcastConcurrency(t *testing.T) {
	s := NewStore()
	sub := s.Subscribe(32, nil)
	const producers, perProducer = 4, 200

	var consumed int
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for {
			_, ok := sub.Next(context.Background())
			if !ok {
				return
			}
			consumed++
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				s.Add(brec(p*perProducer + i))
			}
		}(p)
	}
	wg.Wait()
	s.CloseSubscribers()
	<-consumerDone

	total := producers * perProducer
	if drops := int(s.DroppedRecords()); consumed != total-drops {
		t.Errorf("conservation: consumed %d, want %d added - %d dropped = %d",
			consumed, total, drops, total-drops)
	}
	if s.Len() != total {
		t.Errorf("store kept %d of %d", s.Len(), total)
	}
}

// A reader that never reads loses exactly the rows the log moved past
// it, oldest first, and then reads the newest size rows in order.
//
// A subscription is a cursor into the store's row log, read while
// writers add, so the test repeats under the race detector.
//
//race:repeat 20
func TestSubscriptionStalledReaderDropsOldest(t *testing.T) {
	s := NewStore()
	sub := s.Subscribe(8, nil)
	for i := 0; i < 100; i++ {
		s.Add(brec(i))
	}
	if d := s.DroppedRecords(); d != 92 {
		t.Fatalf("store-wide drops %d, want 92", d)
	}
	sub.Close()
	for i := 92; i < 100; i++ {
		r, ok := sub.Next(context.Background())
		if !ok {
			t.Fatalf("stream ended at %d", i)
		}
		if want := brec(i); r != want {
			t.Fatalf("record %d: got %+v want %+v", i, r, want)
		}
	}
	if r, ok := sub.Next(context.Background()); ok {
		t.Fatalf("record past the close: %+v", r)
	}
}

// The lag bound counts rows of every kind, but only rows the filter
// keeps count as drops: drops plus deliveries are exactly the kept
// records added.
//
// A subscription is a cursor into the store's row log, read while
// writers add, so the test repeats under the race detector.
//
//race:repeat 20
func TestSubscriptionFilteredLagCountsOnlyKept(t *testing.T) {
	s := NewStore()
	sub := s.Subscribe(8, func(r Record) bool { return r.App == "app.1" })
	const n = 30
	want := 0
	for i := 0; i < n; i++ {
		if brec(i).App == "app.1" {
			want++
		}
		s.Add(brec(i))
	}
	// Rows 0..21 were skipped; 7 of them are app.1.
	if d := s.DroppedRecords(); d != 7 {
		t.Fatalf("dropped %d, want 7, the app.1 rows among the 22 skipped", d)
	}
	s.CloseSubscribers()
	delivered := 0
	for {
		r, ok := sub.Next(context.Background())
		if !ok {
			break
		}
		if r.App != "app.1" {
			t.Fatalf("filter leaked %q", r.App)
		}
		delivered++
	}
	if delivered != want-7 {
		t.Errorf("delivered %d, want %d kept records - 7 dropped = %d",
			delivered, want, want-7)
	}
}

// A closed stream delivers every record added before the close and
// none added after it, whether the consumer or the store closed it.
//
// A subscription is a cursor into the store's row log, read while
// writers add, so the test repeats under the race detector.
//
//race:repeat 20
func TestSubscriptionEndsAtClose(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(*Store, *Subscription)
	}{
		{"Close", func(_ *Store, sub *Subscription) { sub.Close() }},
		{"CloseSubscribers", func(s *Store, _ *Subscription) { s.CloseSubscribers() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			sub := s.Subscribe(64, nil)
			for i := 0; i < 5; i++ {
				s.Add(brec(i))
			}
			tc.close(s, sub)
			for i := 5; i < 10; i++ {
				s.Add(brec(i))
			}
			for i := 0; i < 5; i++ {
				r, ok := sub.Next(context.Background())
				if !ok {
					t.Fatalf("stream ended at %d of 5", i)
				}
				if want := brec(i); r != want {
					t.Fatalf("record %d: got %+v want %+v", i, r, want)
				}
			}
			if r, ok := sub.Next(context.Background()); ok {
				t.Fatalf("record added after the close delivered: %+v", r)
			}
		})
	}
}

// A subscription holds a cursor, not a copy: its size bounds lag and
// costs no memory.
//
// A subscription is a cursor into the store's row log, read while
// writers add, so the test repeats under the race detector.
//
//race:repeat 20
func TestSubscriptionSizeCostsNoMemory(t *testing.T) {
	s := NewStore()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sub := s.Subscribe(1<<20, nil)
	sub.Close()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("Subscribe(1<<20) then Close allocated %d B, want < 64 KiB", grew)
	}
}
