package measure

import (
	"context"
	"iter"
	"math"
)

// This file is the store's broadcast layer: the push half of the
// streaming measurement pipeline. A record lives in one place, the
// store's row log; a Subscription is a cursor into that log, so it
// holds no copy of any record and no memory that grows with its size.
// The record path runs on the engine's packet workers, so the producer
// never waits for a reader to catch up: a reader may lag at most size
// rows behind the log's end, and when it falls further behind, Add
// moves its cursor past the oldest unread row and counts that row in
// the store's one drop counter (DroppedRecords). Bounded lag, bounded
// loss, unbounded neither.
//
// Producer-side cost: with no subscribers, one len check under the
// mutex Add already holds (pinned by a 0-allocs test); per subscriber,
// a lag check and a non-blocking wake, plus a cursor step for a reader
// that lags, whose skipped row is read back only to ask a filter
// whether it counts as a drop. Still allocation-free.
//
// Reader-side cost: a reader holds Store.mu only to claim its next
// rows, in constant time, so Add can wait for that step but never for
// a reader's rebuild or filter. The wake is not filtered: a filtered
// reader also wakes, and claims, for rows it rejects. Snapshot and
// Kind read the same way, through a cursor Add never sees (span).
//
// Cursors and their ends are guarded by Store.mu, which already
// serialises Add; each Subscription has exactly one consumer by
// contract.

// defaultSubscriberLag is how many rows a reader may lag when
// Subscribe is given size <= 0: deep enough that a consumer scheduling
// hiccup does not drop records at measurement rates (connections, not
// packets).
const defaultSubscriberLag = 1024

// readChunk caps the rows a reader claims at a time. Claimed rows are
// the reader's and never count as lag.
const readChunk = 64

// Subscription is one bounded tap on a Store's record stream. It
// observes every record added after Subscribe, in Add order, minus the
// oldest unread records it lost while lagging more than its size. A
// Subscription has a single consumer: Next/Seq must not be called
// concurrently with themselves or each other.
type Subscription struct {
	st   *Store
	keep func(Record) bool // nil accepts every record
	size int               // rows the reader may lag

	// next is the index of the next row to claim; the stream ends at
	// end, which is math.MaxInt while the subscription is live. Both
	// guarded by Store.mu.
	next, end int

	// rows are the claimed rows not yet read back, and tabs a copy of
	// the store's tables taken with them. Consumer side only.
	rows []row
	tabs tables

	// notify is the consumer wakeup: capacity 1, sent without blocking
	// after every Add and at the close.
	notify chan struct{}
}

// Subscribe registers a tap on the stream. Records added after the
// call are delivered as long as the reader lags no more than size rows
// of any kind behind the newest, not counting the at most readChunk
// rows it has claimed (size <= 0 means the 1024 default); past that,
// its oldest unclaimed record is dropped and counted. keep, when
// non-nil, filters: records it rejects are neither delivered nor
// counted as drops. On a store whose subscribers have been shut down
// (CloseSubscribers), the returned Subscription is already closed and
// yields nothing.
func (s *Store) Subscribe(size int, keep func(Record) bool) *Subscription {
	if size <= 0 {
		size = defaultSubscriberLag
	}
	sub := &Subscription{
		st:     s,
		keep:   keep,
		size:   size,
		end:    math.MaxInt,
		notify: make(chan struct{}, 1),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sub.next = len(s.recs)
	if s.subsClosed {
		sub.end = sub.next
	} else {
		s.subs = append(s.subs, sub)
	}
	return sub
}

// publish runs after Add appends a row: it moves every cursor that now
// lags more than its size past its oldest unread row, counting that
// row as a drop if the subscriber would have kept it, and wakes every
// reader. Caller holds s.mu.
func (s *Store) publish() {
	n := len(s.recs)
	for _, sub := range s.subs {
		if n-sub.next > sub.size {
			w := s.recs[sub.next]
			sub.next++
			if sub.keep == nil || sub.keep(s.tabs.record(w)) {
				s.dropped.Add(1)
			}
		}
		sub.wake()
	}
}

func (sub *Subscription) wake() {
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

// read sets *r to the next record the subscriber keeps, without
// blocking. ended reports a closed subscription with every row before
// its end read. Consumer side only.
func (sub *Subscription) read(r *Record) (ok, ended bool) {
	for {
		for len(sub.rows) > 0 {
			*r = sub.tabs.record(sub.rows[0])
			sub.rows = sub.rows[1:]
			if sub.keep == nil || sub.keep(*r) {
				return true, false
			}
		}
		// Claim the next rows and the tables they refer to. The log
		// and the tables only grow by append, so both stay valid and
		// unchanged after the mutex is released.
		s := sub.st
		s.mu.Lock()
		end := min(len(s.recs), sub.end, sub.next+readChunk)
		sub.rows, sub.tabs = s.recs[sub.next:end:end], s.tabs
		sub.next = end
		ended = end == sub.end
		s.mu.Unlock()
		if len(sub.rows) == 0 {
			sub.rows, sub.tabs, *r = nil, tables{}, Record{}
			return false, ended
		}
	}
}

// Next blocks for the next record. ok is false once the subscription
// is closed and every record added before the close is read, or when
// ctx is cancelled (a nil ctx never cancels). Closing the store ends
// the stream, it does not truncate it.
func (sub *Subscription) Next(ctx context.Context) (r Record, ok bool) {
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	for {
		ok, ended := sub.read(&r)
		if ok || ended {
			return r, ok
		}
		select {
		case <-sub.notify:
		case <-cancel:
			return Record{}, false
		}
	}
}

// Seq adapts the subscription to a range-over-func iterator. The
// subscription is closed when the range ends, whichever side ends it.
func (sub *Subscription) Seq(ctx context.Context) iter.Seq[Record] {
	return func(yield func(Record) bool) {
		defer sub.Close()
		for {
			r, ok := sub.Next(ctx)
			if !ok {
				return
			}
			if !yield(r) {
				return
			}
		}
	}
}

// Close detaches the subscription from the store. Idempotent and safe
// to call concurrently with Add and with CloseSubscribers. A consumer
// blocked in Next is released; records added before the close remain
// readable, records added after it are not delivered.
func (sub *Subscription) Close() {
	s := sub.st
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, x := range s.subs {
		if x == sub {
			sub.end = len(s.recs)
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			sub.wake()
			break
		}
	}
}

// CloseSubscribers ends every live subscription and marks the store so
// later Subscribe calls return already-closed subscriptions. Records
// added before the call are still delivered to their consumers. The
// store itself keeps accepting Add calls (they simply have no
// audience); this is the teardown hook the owner of the store calls
// once the producers are stopped.
func (s *Store) CloseSubscribers() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.subs {
		sub.end = len(s.recs)
		sub.wake()
	}
	s.subs = nil
	s.subsClosed = true
}

// Subscribers reports the number of live subscriptions.
func (s *Store) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// DroppedRecords reports the total records dropped across all
// subscribers, past and present — the observability half of the
// bounded-lag contract.
func (s *Store) DroppedRecords() uint64 { return s.dropped.Load() }
