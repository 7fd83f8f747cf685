package mopeye

import (
	"context"
	"iter"

	"repro/internal/measure"
)

// This file is the push half of the public API: the streaming
// measurement pipeline. MopEye is a continuous monitor — measurements
// fall out of relaying as a side effect, indefinitely — so the
// natural consumption model is a subscription, not a poll. Subscribe
// yields a context-cancellable iterator over live measurements, and it
// is the phone's one stream API: the Collector (collector.go) and the
// metrics feed read their own subscriptions through drain, on a
// goroutine Close waits for. All ride the store's broadcast layer:
// each subscription is a cursor into the store's one record log, and a
// reader that lags too far loses its oldest unread records (counted)
// rather than ever stalling the relay workers. See DESIGN.md
// "Streaming measurement pipeline" for the bounded-lag contract.

// Subscribe streams measurements as they are recorded. The
// subscription registers before Subscribe returns: every measurement
// recorded from this call onward is observed (earlier ones are not
// replayed), deterministically — no race between subscribing and
// starting the workload. The returned iterator blocks between
// measurements and ends when ctx is cancelled or the phone is closed;
// a close delivers every measurement already recorded before ending
// the stream, so draining a subscription observes exactly what
// Measurements() snapshots, in the same order.
//
// The iterator is single-use: it drains this one subscription, and
// ending the range (break, cancel, close) ends the subscription. The
// subscription's lag is bounded; if the consumer falls behind at
// sustained measurement rates, its oldest unread records are dropped
// for that subscriber only (never blocking the engine) and counted in
// StreamDrops.
//
//	ctx, cancel := context.WithCancel(context.Background())
//	defer cancel()
//	for m := range phone.Subscribe(ctx) {
//		fmt.Printf("%v %s -> %s: %v\n", m.Kind, m.App, m.Dst, m.RTT)
//	}
func (p *core) Subscribe(ctx context.Context) iter.Seq[Measurement] {
	sub := p.store.Subscribe(0, nil)
	if ctx != nil {
		// Detach on cancellation even if the iterator is never ranged
		// (or abandoned between Subscribe and range): an un-ranged
		// subscription must not keep lagging — and inflating the drop
		// counters — for the phone's lifetime.
		context.AfterFunc(ctx, sub.Close)
	}
	return sub.Seq(ctx)
}

// StreamDrops reports the total measurements dropped across all
// subscribers (live and closed) because a reader lagged too far — the
// observable half of the pipeline's bounded-lag contract. Zero in any
// healthy deployment.
func (p *core) StreamDrops() uint64 { return p.store.DroppedRecords() }

// drain feeds every measurement recorded from now on to f, on a
// goroutine that Close waits for, until f returns false or the phone
// closes; then it calls end, when end is non-nil. On a closed phone it
// starts nothing and reports false.
func (p *core) drain(f func(measure.Record) bool, end func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	sub := p.store.Subscribe(0, nil)
	p.drains.Add(1)
	go func() {
		defer p.drains.Done()
		defer sub.Close()
		for {
			r, ok := sub.Next(nil)
			if !ok || !f(r) {
				break
			}
		}
		if end != nil {
			end()
		}
	}()
	return true
}

// Run blocks until ctx is cancelled or the phone is closed elsewhere,
// then closes the phone (idempotently) and returns ctx's cause — the
// context-driven lifecycle for engine-as-a-service deployments:
//
//	go phone.Run(ctx) // phone lives exactly as long as ctx
func (p *core) Run(ctx context.Context) error {
	select {
	case <-ctx.Done():
		p.Close()
		return context.Cause(ctx)
	case <-p.done:
		return nil
	}
}
