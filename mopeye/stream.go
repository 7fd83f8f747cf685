package mopeye

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"repro/internal/measure"
)

// This file is the push half of the public API: the streaming
// measurement pipeline. MopEye is a continuous monitor — measurements
// fall out of relaying as a side effect, indefinitely — so the
// natural consumption model is a subscription, not a poll. Subscribe
// yields a context-cancellable iterator over live measurements;
// Attach hands the stream to a Sink for the engine's lifetime. Both
// ride the store's broadcast layer: each subscription is a cursor into
// the store's one record log, and a reader that lags too far loses its
// oldest unread records (counted) rather than ever stalling the relay
// workers. See DESIGN.md "Streaming measurement pipeline" for the
// bounded-lag contract.

// KindFilter selects which measurement kinds a subscription observes.
type KindFilter int

// Kind filters.
const (
	// AnyKind streams TCP and DNS measurements alike.
	AnyKind KindFilter = iota
	// TCPOnly streams per-app TCP connect() RTTs.
	TCPOnly
	// DNSOnly streams DNS transaction RTTs.
	DNSOnly
)

// Filter narrows a subscription. The zero value matches every
// measurement; each set field must match. Records a filter rejects
// are neither delivered nor counted as drops.
type Filter struct {
	// Kind restricts to one measurement kind.
	Kind KindFilter
	// UID, when positive, restricts to one app UID. (DNS measurements
	// carry UID 0 — the resolver is system-wide — so filter those with
	// Kind instead.)
	UID int
	// App, when non-empty, restricts to one package name.
	App string
}

// predicate compiles the filter; nil means match-all.
func (f Filter) predicate() func(measure.Record) bool {
	if f == (Filter{}) {
		return nil
	}
	return func(r measure.Record) bool {
		switch f.Kind {
		case TCPOnly:
			if r.Kind != measure.KindTCP {
				return false
			}
		case DNSOnly:
			if r.Kind != measure.KindDNS {
				return false
			}
		}
		if f.UID > 0 && r.UID != f.UID {
			return false
		}
		if f.App != "" && r.App != f.App {
			return false
		}
		return true
	}
}

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
//	for m := range phone.Subscribe(ctx, mopeye.Filter{Kind: mopeye.TCPOnly}) {
//		fmt.Printf("%s -> %s: %v\n", m.App, m.Dst, m.RTT)
//	}
func (p *core) Subscribe(ctx context.Context, f Filter) iter.Seq[Measurement] {
	sub := p.store.Subscribe(0, f.predicate())
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

// attachedSink is one engine-lifetime sink with its drain state.
type attachedSink struct {
	sink Sink

	mu  sync.Mutex
	err error // first Accept/Flush/Close error, kept for Err
}

func (as *attachedSink) setErr(err error) {
	as.mu.Lock()
	if as.err == nil {
		as.err = err
	}
	as.mu.Unlock()
}

// finish flushes and closes the sink at phone teardown.
func (as *attachedSink) finish() {
	if err := as.sink.Flush(); err != nil {
		as.setErr(err)
	}
	if err := as.sink.Close(); err != nil {
		as.setErr(err)
	}
}

// Attach registers a Sink for the rest of the engine's lifetime:
// every measurement recorded from now on is delivered to
// sink.Accept on a dedicated drain goroutine, and Phone.Close flushes
// and closes the sink after the final measurement. If Accept returns
// an error the sink stops receiving; the error is reported by the
// returned handle's Err after close.
func (p *core) Attach(sink Sink) (*Attached, error) {
	as := &attachedSink{sink: sink}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.drain(func(r measure.Record) bool {
		if err := sink.Accept(r); err != nil {
			as.setErr(err)
			return false
		}
		return true
	}) {
		return nil, fmt.Errorf("mopeye: Attach on a closed phone")
	}
	p.sinks = append(p.sinks, as)
	return &Attached{as: as}, nil
}

// drain feeds every measurement recorded from now on to f, on a
// goroutine that Close waits for, until f returns false or the phone
// closes. On a closed phone it starts nothing and reports false. The
// caller holds p.mu.
func (p *core) drain(f func(measure.Record) bool) bool {
	if p.closed {
		return false
	}
	sub := p.store.Subscribe(0, nil)
	p.sinkWG.Add(1)
	go func() {
		defer p.sinkWG.Done()
		defer sub.Close()
		for {
			r, ok := sub.Next(nil)
			if !ok || !f(r) {
				return
			}
		}
	}()
	return true
}

// Attached is the handle Attach returns.
type Attached struct {
	as *attachedSink
}

// Err reports the first error the sink returned from Accept, Flush or
// Close. Meaningful once the phone is closed.
func (a *Attached) Err() error {
	a.as.mu.Lock()
	defer a.as.mu.Unlock()
	return a.as.err
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
