package mopeye

import (
	"sync"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/metrics"
)

// core is the substrate-independent half of a phone: the engine, the
// measurement store it records into (the phone's one local copy of
// its records), the clock both run on, and the
// attach/metrics bookkeeping hanging off the store. Phone and RealPhone
// embed it, so the snapshot accessors here, Subscribe/Attach/Run
// (stream.go) and the observability registry (metrics.go) are declared
// once and behave identically on both data planes. A plane supplies
// only how the engine was assembled and a teardown for what it opened.
type core struct {
	eng   *engine.Engine
	store *measure.Store
	clk   clock.Clock
	// teardown closes what the plane opened (device, emulated network).
	// Close runs it last, once the sinks have flushed.
	teardown func()

	// done is closed once Close has fully torn the phone down; Run
	// waits on it.
	done chan struct{}
	// closeOnce makes Close idempotent and safe against concurrent
	// Subscribe/Attach/Close callers.
	closeOnce sync.Once

	// mu guards the attach bookkeeping below.
	mu     sync.Mutex
	closed bool
	sinks  []*attachedSink
	sinkWG sync.WaitGroup

	// metricsOnce builds the lazy observability registry; see
	// metrics.go.
	metricsOnce sync.Once
	metricsReg  *metrics.Registry
}

// init wraps a started engine; the store is the one it records into.
// In place, because a core holds locks and is embedded by value (so the
// promoted methods keep their pointer receivers).
func (p *core) init(eng *engine.Engine, clk clock.Clock, teardown func()) {
	p.eng, p.store, p.clk, p.teardown = eng, eng.Store(), clk, teardown
	p.done = make(chan struct{})
}

// engineConfig resolves the Engine/Workers overrides Options and
// RealOptions share: nil means the paper's shipped configuration, and a
// positive Workers wins over whatever it says.
func engineConfig(base *engine.Config, workers int) engine.Config {
	cfg := engine.Default()
	if base != nil {
		cfg = *base
	}
	if workers > 0 {
		cfg.Workers = workers
	}
	return cfg
}

// Measurements returns every opportunistic measurement collected so
// far — the pull-style snapshot of the same stream Subscribe delivers
// push-style, in the same order. Copies the whole store on every
// call; continuous consumers should prefer Subscribe or Attach.
func (p *core) Measurements() []Measurement { return p.store.Snapshot() }

// TCPMeasurements returns a snapshot of the per-app TCP RTTs — the
// pull form of Subscribe(ctx, Filter{Kind: TCPOnly}).
func (p *core) TCPMeasurements() []Measurement {
	return p.store.Kind(measure.KindTCP)
}

// DNSMeasurements returns a snapshot of the DNS RTTs — the pull form
// of Subscribe(ctx, Filter{Kind: DNSOnly}).
func (p *core) DNSMeasurements() []Measurement {
	return p.store.Kind(measure.KindDNS)
}

// AppMedians returns each app's median RTT in milliseconds over apps
// with at least minN measurements. A collector server computes the
// same aggregate, sketched, over every phone's uploads (GET /v1/stats,
// FetchCollectorStats).
func (p *core) AppMedians(minN int) map[string]float64 {
	return measure.AppMedians(p.TCPMeasurements(), minN)
}

// EngineStats exposes the engine's internal counters.
func (p *core) EngineStats() engine.Stats { return p.eng.Stats() }

// AppTraffic is one app's relayed-volume report — the beyond-RTT
// metric extension the paper's conclusion proposes.
type AppTraffic = engine.AppTraffic

// AppTraffic returns per-app traffic volumes, largest first. Like the
// RTT measurement, this is opportunistic: it costs nothing beyond the
// relaying MopEye already does.
func (p *core) AppTraffic() []AppTraffic { return p.eng.AppTraffic() }

// dashClock is the time source the dashboard paces its frames on.
func (p *core) dashClock() clock.Clock { return p.clk }

// Close stops the engine, ends every live Subscribe stream and
// attached Sink (delivering the records already in flight, then
// flushing and closing the sinks), and tears the data plane down.
// Close is idempotent and safe to call concurrently with Subscribe,
// Attach, and other Close calls; every call returns only after the
// teardown has completed.
func (p *core) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		sinks := p.sinks
		p.mu.Unlock()

		// Stop the engine first: after that no worker can record, so
		// ending the subscriptions cannot truncate the stream —
		// subscribers drain what is already ringed, then see the end.
		p.eng.Stop()
		p.store.CloseSubscribers()
		p.sinkWG.Wait()
		for _, as := range sinks {
			as.finish()
		}
		p.teardown()
		close(p.done)
	})
	<-p.done
}
