package mopeye

import (
	"io"
	"net/http"

	"repro/internal/measure"
	"repro/internal/metrics"
)

// This file is the phone-side half of the observability subsystem:
// WriteMetrics/MetricsHandler expose a Prometheus text exposition over
// the engine's live counters (internal/engine.RegisterMetrics), the
// streaming pipeline's bounded-drop accounting, and sketched per-kind
// RTT quantiles. Every engine instrument is a scrape-time read over
// atomics the hot path already maintains; the only active piece is the
// RTT quantile feed, which rides the same store subscription machinery
// as any other subscriber — bounded lag, drops counted, never
// stalling a relay worker.
//
// The registry is built lazily on first use, so phones that never
// scrape pay nothing. Arm it before the workload when the quantiles
// matter: the subscription observes records from that point on.

// registerStoreMetrics adds the streaming pipeline's instruments.
func registerStoreMetrics(r *metrics.Registry, st *measure.Store) {
	r.CounterFunc("mopeye_stream_dropped_total",
		"Measurements dropped by subscribers that lagged too far (bounded-lag contract; zero when healthy).",
		func() float64 { return float64(st.DroppedRecords()) })
	r.GaugeFunc("mopeye_stream_subscribers",
		"Live measurement subscriptions.",
		func() float64 { return float64(st.Subscribers()) })
	r.GaugeFunc("mopeye_store_records",
		"Measurements held in the store.",
		func() float64 { return float64(st.Len()) })
	r.GaugeFunc("mopeye_store_interned_values",
		"Distinct domains, destinations and sources the stored measurements refer to.",
		func() float64 { return float64(st.InternedValues()) })
}

// rttQuantileFeed registers the per-kind RTT summaries and returns the
// drain that feeds them from a store subscription.
func rttQuantileFeed(r *metrics.Registry) func(measure.Record) {
	const help = "Opportunistic RTT measurements (ms) by kind, sketched."
	qtcp := r.Quantile("mopeye_phone_rtt_ms", help, 0, metrics.L("kind", "tcp"))
	qdns := r.Quantile("mopeye_phone_rtt_ms", help, 0, metrics.L("kind", "dns"))
	return func(rec measure.Record) {
		if rec.Kind == measure.KindDNS {
			qdns.Observe(rec.Millis())
			return
		}
		qtcp.Observe(rec.Millis())
	}
}

// metricsRegistry builds (once) the phone's registry and starts the
// quantile drain.
func (p *core) metricsRegistry() *metrics.Registry {
	p.metricsOnce.Do(func() {
		r := metrics.NewRegistry()
		p.eng.RegisterMetrics(r)
		registerStoreMetrics(r, p.store)
		observe := rttQuantileFeed(r)
		p.metricsReg = r

		// The quantile feed is an ordinary drain: on a closed phone it
		// is skipped (the instruments stay empty), otherwise Close waits
		// for the final observation exactly as it does for a
		// Collector's final upload.
		p.drain(func(rec measure.Record) bool { observe(rec); return true }, nil)
	})
	return p.metricsReg
}

// Metrics snapshots the phone's observability state: engine counters
// and gauges, streaming-pipeline accounting, and the sketched RTT
// summaries.
func (p *core) Metrics() metrics.Snapshot { return p.metricsRegistry().Gather() }

// WriteMetrics renders the phone's metrics in Prometheus text
// exposition format. The first call arms the registry (and the RTT
// quantile feed); arm it before the workload when the quantiles should
// cover it.
func (p *core) WriteMetrics(w io.Writer) error {
	return p.metricsRegistry().WritePrometheus(w)
}

// MetricsHandler serves the phone's metrics over HTTP — GET /metrics
// for a live phone, the same exposition WriteMetrics renders.
func (p *core) MetricsHandler() http.Handler { return p.metricsRegistry().Handler() }
