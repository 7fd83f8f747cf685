package mopeye

import (
	"io"
	"net/http"
	"strconv"

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
// as any other subscriber — bounded ring, drops counted, never
// stalling a relay worker.
//
// The registry is built lazily on first use, so phones that never
// scrape pay nothing. Arm it before the workload when the quantiles
// matter: the subscription observes records from that point on.

// registerStoreMetrics adds the streaming pipeline's instruments.
func registerStoreMetrics(r *metrics.Registry, st *measure.Store) {
	r.CounterFunc("mopeye_stream_dropped_total",
		"Measurements dropped across subscriber rings (bounded-drop contract; zero when healthy).",
		func() float64 { return float64(st.DroppedRecords()) })
	r.GaugeFunc("mopeye_stream_subscribers",
		"Live measurement subscriptions.",
		func() float64 { return float64(st.Subscribers()) })
	r.GaugeFunc("mopeye_store_records",
		"Measurements held in the store.",
		func() float64 { return float64(st.Len()) })
	r.GaugeFunc("mopeye_store_interned_values",
		"Distinct strings, destinations and network contexts the stored measurements refer to.",
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

		// The quantile feed is an ordinary subscriber: on a closed phone
		// it is skipped (the instruments stay empty), otherwise its drain
		// joins sinkWG so Close waits for the final observation exactly
		// as it does for attached sinks.
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		sub := p.store.Subscribe(0, nil)
		p.sinkWG.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.sinkWG.Done()
			for {
				rec, ok := sub.Next(nil)
				if !ok {
					return
				}
				observe(rec)
			}
		}()
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

// metricsRegistry builds (once) the fleet's registry: aggregate
// counters plus per-phone status labeled by device stamp. Meaningful
// once Run has completed; scraped mid-run it reports the phones
// finished so far.
func (f *Fleet) metricsRegistry() *metrics.Registry {
	f.metricsOnce.Do(func() {
		r := metrics.NewRegistry()
		r.GaugeFunc("mopeye_fleet_phones",
			"Phones in the fleet roster.",
			func() float64 { return float64(f.Stats().Phones) })
		r.GaugeFunc("mopeye_fleet_failed",
			"Phones whose construction, workload, or sink failed.",
			func() float64 { return float64(f.Stats().Failed) })
		r.CounterFunc("mopeye_fleet_records_total",
			"Measurements the fleet's phones recorded.",
			func() float64 { return float64(f.Stats().Records) })
		r.CounterFunc("mopeye_fleet_uploads_total",
			"Upload batches the fleet's collectors shipped (0 without a transport).",
			func() float64 { return float64(f.Stats().Uploads) })
		r.GaugeFunc("mopeye_fleet_phone_time_seconds",
			"Longest per-phone workload duration on the phones' own clocks.",
			func() float64 { return f.Stats().PhoneTime.Seconds() })
		r.CollectGauges("mopeye_fleet_phone_up",
			"Per-phone outcome: 1 succeeded, 0 failed.",
			func() []metrics.Sample {
				return f.phoneSamples(func(st FleetPhoneStatus) float64 {
					if st.Err != nil {
						return 0
					}
					return 1
				})
			})
		r.CollectGauges("mopeye_fleet_phone_records",
			"Measurements recorded per phone.",
			func() []metrics.Sample {
				return f.phoneSamples(func(st FleetPhoneStatus) float64 { return float64(st.Records) })
			})
		r.CollectGauges("mopeye_fleet_phone_elapsed_seconds",
			"Per-phone workload duration on the phone's own clock.",
			func() []metrics.Sample {
				return f.phoneSamples(func(st FleetPhoneStatus) float64 { return st.Elapsed.Seconds() })
			})
		f.metricsReg = r
	})
	return f.metricsReg
}

// phoneSamples maps the per-phone statuses to labeled samples. Two
// FleetPhones may share a device stamp (a reinstalled device), so the
// label carries the roster index as well.
func (f *Fleet) phoneSamples(value func(FleetPhoneStatus) float64) []metrics.Sample {
	sts := f.PhoneStatuses()
	out := make([]metrics.Sample, 0, len(sts))
	for i, st := range sts {
		if st.Device == "" {
			continue // not yet run
		}
		out = append(out, metrics.Sample{
			Labels: []metrics.Label{
				metrics.L("device", st.Device),
				metrics.L("phone", strconv.Itoa(i)),
			},
			Value: value(st),
		})
	}
	return out
}

// Metrics snapshots the fleet's aggregate and per-phone observability
// state.
func (f *Fleet) Metrics() metrics.Snapshot { return f.metricsRegistry().Gather() }

// WriteMetrics renders the fleet's metrics in Prometheus text
// exposition format.
func (f *Fleet) WriteMetrics(w io.Writer) error {
	return f.metricsRegistry().WritePrometheus(w)
}
