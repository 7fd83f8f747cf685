package crowd

import (
	"strconv"

	"repro/internal/metrics"
)

// Collector observability. Every instrument is a scrape-time read over
// state the server already maintains — the upload hot path is not
// touched.

// metricsRegistry builds (once) the server's registry.
func (s *Server) metricsRegistry() *metrics.Registry {
	s.metricsOnce.Do(func() {
		r := metrics.NewRegistry()
		r.CounterFunc("mopeye_collector_uploads_total",
			"Upload batches accepted (excluding duplicates).",
			func() float64 { return float64(s.c.batches.Load()) })
		r.CounterFunc("mopeye_collector_records_total",
			"Measurement records accepted.",
			func() float64 { return float64(s.c.records.Load()) })
		r.CounterFunc("mopeye_collector_dedup_hits_total",
			"Redelivered batches absorbed by the (device, epoch, seq) dedup windows.",
			func() float64 { return float64(s.c.duplicates.Load()) })
		r.CounterFunc("mopeye_collector_auth_failures_total",
			"Uploads rejected for bad tokens or device-stamp mismatches.",
			func() float64 { return float64(s.c.authFailures.Load()) })
		r.CounterFunc("mopeye_collector_bad_requests_total",
			"Malformed uploads rejected.",
			func() float64 { return float64(s.c.badRequests.Load()) })
		r.CounterFunc("mopeye_collector_dedup_evictions_total",
			"Dedup windows evicted, least recently seen first, at the table's cap.",
			func() float64 { return float64(s.c.evictions.Load()) })
		r.GaugeFunc("mopeye_collector_dedup_keys",
			"Dedup windows held, one per recent (device, epoch) pair (at most the cap).",
			func() float64 { return float64(s.DedupKeys()) })
		r.GaugeFunc("mopeye_collector_spool_bytes",
			"Spool file bytes on disk (0 when memory-only).",
			func() float64 {
				if s.spool == nil {
					return 0
				}
				return float64(s.spool.Stats().Bytes)
			})
		// Per-ingest-shard record counts: the skew view. Shard index is
		// the device-hash bucket.
		r.CollectGauges("mopeye_collector_shard_records",
			"Records committed per ingest shard (device-hash skew).",
			func() []metrics.Sample {
				out := make([]metrics.Sample, 0, len(s.shards))
				for i := range s.shards {
					out = append(out, metrics.Sample{
						Labels: []metrics.Label{metrics.L("shard", strconv.Itoa(i))},
						Value:  float64(s.shards[i].recCount.Load()),
					})
				}
				return out
			})
		// Per-network RTT summaries off the aggregation sketches. Only
		// those are cloned under aggMu, not the one-per-app ones, so the
		// samples own their state, render outside the lock, and carry
		// the sketch's ±alpha bound.
		r.CollectSummaries("mopeye_collector_rtt_ms",
			"Measured RTTs (ms) by network key, sketched.",
			func() []metrics.Sample {
				s.aggMu.Lock()
				defer s.aggMu.Unlock()
				out := make([]metrics.Sample, 0, len(s.agg.perNet))
				for key, sk := range s.agg.perNet {
					out = append(out, metrics.Sample{
						Labels: []metrics.Label{metrics.L("net", key.String())},
						Sketch: sk.Clone(),
					})
				}
				return out
			})
		s.metricsReg = r
	})
	return s.metricsReg
}
