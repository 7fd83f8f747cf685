package engine

import (
	"strconv"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sockets"
)

// RegisterMetrics wires the engine's existing hot-path state into a
// metrics registry. Everything here is a scrape-time read: counters
// are the same atomics Stats() snapshots, ring occupancy is two atomic
// loads per worker, and selector depths take each selector's mutex
// once per scrape (connection-rate locks, never the packet path). The
// relay pays nothing until something gathers.
func (e *Engine) RegisterMetrics(r *metrics.Registry) {
	ctr := func(name, help string, a *atomic.Int64) {
		r.CounterFunc("mopeye_engine_"+name, help, func() float64 { return float64(a.Load()) })
	}
	ctr("packets_from_tun_total", "Packets read from the tunnel device.", &e.ctr.packetsFromTun)
	ctr("packets_to_tun_total", "Packets written back to the tunnel device.", &e.ctr.packetsToTun)
	ctr("bytes_up_total", "TCP payload bytes relayed app->server.", &e.ctr.bytesUp)
	ctr("bytes_down_total", "TCP payload bytes relayed server->app.", &e.ctr.bytesDown)
	ctr("syns_total", "TCP SYNs accepted from apps.", &e.ctr.syns)
	ctr("established_total", "Relay connections fully spliced.", &e.ctr.established)
	ctr("connect_failures_total", "Upstream connects that failed.", &e.ctr.connectFailures)
	ctr("tcp_measurements_total", "TCP RTT measurements recorded.", &e.ctr.tcpMeasurements)
	ctr("dns_measurements_total", "DNS RTT measurements recorded.", &e.ctr.dnsMeasurements)
	ctr("dns_timeouts_total", "Relayed DNS transactions that timed out.", &e.ctr.dnsTimeouts)
	ctr("pure_acks_total", "Pure ACK segments observed.", &e.ctr.pureACKs)
	ctr("decode_errors_total", "Tunnel packets that failed to decode.", &e.ctr.decodeErrors)
	ctr("tun_read_errors_total", "Unexpected tunnel read errors; the first one ends the reader and with it the relay.", &e.ctr.tunReadErrors)
	ctr("tun_write_errors_total", "Tunnel writes refused by the device; each loses one packet toward the app.", &e.ctr.tunWriteErrors)
	ctr("udp_relayed_total", "Non-DNS UDP transactions relayed with a response.", &e.ctr.udpRelayed)
	ctr("udp_dropped_total", "UDP datagrams shed without a delivery attempt.", &e.ctr.udpDropped)
	ctr("udp_evicted_total", "NAT sessions evicted, idlest first, to admit a new flow into a full table.", &e.ctr.udpEvicted)
	ctr("udp_no_response_total", "Relayed UDP requests whose receive window closed empty.", &e.ctr.udpNoResponse)
	ctr("udp_late_relayed_total", "Late UDP responses forwarded by a stale drain.", &e.ctr.udpLate)
	ctr("udp_bytes_up_total", "UDP payload bytes relayed app->server.", &e.ctr.udpBytesUp)
	ctr("udp_bytes_down_total", "UDP payload bytes relayed server->app.", &e.ctr.udpBytesDown)

	r.GaugeFunc("mopeye_engine_active_flows", "Live spliced TCP connections.",
		func() float64 { return float64(e.flows.Len()) })
	r.GaugeFunc("mopeye_engine_active_udp_sessions", "Live NAT-style UDP sessions.",
		func() float64 { return float64(e.ActiveUDPSessions()) })
	r.GaugeFunc("mopeye_engine_workers", "Configured packet-processing workers.",
		func() float64 { return float64(e.Workers()) })

	// One sample per worker, labeled by the worker index. Ring
	// occupancy is tail-head over the SPSC atomics, so a scrape sees
	// each lane's backlog without touching the lane.
	perWorker := func(label string, pick func(*worker) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			out := make([]metrics.Sample, 0, len(e.workers))
			for _, w := range e.workers {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{metrics.L(label, strconv.Itoa(w.id))},
					Value:  pick(w),
				})
			}
			return out
		}
	}
	perSelector := func(pick func(sockets.SelectorStats) float64) func() []metrics.Sample {
		return perWorker("selector", func(w *worker) float64 { return pick(w.sel.Stats()) })
	}
	r.CollectGauges("mopeye_engine_ring_occupancy", "Packets queued in each worker's input ring.",
		perWorker("worker", func(w *worker) float64 { return float64(w.q.tail.Load() - w.q.head.Load()) }))
	r.CollectGauges("mopeye_engine_ring_capacity", "Capacity of each worker's input ring.",
		perWorker("worker", func(w *worker) float64 { return float64(w.q.capacity()) }))
	r.CollectCounters("mopeye_engine_selector_selects_total", "Select returns per selector.",
		perSelector(func(st sockets.SelectorStats) float64 { return float64(st.Selects) }))
	r.CollectCounters("mopeye_engine_selector_wakeups_total", "Explicit selector wakeups.",
		perSelector(func(st sockets.SelectorStats) float64 { return float64(st.Wakeups) }))
	r.CollectGauges("mopeye_engine_selector_ready_depth", "Keys queued ready on each selector right now.",
		perSelector(func(st sockets.SelectorStats) float64 { return float64(st.ReadyDepth) }))
	r.CollectGauges("mopeye_engine_selector_keys", "Keys registered on each selector.",
		perSelector(func(st sockets.SelectorStats) float64 { return float64(st.Keys) }))
}
